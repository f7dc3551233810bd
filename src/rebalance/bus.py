"""Shared broadcast bus.

Every transmission is a broadcast heard by all nodes; cost is the payload
size. A schedule is data: a list of slots, each naming its sender, kind
("coded" or "uncoded"), operand pieces and payload size, built from a plan
alone. encoded is the one place operands are cut: it cuts each slot's
operands from the sender's stored segments and XORs them, aligned at bit 0
and zero padded at the tail to the slot's size, which its widest operand
must fill; a slot with no operands is zero filler. encode collects the
broadcasts into a log.

A receiver named in exactly one operand's superscript strips the other
operands, which it can rebuild from its own stored base segments, and keeps
the remainder truncated to the target piece size.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DecodeFailureError, ProtocolViolationError
from .model import Database, SubsegmentLabel, SystemParams, slice_atoms


class Broadcast(NamedTuple):
    """One bus transmission: who sent it, what it encodes, and the raw payload."""

    sender: int
    kind: str  # "coded" | "uncoded"
    operands: tuple[SubsegmentLabel, ...]
    payload_atoms: int
    payload: int


@dataclass(frozen=True)
class TransmissionLog:
    """Ordered record of everything that went over the bus during one run.

    The broadcasts are stored as a tuple, whatever sequence is passed, and the
    totals are computed once here, so no total can go stale.
    """

    params: SystemParams
    broadcasts: tuple[Broadcast, ...] = ()
    total_payload_atoms: int = field(init=False, repr=False, compare=False)
    # communication load in units of one segment
    load: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        broadcasts = tuple(self.broadcasts)
        total = sum([b.payload_atoms for b in broadcasts])
        object.__setattr__(self, "broadcasts", broadcasts)
        object.__setattr__(self, "total_payload_atoms", total)
        object.__setattr__(self, "load", Fraction(total, self.params.segment_atoms))


# one scheduled transmission: (sender, kind, operands, payload atoms)
Slot = tuple[int, str, tuple[SubsegmentLabel, ...], int]


def encoded(db: Database, slots: Iterable[Slot]) -> Iterator[tuple[Broadcast, list[int]]]:
    """Each slot as (broadcast, operand cuts), in slot order: the operands cut
    from the sender's stored segments and the payload their XOR, the first
    cut as it is (a whole segment sent in the clear is the stored int).
    Every slot is checked before the first is cut, so a plan that fails
    raises before anything is yielded."""
    w = db.params.atom_bits
    slots = tuple(slots)
    checked = []
    for sender, _, operands, atoms in slots:
        widest = max([op.size_atoms for op in operands], default=atoms)
        if widest != atoms:
            raise ProtocolViolationError(f"slot of {atoms} atoms but widest operand is {widest}")
        held = db.contents.get(sender, {})
        bases = []
        for op in operands:
            base = held.get(op.base)
            if base is None:
                raise ProtocolViolationError(
                    f"node {sender} does not hold segment {op.base} "
                    f"needed for {op.describe()}"
                )
            bases.append(base.bits)
        checked.append(bases)
    for (sender, kind, operands, atoms), bases in zip(slots, checked):
        cuts, payload = [], 0
        for op, bits in zip(operands, bases):
            cut = slice_atoms(bits, op.atom_start, op.atom_stop, w)
            payload = payload ^ cut if cuts else cut
            cuts.append(cut)
        yield Broadcast(sender, kind, operands, atoms, payload), cuts


def encode(db: Database, slots: Iterable[Slot]) -> TransmissionLog:
    """Every slot's broadcast from encoded, in slot order, as one log."""
    return TransmissionLog(db.params, [b for b, _ in encoded(db, slots)])


def decode_at_node(db: Database, receiver: int, b: Broadcast) -> tuple[SubsegmentLabel, int] | None:
    """Recover the one operand addressed to this receiver, if any.

    Returns (label, bits) when the receiver appears in exactly one operand's
    superscript; None otherwise. The other operands are rebuilt locally from
    the receiver's stored base segments (each label carries its atom range,
    shared protocol knowledge with zero bus cost).
    """
    mine = [op for op in b.operands if receiver in op.superscript]
    if len(mine) != 1:
        return None
    target = mine[0]
    w, size = db.params.atom_bits, target.size_atoms
    # every term is cut to the piece first, so the remainder is the piece: it
    # needs no mask, and holds no digits of a wider payload, which CPython
    # would keep allocated after they cancel; a payload that fits is not copied
    acc = slice_atoms(b.payload, 0, size, w)
    stored = db.contents.get(receiver, {})
    for op in b.operands:
        if op is target:
            continue
        base = stored.get(op.base)
        if base is None:
            raise DecodeFailureError(
                f"node {receiver} cannot rebuild {op.describe()} "
                f"to decode {target.describe()}"
            )
        start = op.atom_start
        acc ^= slice_atoms(base.bits, start, min(op.atom_stop, start + size), w)
    return target, acc

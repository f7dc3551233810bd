"""Shared broadcast bus.

Every transmission is a broadcast heard by all nodes; cost is the payload
size. Coded payloads are bitwise XORs of pieces aligned at bit 0 and zero
padded at the tail to the largest operand (or to an explicit nominal size).
A receiver named in exactly one operand's superscript strips the other
operands, which it can rebuild from its own stored base segments, and keeps
the remainder truncated to the target piece size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DecodeFailureError, ProtocolViolationError
from .model import Database, SubsegmentLabel, SystemParams, slice_atoms


@dataclass(frozen=True)
class Broadcast:
    """One bus transmission: who sent it, what it encodes, and the raw payload."""

    sender: int
    kind: str  # "coded" | "uncoded"
    operands: tuple[SubsegmentLabel, ...]
    payload_atoms: int
    payload: int


@dataclass
class TransmissionLog:
    """Ordered record of everything that went over the bus during one run."""

    params: SystemParams
    broadcasts: list[Broadcast] = field(default_factory=list)

    def emit(self, b: Broadcast) -> None:
        self.broadcasts.append(b)

    @property
    def total_payload_atoms(self) -> int:
        return sum(b.payload_atoms for b in self.broadcasts)

    @property
    def load(self) -> Fraction:
        # communication load in units of one segment
        return Fraction(self.total_payload_atoms, self.params.segment_atoms)


def piece_bits(db: Database, node: int, label: SubsegmentLabel) -> int:
    """Extract a piece's payload from the node's stored copy of the base segment."""
    base = db.stored(node, label.base)
    if base is None:
        raise ProtocolViolationError(
            f"node {node} does not hold segment {label.base} "
            f"needed for {label.describe()}"
        )
    return slice_atoms(base.bits, label.atom_start, label.atom_stop, db.params.atom_bits)


def broadcast_uncoded(db: Database, sender: int, label: SubsegmentLabel) -> Broadcast:
    """Transmit one piece in the clear at its own size."""
    return Broadcast(
        sender=sender,
        kind="uncoded",
        operands=(label,),
        payload_atoms=label.size_atoms,
        payload=piece_bits(db, sender, label),
    )


def broadcast_xor(db: Database, sender: int, labels: tuple[SubsegmentLabel, ...]) -> Broadcast:
    """XOR two or more pieces, padded to the largest, and transmit once."""
    if len(labels) < 2:
        raise ProtocolViolationError("coded broadcast needs at least two operands")
    return _coded(db, sender, labels, max(lab.size_atoms for lab in labels))


def broadcast_class(
    db: Database,
    sender: int,
    labels: tuple[SubsegmentLabel, ...],
    nominal_atoms: int,
) -> Broadcast:
    """Transmit one fixed-size class slot: an XOR, a single padded piece, or zero filler.

    The load accounting charges nominal_atoms regardless of how many operands
    the slot carries, which is what keeps per-class costs uniform. When the
    slot is non-empty the largest operand always has exactly the nominal size.
    """
    if labels:
        widest = max(lab.size_atoms for lab in labels)
        if widest != nominal_atoms:
            raise ProtocolViolationError(
                f"class slot of {nominal_atoms} atoms but widest operand is {widest}"
            )
    return _coded(db, sender, labels, nominal_atoms)


def _coded(db, sender, labels, payload_atoms):
    payload = 0
    for lab in labels:
        payload ^= piece_bits(db, sender, lab)
    return Broadcast(
        sender=sender,
        kind="coded",
        operands=tuple(labels),
        payload_atoms=payload_atoms,
        payload=payload,
    )


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
    acc = b.payload
    for op in b.operands:
        if op is target:
            continue
        base = db.stored(receiver, op.base)
        if base is None:
            raise DecodeFailureError(
                f"node {receiver} cannot rebuild {op.describe()} "
                f"to decode {target.describe()}"
            )
        acc ^= slice_atoms(base.bits, op.atom_start, op.atom_stop, db.params.atom_bits)
    width = target.size_atoms * db.params.atom_bits
    if acc is b.payload and acc >= 0 and acc.bit_length() <= width:
        return target, acc  # nothing stripped: a payload that fits is the piece
    return target, acc & ((1 << width) - 1)

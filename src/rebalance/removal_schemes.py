"""Broadcast schedules for node removal, and the end-to-end orchestrator.

Both coded variants first split the r affected segments (see removal_split),
then move every piece with XOR broadcasts plus two small uncoded corner
batches, and finally merge (see removal_merge). removal_slots gives each
schedule as data, slots built from the split plan alone with no database;
bus.encoded cuts their payloads.

Scheme 1 chains adjacent pieces: r-1 coded broadcasts, each XORing the two
pieces of one regrown target, the opening piece of one affected segment and
the closing piece of the next. Cheap when replication is small.

Scheme 2 groups pieces into K-r classes; class i has the nominal size
(K+r-2i) half units, and the two sender nodes each transmit one slot per
class, XORing the pieces whose segment indices are K-r apart. A class with
no pieces (i >= r) still transmits a zero-filled slot of its nominal size,
and the 2(K-r) slots sum to the closed form (K-r)(2r-1)/(K-1). With large
replication every slot is a real XOR and the scheme beats scheme 1. The
nominal size is negative for i > (K+r)/2, which happens whenever r < K/3:
such a filler slot is logged with a negative atom count, and the measured
load equals the closed form there only because those negative sizes are
summed in (at (12,3) classes 8 and 9 each send two fillers, of -13 and -39
atoms). What scheme 2 should send there is an open question; auto picks
scheme 2 at no such (K, r).

The uncoded baseline rebroadcasts each affected segment whole.

make_removal_plan turns one split into a ChangePlan, the plan record an
addition uses too: the schedule, the K-1 targets in canonical survivor
labels, and the survivor each label stands for. rebalance_remove runs it end
to end and returns a ChangeRun; verify.verify_change checks the result
against the plan's recipes.

Where no survivor deviates from the certified layout, certified_groups
encodes and delivers in one pass, each operand's cut both in its payload
and, as its receivers' piece, in the merge; any other input is encoded whole
and decoded by decode_groups, receiver by receiver.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from . import analytics
from .analytics import LoadReport
from .bus import Broadcast, Slot, TransmissionLog, decode_at_node, encode, encoded
from .errors import ParameterError
from .model import (
    Database,
    SubsegmentLabel,
    SystemParams,
    cyclic_refs,
    slice_atoms,
)
from .removal_merge import (
    AtomRange,
    ChangePlan,
    ChangeRun,
    DecodeGroup,
    build_merge_recipes,
    merge,
)
from .removal_split import SplitPlan, actual_survivors, make_split_plan

# the CLI's --scheme choices; removal_slots rejects any other scheme
SCHEME_CHOICES = ("auto", "scheme1", "scheme2", "uncoded")


def removal_slots(plan: SplitPlan, scheme: str) -> list[Slot]:
    """One removal's schedule under scheme1, scheme2 or uncoded, from the plan alone."""
    params, actual = plan.params, plan.actual
    k, r = params.n_nodes, params.replication
    node1, node_last = actual[1], actual[k - 1]
    slots = []
    if scheme == "uncoded":
        # canonical segment c is held by canonical c..K and 1..c+r-1-K, so the
        # survivors c+r-K..c-1 need it; the lowest-labeled surviving holder
        # rebroadcasts it whole
        removed, atoms = actual[k], params.segment_atoms
        for c in range(k - r + 1, k + 1):
            needing = actual_survivors(c + r - k, c, removed, k)
            held = actual_survivors(c, k, removed, k) + actual_survivors(1, c + r - k, removed, k)
            label = SubsegmentLabel(actual[c], needing, 0, atoms)
            slots.append((min(held), "uncoded", (label,), atoms))
        return slots
    openings, closings = plan.openings, plan.closings
    if scheme == "scheme1":
        # broadcast i carries target K-r+1+i: its opening piece and its closing
        # one; node K-1 sends the lowest target's last
        for i in [*range(1, r - 1), 0]:
            ops = (openings[i], closings[i])
            slots.append((node1 if i else node_last, "coded", ops,
                          max(ops[0].size_atoms, ops[1].size_atoms)))
    elif scheme == "scheme2":
        gap = k - r
        for i in range(1, gap + 1):
            nominal = (k + r - 2 * i) * params.half_unit_atoms
            # segment indices K-r apart: closings walking down from K, openings
            # up from K-r+1; a class with i >= r carries no pieces
            ops_high = closings[r - 1 - i::-gap] if i < r else ()
            slots.append((node1, "coded", ops_high, nominal))
            slots.append((node_last, "coded", openings[i - 1::gap], nominal))
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")
    # corner batches: node 1 clears the high corner's small pieces, node K-1 the low corner's
    for sender, corner in ((node1, plan.high_corner), (node_last, plan.low_corner)):
        for lab in corner.broadcast_batch():
            slots.append((sender, "uncoded", (lab,), lab.size_atoms))
    return slots


def run_scheme1(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Adjacent-pair XOR schedule: r-1 coded broadcasts plus corner batches."""
    return encode(db, removal_slots(plan, "scheme1"))


def run_scheme2(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Strided-class XOR schedule: 2(K-r) fixed-size slots plus corner batches."""
    return encode(db, removal_slots(plan, "scheme2"))


def run_uncoded_removal(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Baseline: the lowest-labeled surviving holder rebroadcasts each segment whole."""
    return encode(db, removal_slots(plan, "uncoded"))


def _receivers(ops: tuple[SubsegmentLabel, ...]) -> list[tuple[int, int]]:
    """(node, operand index) for every node named in exactly one of ops, by node."""
    mine: dict[int, int | None] = {}
    for i, op in enumerate(ops):
        for node in op.superscript:
            mine[node] = None if node in mine else i
    return sorted((node, i) for node, i in mine.items() if i is not None)


def decode_groups(db: Database, log: TransmissionLog) -> Iterator[DecodeGroup]:
    """Decode every broadcast receiver by receiver, and yield each decode as
    (range, nodes, bits, False) in decode order: by broadcast, then by node.

    decode_at_node runs at each node named in one operand alone of a
    broadcast of several (a missing base fails there). A one-operand
    broadcast strips nothing: its payload cut to the piece (a payload that
    fits is that very int) goes to all its nodes at once. range is the
    piece's (origin, atom start, atom stop), nodes its receivers, ascending.
    A generator: a decoded int the consumer does not keep dies with it.
    """
    w = db.params.atom_bits
    for b in log.broadcasts:
        ops = b.operands
        if len(ops) == 1:
            # nothing to strip: the payload, cut to the piece, is the piece
            op = ops[0]
            if op.superscript:
                bits = slice_atoms(b.payload, 0, op.size_atoms, w)
                yield (op.base, op.atom_start, op.atom_stop), sorted(op.superscript), bits, False
            continue
        for node, _ in _receivers(ops):
            label, bits = decode_at_node(db, node, b)
            yield (label.base, label.atom_start, label.atom_stop), [node], bits, False


def certified_groups(
    db: Database, slots: Iterable[Slot], broadcasts: list[Broadcast]
) -> Iterator[DecodeGroup]:
    """Encode slots and deliver them in one pass over a layout in which no
    sender or receiver deviates: append each broadcast to broadcasts, and
    yield decode_groups' stream with each receiver's operand as (range,
    nodes, cut, True), the cut bus.encoded made.

    A receiver that stores every other operand's base, where node m stores
    segment b iff (m - b) mod n < r, would decode exactly that cut by XOR
    linearity; one that lacks a base goes to decode_at_node, which fails
    there as decode_groups does. bus.encoded checks every slot before its
    first yield, so its ProtocolViolationError comes first.
    """
    n, r = db.params.n_nodes, db.params.replication
    for b, cuts in encoded(db, slots):
        broadcasts.append(b)
        ops = b.operands
        if len(ops) == 1:
            op = ops[0]
            if op.superscript:
                yield (op.base, op.atom_start, op.atom_stop), sorted(op.superscript), cuts[0], True
            continue
        for node, i in _receivers(ops):
            if all((node - other.base) % n < r for j, other in enumerate(ops) if j != i):
                op = ops[i]
                yield (op.base, op.atom_start, op.atom_stop), [node], cuts[i], True
            else:
                label, bits = decode_at_node(db, node, b)
                yield (label.base, label.atom_start, label.atom_stop), [node], bits, False


def deliver(
    db: Database, log: TransmissionLog, plan: object
) -> dict[AtomRange, dict[int, int]]:
    """Every decode of log folded by atom range: each decoded range (origin,
    atom start, atom stop) maps to {node: bits}, both in first-decode order,
    a node keeping the first piece it decodes of a range. Receivers of equal
    pieces of one range share one int, found by identity and then ==, never
    by hash, which costs time linear in a big int's size. The pipelines
    stream decode_groups into the merge instead of holding this dict. plan
    is unused; the benchmark harness (benchmark/harness.py) passes it.
    """
    received: dict[AtomRange, dict[int, int]] = {}
    for key, nodes, bits, _ in decode_groups(db, log):
        got = received.get(key)
        if got is None:
            received[key] = dict.fromkeys(nodes, bits)
            continue
        for prior in got.values():
            if prior is bits or prior == bits:
                bits = prior
                break
        for node in nodes:
            got.setdefault(node, bits)
    return received


def make_removal_plan(params: SystemParams, removed: int, scheme: str) -> ChangePlan:
    """One removal as a ChangePlan: the schedule of scheme, the merge recipes
    and the survivor labels, all from one split. scheme "auto" picks the
    cheaper coded variant, once the split has accepted the parameters."""
    split = make_split_plan(params, removed)
    if scheme == "auto":
        scheme = analytics.choose_scheme(params.n_nodes, params.replication)
    slots = tuple(removal_slots(split, scheme))
    recipes = build_merge_recipes(params, split)
    return ChangePlan(scheme, slots, recipes, split.actual[: params.n_nodes])


def rebalance_remove(db: Database, removed: int, scheme: str = "auto") -> ChangeRun:
    """Run the full removal pipeline: split, broadcast, decode, merge.

    scheme "auto" picks the cheaper coded variant. One layout certificate
    serves the merge and picks the delivery, by the merge's own predicate:
    certified_groups when no survivor deviates (the removed node neither
    sends nor receives), else the whole log encoded and decoded by
    decode_groups."""
    if db.generation != "original":
        raise ParameterError("removal runs on an original-layout database")
    params = db.params
    plan = make_removal_plan(params, removed, scheme)
    certificate = cyclic_refs(db.contents, params.n_nodes, params.replication)
    # decoded pieces stream into the merge: no dict of them all is built
    if certificate[1].isdisjoint(plan.actual[1:]):
        broadcasts: list[Broadcast] = []
        groups = certified_groups(db, plan.slots, broadcasts)
        final = merge(db, plan.actual, plan.recipes, groups, True, certificate)
        log = TransmissionLog(params, broadcasts)
    else:
        log = encode(db, plan.slots)
        final = merge(db, plan.actual, plan.recipes, decode_groups(db, log), True, certificate)
    return ChangeRun(final, log, LoadReport(params, plan.scheme, log.load), plan)

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

Where no survivor deviates from the certified layout, rebalance_remove
makes one loop over bus.encoded: it keeps each broadcast, keeps each
operand's cut as the piece its receivers decode, records who decodes what
from the slots alone, and assembles the targets in the merge's certified
half. Any other input, and any miss of that loop, is encoded whole, decoded
by decode_groups receiver by receiver and folded by removal_merge.merge.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import analytics
from .bus import Slot, TransmissionLog, decode_at_node, encode, encoded
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    cyclic_layout,
    cyclic_refs,
    slice_atoms,
)
from .removal_merge import (
    AtomRange,
    ChangePlan,
    ChangeRun,
    DecodeGroup,
    _certified_pieces,
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


def _receivers(ops: tuple[SubsegmentLabel, ...]) -> list[int]:
    """Every node named in exactly one of ops, ascending."""
    once: dict[int, bool] = {}
    for op in ops:
        for node in op.superscript:
            once[node] = node not in once
    return sorted(node for node, alone in once.items() if alone)


def decode_groups(db: Database, log: TransmissionLog) -> Iterator[DecodeGroup]:
    """Decode every broadcast receiver by receiver, and yield each decode as
    (range, nodes, bits) in decode order: by broadcast, then by node.

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
                yield (op.base, op.atom_start, op.atom_stop), sorted(op.superscript), bits
            continue
        for node in _receivers(ops):
            label, bits = decode_at_node(db, node, b)
            yield (label.base, label.atom_start, label.atom_stop), [node], bits


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
    for key, nodes, bits in decode_groups(db, log):
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
    picks the path. When no survivor deviates (the removed node neither sends
    nor receives), _certified_run encodes, delivers and assembles in one loop
    over the slots. On a miss there, or on any other layout, the plain path
    encodes the whole log, decodes it receiver by receiver (decode_groups)
    and merges the stream, which raises each failure where it lies."""
    if db.generation != "original":
        raise ParameterError("removal runs on an original-layout database")
    params = db.params
    plan = make_removal_plan(params, removed, scheme)
    certificate = cyclic_refs(db.contents, params.n_nodes, params.replication)
    done = None
    if certificate[1].isdisjoint(plan.actual[1:]):
        done = _certified_run(db, plan, certificate[0])
    if done is None:
        log = encode(db, plan.slots)
        # decoded pieces stream into the merge: no dict of them all is built
        final = merge(db, plan.actual, plan.recipes, decode_groups(db, log), certificate)
    else:
        log, final = done
    return ChangeRun(final, log, plan)


def _certified_run(
    db: Database, plan: ChangePlan, refs: list[StoredPiece | None]
) -> tuple[TransmissionLog, Database] | None:
    """plan's log and final database on a layout where no survivor deviates,
    from one loop over bus.encoded, or None on a miss.

    Each operand that reaches a survivor gets the merge's record of its
    range, the mask of its receivers' holder labels, with encode's cut as
    the piece. The decode rule is decode_groups': a one-operand slot reaches
    its whole superscript, survivors only, and a node named in one operand
    alone of a coded slot takes that operand, by XOR linearity encode's cut,
    when it stores every other operand's base (node m stores segment b iff
    (m - b) mod n < r). A miss is a sender, or a coded slot's receiver, that
    is no survivor, a receiver that lacks a base, or a coverage miss in
    _certified_pieces. A sender without an operand's base raises, as in encode.
    """
    params = db.params
    n, r = params.n_nodes, params.replication
    position = dict(zip(plan.actual[1:], range(1, n)))
    bit = {node: 1 << holder for node, holder in position.items()}
    broadcasts = []
    # the merge's fold: origin -> [(start, stop, [mask, {}])], the same
    # records by range, and encode's cut of each range as its piece
    decoded: dict[int, list[tuple[int, int, list]]] = {}
    ranges: dict[AtomRange, list] = {}
    cuts_by_range: dict[AtomRange, int] = {}
    for b, cuts in encoded(db, plan.slots):
        if b.sender not in bit:
            return None
        broadcasts.append(b)
        ops = b.operands
        named = [node for op in ops for node in op.superscript] if len(ops) > 1 else None
        for i, (base, superscript, start, stop) in enumerate(ops):
            mask = 0
            if named is None:
                for node in superscript:
                    mask |= bit.get(node, 0)
            else:
                others = [op.base for op in ops[:i] + ops[i + 1 :]]
                for node in superscript:
                    # a node named in two operands strips nothing
                    if named.count(node) > 1:
                        continue
                    mine = bit.get(node)
                    if mine is None:
                        return None
                    for other in others:
                        if (node - other) % n >= r:
                            return None
                    mask |= mine
            if not mask:
                continue
            key = (base, start, stop)
            got = ranges.get(key)
            if got is None:
                ranges[key] = got = [mask, {}]
                decoded.setdefault(base, []).append((start, stop, got))
                cuts_by_range[key] = cuts[i]
            else:
                got[0] |= mask
    pieces = _certified_pieces(params, position, plan.recipes, decoded, refs, cuts_by_range)
    if pieces is None:
        return None
    return TransmissionLog(params, broadcasts), Database(params, n - 1, cyclic_layout(pieces, r))

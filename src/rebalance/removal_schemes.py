"""Broadcast schedules for node removal, and the end-to-end orchestrator.

Both coded variants first split the r affected segments (see removal_split),
then move every piece with XOR broadcasts plus two small uncoded corner
batches, and finally merge (see removal_merge). removal_slots gives each
schedule as data, slots built from the split plan alone with no database;
bus.encode cuts their payloads.

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

decode_groups delivers a log as a stream of receiver groups; on a certified
input it checks each broadcast once against the references instead of
decoding it per group.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import analytics
from .analytics import LoadReport
from .bus import Slot, TransmissionLog, decode_at_node, encode
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
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

# the id a group key holds for a base its node does not store
_NO_PIECE = id(None)

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


def decode_groups(
    db: Database,
    log: TransmissionLog,
    certificate: tuple[list[StoredPiece | None], set[int]] | None = None,
) -> Iterator[DecodeGroup]:
    """Decode every broadcast of several operands once per receiver group, and
    yield each decode as (range, nodes, bits, agrees) in decode order.

    Addressed nodes that want the same operand and store the same pieces for
    the other operands strip the same bits, so they form one group, and
    decode_at_node runs once at the group's lowest node (a missing base fails
    there). A one-operand broadcast strips nothing: its payload, cut to the
    piece's atoms as decode_at_node would cut it, is the piece (a payload
    that fits is that very int), and it goes to every addressed node with no
    decode and no look at what they store. range is the decoded piece's
    (origin, atom start, atom stop) and nodes its receivers, ascending.

    certificate is cyclic_refs(db.contents, n, r) when the caller has it.
    When it names no deviating node, every node stores its window of the
    references, so each broadcast is checked once: its operands are cut from
    the references and XORed as bus.encode does, and the result compared with
    the payload (a one-operand payload with its reference cut). If they are
    equal, XOR linearity and decode_at_node's truncation to the piece make
    every receiver group's decode that operand's reference cut: the group is
    yielded with that cut and agrees True, and nothing is decoded. A
    broadcast that fails the check, a group whose node lacks a base (so
    DecodeFailureError names it), and every group without a certified
    certificate take the per-group decode, with agrees False; merge then
    compares them with the references itself.

    A generator: a decoded int is made when its group is asked for, and what
    the consumer does not keep dies with its group. removal_merge.merge
    consumes the stream as it comes for both membership changes; deliver
    folds it into a dict.
    """
    w = db.params.atom_bits
    refs = certificate[0] if certificate is not None and not certificate[1] else None
    for b in log.broadcasts:
        ops = b.operands
        if len(ops) == 1:
            # nothing to strip: the payload, cut to the piece, is the piece
            op = ops[0]
            if op.superscript:
                bits = slice_atoms(b.payload, 0, op.size_atoms, w)
                agrees = refs is not None and bits == slice_atoms(
                    refs[op.base - 1].bits, op.atom_start, op.atom_stop, w
                )
                yield (op.base, op.atom_start, op.atom_stop), sorted(op.superscript), bits, agrees
            continue
        cuts = None
        if refs is not None and ops:
            # the payload again, from the references
            cuts = [slice_atoms(refs[op.base - 1].bits, op.atom_start, op.atom_stop, w) for op in ops]
            payload = cuts[0]
            for cut in cuts[1:]:
                payload ^= cut
            if payload != b.payload:
                cuts = None
        # (operand index, ids of the node's pieces of the others' bases) ->
        # nodes, ascending, so the groups come in order of their lowest node
        groups: dict[tuple, list[int]] = {}
        # addressed node -> (index of its operand, bases of the others), or
        # None when named in several operands
        wants: dict[int, tuple[int, list[int]] | None] = {}
        for i, op in enumerate(ops):
            strip = (i, [other.base for other in ops if other is not op])
            for node in op.superscript:
                wants[node] = None if node in wants else strip
        for node in sorted(wants):
            strip = wants[node]
            if strip is not None:
                stored = db.contents.get(node, {})
                key = (strip[0], *[id(stored.get(base)) for base in strip[1]])
                groups.setdefault(key, []).append(node)
        for key, nodes in groups.items():
            # a checked broadcast's group decodes to its operand's reference
            # cut, unless the group lacks a base: an operand index is never
            # the id of None
            if cuts is not None and _NO_PIECE not in key:
                op = ops[key[0]]
                yield (op.base, op.atom_start, op.atom_stop), nodes, cuts[key[0]], True
                continue
            label, bits = decode_at_node(db, nodes[0], b)
            yield (label.base, label.atom_start, label.atom_stop), nodes, bits, False


def deliver(
    db: Database, log: TransmissionLog, plan: object
) -> dict[AtomRange, dict[int, int]]:
    """Every decode of log folded by atom range: each decoded range (origin,
    atom start, atom stop) is one key, in first-decode order, mapped to
    {node: bits} in first-decode order, from decode_groups.

    A node keeps the first piece it decodes of a range. Receivers of equal
    pieces of one range share one int, found by identity and then ==, never
    by hash: CPython hashes a big int in time linear in its size. The dict
    holds every decoded int until its caller drops it, so the pipelines
    stream decode_groups into the merge instead; apply_merge and
    removal_merge.merge accept the dict too. plan, a removal's SplitPlan or
    a ChangePlan, is unused; it stays only because the benchmark harness
    (benchmark/harness.py) passes it, and goes with the next change there.
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
    serves delivery and the merge, so a clean removal decodes nothing.
    """
    if db.generation != "original":
        raise ParameterError("removal runs on an original-layout database")
    params = db.params
    plan = make_removal_plan(params, removed, scheme)
    log = encode(db, plan.slots)
    certificate = cyclic_refs(db.contents, params.n_nodes, params.replication)
    # decoded pieces stream into the merge: no dict of them all is built
    groups = decode_groups(db, log, certificate)
    final = merge(db, plan.actual, plan.recipes, groups, True, certificate)
    return ChangeRun(final, log, LoadReport(params, plan.scheme, log.load), plan)

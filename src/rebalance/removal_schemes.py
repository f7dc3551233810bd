"""Broadcast schedules for node removal, and the end-to-end orchestrator.

Both coded variants first split the r affected segments (see removal_split),
then move every piece with XOR broadcasts plus two small uncoded corner
batches, and finally merge (see removal_merge).

Scheme 1 chains adjacent pieces: r-1 coded broadcasts, each XORing the two
pieces of one regrown target, the opening piece of one affected segment and
the closing piece of the next. Cheap when replication is small.

Scheme 2 groups pieces into K-r classes of uniform nominal size; the two
sender nodes each transmit one slot per class, XORing the pieces whose
segment indices are K-r apart. Classes with no pieces still transmit a
zero-filled slot of the nominal size, which keeps the cost at the closed form
(K-r)(2r-1)/(K-1) for every replication; with large replication every slot is
a real XOR and the scheme beats scheme 1.

The uncoded baseline rebroadcasts each affected segment whole.

rebalance_remove runs one removal end to end and returns a ChangeRun, the
record an addition returns too: its recipes are the K-1 targets the merge
built, and verify.verify_change checks the result against them.
"""

from __future__ import annotations

from . import analytics
from .analytics import LoadReport
from .bus import (
    TransmissionLog,
    broadcast_class,
    broadcast_uncoded,
    broadcast_xor,
    decode_at_node,
)
from .errors import ParameterError
from .model import Database, SubsegmentLabel, storage_set
from .removal_merge import ChangeRun, apply_merge, build_merge_recipes
from .removal_split import SplitPlan, make_split_plan

SCHEME_CHOICES = ("auto", "scheme1", "scheme2", "uncoded")


def _corner_batches(db: Database, plan: SplitPlan, log: TransmissionLog) -> None:
    # node 1 clears the high corner's small pieces, node K-1 the low corner's
    node1 = plan.to_actual(1)
    node_last = plan.to_actual(plan.params.n_nodes - 1)
    for label in plan.high_corner.broadcast_batch():
        log.emit(broadcast_uncoded(db, node1, label))
    for label in plan.low_corner.broadcast_batch():
        log.emit(broadcast_uncoded(db, node_last, label))


def run_scheme1(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Adjacent-pair XOR schedule: r-1 coded broadcasts plus corner batches."""
    k, r = plan.params.n_nodes, plan.params.replication
    log = TransmissionLog(plan.params)
    node1 = plan.to_actual(1)
    node_last = plan.to_actual(k - 1)
    # broadcast s carries target s: the opening piece of s, the closing one of s+1
    for s in range(k - r + 2, k):
        log.emit(broadcast_xor(db, node1, (plan.opening(s), plan.closing(s + 1))))
    low = k - r + 1
    log.emit(broadcast_xor(db, node_last, (plan.opening(low), plan.closing(low + 1))))
    _corner_batches(db, plan, log)
    return log


def run_scheme2(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Strided-class XOR schedule: 2(K-r) fixed-size slots plus corner batches."""
    k, r = plan.params.n_nodes, plan.params.replication
    gap = k - r
    hu = plan.params.half_unit_atoms
    log = TransmissionLog(plan.params)
    node1 = plan.to_actual(1)
    node_last = plan.to_actual(k - 1)
    for i in range(1, gap + 1):
        nominal = (k + r - 2 * i) * hu
        steps = (r - 1 - i) // gap  # below 0 means the class carries no pieces
        # segment indices K-r apart: walking down from K, and up from K-r+1
        ops_high = tuple([plan.closing(k + 1 - i - j * gap) for j in range(steps + 1)])
        ops_low = tuple([plan.opening(k - r + i + j * gap) for j in range(steps + 1)])
        log.emit(broadcast_class(db, node1, ops_high, nominal))
        log.emit(broadcast_class(db, node_last, ops_low, nominal))
    _corner_batches(db, plan, log)
    return log


def run_uncoded_removal(db: Database, plan: SplitPlan) -> TransmissionLog:
    """Baseline: the lowest-labeled surviving holder rebroadcasts each segment whole."""
    params = plan.params
    k, r = params.n_nodes, params.replication
    log = TransmissionLog(params)
    survivors = set(range(1, k + 1)) - {plan.removed}
    for canonical in range(k - r + 1, k + 1):
        actual = plan.to_actual(canonical)
        holders = storage_set(actual, k, r) - {plan.removed}
        sender = min(holders)
        needing = sorted(survivors - storage_set(actual, k, r))
        label = SubsegmentLabel(
            base=actual,
            superscript=tuple(needing),
            atom_start=0,
            atom_stop=params.segment_atoms,
        )
        log.emit(broadcast_uncoded(db, sender, label))
    return log


def deliver(
    db: Database, log: TransmissionLog, plan: object
) -> dict[tuple[int, int, int, int], list[int]]:
    """Decode every broadcast once per receiver group; map each piece to its receivers.

    Addressed nodes that want the same operand and store the same pieces for
    the other operands strip the same bits, so they form one group, and
    decode_at_node runs once at the group's lowest node (a missing base fails
    there). A one-operand broadcast strips nothing, so its addressed nodes
    are one group, found without a look at what they store. Each distinct
    decoded piece (origin, atom start, atom stop, bits) is one key, mapped to
    the nodes that decoded it, in first-decode order. The key interns the
    bits, so receivers of equal pieces share one int.

    Both membership changes deliver their logs here: a removal's output feeds
    apply_merge, and a damaged addition's feeds removal_merge.merge. plan, a
    removal's SplitPlan or an addition's AdditionPlan, is unused; it stays
    only because the benchmark harness (benchmark/harness.py) passes it, and
    goes with the next change there.
    """
    received: dict[tuple[int, int, int, int], list[int]] = {}
    for b in log.broadcasts:
        ops = b.operands
        # (operand index, ids of the node's pieces of the others' bases) -> nodes,
        # ascending, so the groups come in order of their lowest node
        groups: dict[tuple, list[int]] = {}
        if len(ops) == 1:
            # nothing to strip: the addressed nodes are one group
            if ops[0].superscript:
                groups[()] = sorted(ops[0].superscript)
        else:
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
        for nodes in groups.values():
            label, bits = decode_at_node(db, nodes[0], b)
            key = (label.base, label.atom_start, label.atom_stop, bits)
            received.setdefault(key, []).extend(nodes)
    return received


def rebalance_remove(db: Database, removed: int, scheme: str = "auto") -> ChangeRun:
    """Run the full removal pipeline: split, broadcast, decode, merge.

    scheme "auto" picks the cheaper coded variant.
    """
    if db.generation != "original":
        raise ParameterError("removal runs on an original-layout database")
    if scheme not in SCHEME_CHOICES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    params = db.params
    plan = make_split_plan(params, removed)
    if scheme == "auto":
        scheme = analytics.choose_scheme(params.n_nodes, params.replication)

    if scheme == "scheme1":
        log = run_scheme1(db, plan)
    elif scheme == "scheme2":
        log = run_scheme2(db, plan)
    else:
        log = run_uncoded_removal(db, plan)

    received = deliver(db, log, plan)
    recipes = build_merge_recipes(params, plan)
    final = apply_merge(db, plan, recipes, received)
    report = LoadReport(params, scheme, log.load)
    return ChangeRun(final=final, log=log, report=report, plan=plan, recipes=recipes)

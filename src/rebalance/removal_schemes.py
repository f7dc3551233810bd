"""Broadcast schedules for node removal, and the end-to-end orchestrator.

Both coded variants first split the r affected segments (see removal_split),
then move every piece with XOR broadcasts plus two small uncoded corner
batches, and finally merge (see removal_merge).

Scheme 1 chains adjacent pieces: r-1 coded broadcasts, each XORing the
leading piece of one affected segment with the trailing piece of the next.
Cheap when replication is small.

Scheme 2 groups pieces into K-r classes of uniform nominal size; the two
sender nodes each transmit one slot per class, XORing the pieces whose
segment indices are K-r apart. Classes with no pieces still transmit a
zero-filled slot of the nominal size, which keeps the cost at the closed form
(K-r)(2r-1)/(K-1) for every replication; with large replication every slot is
a real XOR and the scheme beats scheme 1.

The uncoded baseline rebroadcasts each affected segment whole.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .model import Database, SegmentLabel, SubsegmentLabel, storage_set
from .removal_merge import MergeRecipe, ReceivedPiece, apply_merge, build_merge_recipes
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
    for i in range(2, r):
        first = plan.middles[i - 2][0]
        second = plan.high_corner.big if i == r - 1 else plan.middles[i - 1][1]
        log.emit(broadcast_xor(db, node1, (first, second)))
    log.emit(broadcast_xor(db, node_last, (plan.low_corner.big, plan.middles[0][1])))
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
        ops_high: list[SubsegmentLabel] = []
        ops_low: list[SubsegmentLabel] = []
        for j in range(0, steps + 1):
            sub_high = k + 1 - i - j * gap  # segment index, walks down from K
            ops_high.append(
                plan.high_corner.big
                if sub_high == k
                else plan.middles[sub_high - (k - r + 1) - 1][1]
            )
            sub_low = k - r + i + j * gap  # walks up from K-r+1
            ops_low.append(
                plan.low_corner.big
                if sub_low == k - r + 1
                else plan.middles[sub_low - (k - r + 1) - 1][0]
            )
        log.emit(broadcast_class(db, node1, tuple(ops_high), nominal))
        log.emit(broadcast_class(db, node_last, tuple(ops_low), nominal))
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
            base=SegmentLabel(actual),
            superscript=tuple(needing),
            atom_start=0,
            atom_stop=params.segment_atoms,
        )
        log.emit(broadcast_uncoded(db, sender, label))
    return log


def deliver(db: Database, log: TransmissionLog, plan: SplitPlan) -> dict[int, list[ReceivedPiece]]:
    """Decode every broadcast at every addressed node; collect what each learned.

    Equal decoded pieces are interned by value, so receivers that decode the
    same operand hold one int and the merge can share their replicas.
    """
    received: dict[int, list[ReceivedPiece]] = {}
    interned: dict[int, int] = {}
    for b in log.broadcasts:
        addressed = sorted({n for op in b.operands for n in op.superscript})
        for node in addressed:
            got = decode_at_node(db, node, b)
            if got is None:
                continue
            label, bits = got
            bits = interned.setdefault(bits, bits)
            received.setdefault(node, []).append(
                (label.base.index, label.atom_start, label.atom_stop, bits)
            )
    return received


@dataclass
class RemovalRun:
    """Everything produced by one removal: final state, traffic, loads, protocol metadata."""

    final: Database
    log: TransmissionLog
    report: LoadReport
    plan: SplitPlan
    recipes: tuple[MergeRecipe, ...]


def rebalance_remove(
    db: Database,
    removed: int,
    scheme: str = "auto",
    strict: bool = True,
    tamper_log=None,
) -> RemovalRun:
    """Run the full removal pipeline: split, broadcast, decode, merge.

    scheme "auto" picks the cheaper coded variant. tamper_log, if given, maps
    the transmission log to a modified one before delivery; fault-injection
    tests use it together with strict=False.
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

    if tamper_log is not None:
        log = tamper_log(log)

    received = deliver(db, log, plan)
    recipes = build_merge_recipes(params, plan)
    final = apply_merge(db, plan, recipes, received, strict=strict)
    report = analytics.removal_report(params, scheme, log.load)
    return RemovalRun(final=final, log=log, report=report, plan=plan, recipes=recipes)

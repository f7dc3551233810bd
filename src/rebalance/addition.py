"""Node addition: shrink every segment and build the new node's segment.

Each of the K segments gives up its trailing T/(K+1) atoms; those small
parts, broadcast by their first holder and concatenated in segment order,
form the new segment stored on the new node K+1 and on nodes 1..r-1. The
kept leading parts stay in place except where the cyclic layout over K+1
nodes now points at the new node: segments K-r+2..K ship their kept part to
it, and nodes 1..r-1 each discard one kept part they no longer need.

Total traffic is rK/(K+1) segments, which meets the lower bound exactly, so
no coding is needed anywhere.

Replicas share storage: each kept leading part is cut once per distinct
stored int, so the old holders of a segment hold one int, not one copy each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import analytics
from .analytics import LoadReport
from .bus import TransmissionLog, broadcast_uncoded
from .errors import MergeFailureError, ParameterError
from .model import (
    Database,
    Label,
    SegmentLabel,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    cyclic_range,
    slice_atoms,
)


@dataclass(frozen=True)
class AdditionPlan:
    """Cut points and movements for one node addition."""

    params: SystemParams
    kept: tuple[SubsegmentLabel, ...]  # per segment: leading K/(K+1), stays replicated
    small: tuple[SubsegmentLabel, ...]  # per segment: trailing 1/(K+1), broadcast
    shipped: tuple[int, ...]  # segments whose kept part also goes to the new node
    discards: tuple[tuple[int, int], ...]  # (node, segment) kept parts dropped


def make_addition_plan(params: SystemParams) -> AdditionPlan:
    params.validate()
    k, r = params.n_nodes, params.replication
    seg_atoms = params.segment_atoms
    kept_atoms = seg_atoms * k // (k + 1)
    kept = []
    small = []
    for i in range(1, k + 1):
        kept.append(
            SubsegmentLabel(
                base=SegmentLabel(i),
                superscript=(k + 1,) if i >= k - r + 2 else (),
                atom_start=0,
                atom_stop=kept_atoms,
            )
        )
        # addressed to the new node plus the old nodes that precede segment i
        sup = tuple(range(1, min(r - 1, i - 1) + 1)) + (k + 1,)
        small.append(
            SubsegmentLabel(
                base=SegmentLabel(i),
                superscript=sup,
                atom_start=kept_atoms,
                atom_stop=seg_atoms,
            )
        )
    shipped = tuple(range(k - r + 2, k + 1))
    discards = tuple((i, k - r + 1 + i) for i in range(1, r))
    return AdditionPlan(
        params=params,
        kept=tuple(kept),
        small=tuple(small),
        shipped=shipped,
        discards=discards,
    )


@dataclass
class AdditionRun:
    """Everything produced by one addition run."""

    final: Database
    log: TransmissionLog
    report: LoadReport
    plan: AdditionPlan


def rebalance_add(db: Database) -> AdditionRun:
    """Run the full addition pipeline and return the K+1 node database."""
    if db.generation != "original":
        raise ParameterError("addition runs on an original-layout database")
    params = db.params
    k, r = params.n_nodes, params.replication
    w = params.atom_bits
    plan = make_addition_plan(params)
    log = TransmissionLog(params)

    small_payload: dict[int, int] = {}
    for i in range(1, k + 1):
        b = broadcast_uncoded(db, i, plan.small[i - 1])
        log.emit(b)
        small_payload[i] = b.payload
    kept_payload: dict[int, int] = {}
    for i in plan.shipped:
        b = broadcast_uncoded(db, i, plan.kept[i - 1])
        log.emit(b)
        kept_payload[i] = b.payload

    kept_atoms = plan.kept[0].size_atoms
    small_atoms = plan.small[0].size_atoms
    contents: dict[int, dict[Label, StoredPiece]] = {n: {} for n in range(1, k + 2)}
    for i in range(1, k + 1):
        label = SegmentLabel(i, "target")
        # the kept part is cut once per distinct stored int and shared
        cut: dict[int, int] = {}
        for node in cyclic_range(i, r, k + 1):
            if node == k + 1:
                bits = kept_payload[i]
            else:
                local = db.segment_bits_at(node, i)
                # every old node in the new layout of W_i already held W_i
                if local is None:
                    raise MergeFailureError(
                        f"node {node} does not hold segment {i} to keep its leading part"
                    )
                if id(local) not in cut:
                    cut[id(local)] = slice_atoms(local, 0, kept_atoms, w)
                bits = cut[id(local)]
            contents[node][label] = StoredPiece(
                label=label,
                n_atoms=kept_atoms,
                bits=bits,
                provenance=((i, 0, kept_atoms),),
            )

    new_label = SegmentLabel(k + 1, "target")
    prov = tuple((i, kept_atoms, kept_atoms + small_atoms) for i in range(1, k + 1))
    for node in cyclic_range(k + 1, r, k + 1):
        bits = 0
        for i in range(1, k + 1):
            local = db.segment_bits_at(node, i)
            if local is not None:
                part = slice_atoms(local, kept_atoms, kept_atoms + small_atoms, w)
            else:
                part = small_payload[i]
            bits |= part << ((i - 1) * small_atoms * w)
        contents[node][new_label] = StoredPiece(
            label=new_label,
            n_atoms=k * small_atoms,
            bits=bits,
            provenance=prov,
        )

    final = Database(
        params=params,
        seed=db.seed,
        n_nodes=k + 1,
        generation="target",
        segment_atoms=kept_atoms,
        contents=contents,
    )
    report = analytics.addition_report(params, log.load)
    return AdditionRun(final=final, log=log, report=report, plan=plan)


def addition_lower_bound(params: SystemParams) -> Fraction:
    """Minimum possible traffic for adding one node: rK/(K+1) segments."""
    return analytics.addition_load(params.n_nodes, params.replication)

"""Node addition: shrink every segment and build the new node's segment.

Each of the K segments gives up its trailing T/(K+1) atoms; those small
parts, broadcast by their first holder and concatenated in segment order,
form the new segment stored on the new node K+1 and on nodes 1..r-1. The
kept leading parts stay in place except where the cyclic layout over K+1
nodes now points at the new node: segments K-r+2..K ship their kept part to
it, and nodes 1..r-1 each discard one kept part they no longer need.

Total traffic is rK/(K+1) segments, which meets the lower bound exactly, so
no coding is needed anywhere.

The layout is certified once, then built per segment, not per replica. When
cyclic_refs finds every old holder of W_i storing node i's piece (the piece
both broadcasts of W_i were cut from), each kept part is cut once, the new
segment is assembled once from the broadcast trailers, and cyclic_layout
places each of the K+1 pieces at all its r holders as one shared object.
Any other input, such as a missing or damaged replica, is delivered and
merged by the removal's walk (removal_merge.merge_by_walk) against the
recipes of addition_expected_layout, under the removal's source rule: a
holder takes each part from its own stored segment, else from the first
broadcast that covers it and lists the holder. Only the walk raises
MergeFailureError.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analytics, removal_merge
from .analytics import LoadReport
from .bus import TransmissionLog, broadcast_uncoded
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    concat_bits,
    cyclic_layout,
    cyclic_range,
    cyclic_refs,
)
from .removal_merge import MergeRecipe
from .removal_schemes import deliver


@dataclass(frozen=True)
class AdditionPlan:
    """Cut points and movements for one node addition."""

    params: SystemParams
    kept: tuple[SubsegmentLabel, ...]  # per segment: leading K/(K+1), stays replicated
    small: tuple[SubsegmentLabel, ...]  # per segment: trailing 1/(K+1), broadcast
    shipped: tuple[int, ...]  # segments whose kept part also goes to the new node


def make_addition_plan(params: SystemParams) -> AdditionPlan:
    params.validate()
    k, r = params.n_nodes, params.replication
    seg_atoms = params.segment_atoms
    kept_atoms = seg_atoms * k // (k + 1)
    # superscripts are built once and shared: a shipped kept part goes to the new
    # node, and a small part to the new node plus the old nodes that precede
    # segment i, which are nodes 1..r-1 for every segment i >= r
    to_new = (k + 1,)
    wide = (*range(1, r), k + 1)
    kept = []
    small = []
    for i in range(1, k + 1):
        kept.append(
            SubsegmentLabel(
                base=i,
                superscript=to_new if i >= k - r + 2 else (),
                atom_start=0,
                atom_stop=kept_atoms,
            )
        )
        small.append(
            SubsegmentLabel(
                base=i,
                superscript=wide if i >= r else (*range(1, i), k + 1),
                atom_start=kept_atoms,
                atom_stop=seg_atoms,
            )
        )
    return AdditionPlan(
        params=params,
        kept=tuple(kept),
        small=tuple(small),
        shipped=tuple(range(k - r + 2, k + 1)),
    )


def addition_expected_layout(plan: AdditionPlan) -> tuple[MergeRecipe, ...]:
    """An addition's targets, built from its parameters alone, never from engine state."""
    params = plan.params
    k, r = params.n_nodes, params.replication
    kept_atoms = plan.kept[0].size_atoms
    out = [
        MergeRecipe(
            target=i,
            holders=tuple(sorted(cyclic_range(i, r, k + 1))),
            parts=((i, 0, kept_atoms),),
        )
        for i in range(1, k + 1)
    ]
    out.append(
        MergeRecipe(
            target=k + 1,
            holders=tuple(sorted(cyclic_range(k + 1, r, k + 1))),
            parts=tuple([(i, kept_atoms, params.segment_atoms) for i in range(1, k + 1)]),
        )
    )
    return tuple(out)


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

    trailers = []
    for i in range(1, k + 1):
        b = broadcast_uncoded(db, i, plan.small[i - 1])
        log.emit(b)
        trailers.append(b.payload)
    for i in plan.shipped:
        log.emit(broadcast_uncoded(db, i, plan.kept[i - 1]))

    refs = cyclic_refs(db.contents, k, r)
    if refs is None:
        # holder labels are node labels; the new node stores nothing, so it
        # takes every part off the bus
        received = deliver(db, log, plan)
        recipes = addition_expected_layout(plan)
        final = removal_merge.merge_by_walk(db, list(range(k + 2)), recipes, received, True)
    else:
        # every holder of W_i holds a piece equal to node i's, which both
        # broadcasts of W_i were cut from: cut each kept part once, assemble the
        # new segment once from the broadcast trailers, share each piece
        kept_atoms, small_atoms = plan.kept[0].size_atoms, plan.small[0].size_atoms
        # one mask for all K cuts: building it costs several times the & itself
        mask = (1 << kept_atoms * w) - 1
        pieces = [StoredPiece(kept_atoms, p.bits & mask) for p in refs]
        # trailer i at the low end first
        new_bits = concat_bits(trailers, [small_atoms * w] * k)
        pieces.append(StoredPiece(k * small_atoms, new_bits))
        final = Database(params, k + 1, cyclic_layout(pieces, r))

    report = analytics.addition_report(params, log.load)
    return AdditionRun(final=final, log=log, report=report, plan=plan)

"""Node addition: shrink every segment and build the new node's segment.

Each of the K segments gives up its trailing T/(K+1) atoms; those small
parts, broadcast by their first holder and concatenated in segment order,
form the new segment stored on the new node K+1 and on nodes 1..r-1. The
kept leading parts stay in place except where the cyclic layout over K+1
nodes now points at the new node: segments K-r+2..K ship their kept part to
it, and nodes 1..r-1 each discard one kept part they no longer need.

Total traffic is rK/(K+1) segments, which meets the lower bound exactly, so
no coding is needed anywhere.

A clean input is built per segment, not per replica. When cyclic_refs finds
no node deviating, every old holder of W_i stores a piece equal to node i's,
which both broadcasts of W_i were cut from: each kept part is cut once (the
shipped ones of segments K-r+2..K are their broadcast payloads, not a second
cut), the new segment is assembled once from the broadcast trailers, and
cyclic_layout places each of the K+1 pieces at all its r holders as one
shared object; no piece is decoded, as every broadcast is a payload the
new node stores. Any other input is merged by the removal's merge
(removal_merge.merge) against the plan's recipes, fed the one input it
takes, the stream of removal_schemes.decode_groups: as a deviating node is
one of its holders, it runs the source rule at every holder of every
target, and a holder that cannot source a part raises MergeFailureError
there. The merge takes the certificate rebalance_add computed, not a second
one, and keeps only the decoded ints that differ from the reference.

make_addition_plan builds the ChangePlan, the plan record a removal uses
too, from the parameters alone: the schedule, one uncoded slot per trailer
in segment order and then one per shipped kept part, and the K+1 target
recipes, in node labels, so its holder labels are the nodes themselves.
bus.encode cuts the payloads. rebalance_add returns it in its ChangeRun, and
verify.verify_change checks against its recipes.
"""

from __future__ import annotations

from . import removal_merge
from .bus import encode
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    concat_bits,
    cyclic_layout,
    cyclic_refs,
    sorted_cyclic_range,
)
from .removal_merge import ChangePlan, ChangeRun, MergeRecipe
from .removal_schemes import decode_groups


def make_addition_plan(params: SystemParams) -> ChangePlan:
    params.validate()
    k, r = params.n_nodes, params.replication
    seg_atoms = params.segment_atoms
    kept_atoms = seg_atoms * k // (k + 1)
    small_atoms = seg_atoms - kept_atoms
    # node i, segment i's first holder, sends its trailer to the new node plus the
    # old nodes that precede segment i, which are nodes 1..r-1 for every i >= r
    wide = (*range(1, r), k + 1)
    slots = []
    for i in range(1, k + 1):
        small = SubsegmentLabel(i, wide if i >= r else (*range(1, i), k + 1), kept_atoms, seg_atoms)
        slots.append((i, "uncoded", (small,), small_atoms))
    # segments K-r+2..K ship their kept part to the new node
    to_new = (k + 1,)
    for i in range(k - r + 2, k + 1):
        slots.append((i, "uncoded", (SubsegmentLabel(i, to_new, 0, kept_atoms),), kept_atoms))
    # the targets: segment i keeps its leading part on its new window, and the
    # new segment K+1 concatenates the K trailers in segment order
    recipes = [
        MergeRecipe(i, sorted_cyclic_range(i, r, k + 1), ((i, 0, kept_atoms),))
        for i in range(1, k + 1)
    ]
    trailers = tuple([(i, kept_atoms, seg_atoms) for i in range(1, k + 1)])
    recipes.append(MergeRecipe(k + 1, sorted_cyclic_range(k + 1, r, k + 1), trailers))
    return ChangePlan("addition", tuple(slots), tuple(recipes), tuple(range(k + 2)))


def addition_expected_layout(plan: ChangePlan) -> tuple[MergeRecipe, ...]:
    """An addition's targets, which make_addition_plan built from its parameters alone.

    Kept so that callers can treat removal and addition alike; the benchmark
    harness (benchmark/harness.py) calls it.
    """
    return plan.recipes


def rebalance_add(db: Database) -> ChangeRun:
    """Run the full addition pipeline and return the K+1 node database."""
    if db.generation != "original":
        raise ParameterError("addition runs on an original-layout database")
    params = db.params
    k, r = params.n_nodes, params.replication
    w = params.atom_bits
    plan = make_addition_plan(params)
    log = encode(db, plan.slots)
    certificate = cyclic_refs(db.contents, k, r)
    refs, deviating = certificate
    if deviating:
        # the new node stores nothing, so it takes every part off the bus,
        # streamed into the merge
        groups = decode_groups(db, log)
        final = removal_merge.merge(db, plan.actual, plan.recipes, groups, certificate)
    else:
        # every holder of W_i holds a piece equal to node i's, which both
        # broadcasts of W_i were cut from: cut each kept part once, assemble the
        # new segment once from the broadcast trailers, share each piece
        kept_atoms = plan.recipes[0].parts[0][2]
        small_atoms = params.segment_atoms - kept_atoms
        # one mask for the K-r+1 cuts: building it costs several times the & itself
        mask = (1 << kept_atoms * w) - 1
        kept = [p.bits & mask for p in refs[: k - r + 1]]
        # segments K-r+2..K ship their kept part, which encode cut from the same
        # reference pieces: the payloads are those parts, stored as they are
        kept += [b.payload for b in log.broadcasts[k:]]
        pieces = [StoredPiece(kept_atoms, bits) for bits in kept]
        # trailer i, the payload of broadcast i, at the low end first
        trailers = [b.payload for b in log.broadcasts[:k]]
        new_bits = concat_bits(trailers, [small_atoms * w] * k)
        pieces.append(StoredPiece(k * small_atoms, new_bits))
        final = Database(params, k + 1, cyclic_layout(pieces, r))

    return ChangeRun(final, log, plan)

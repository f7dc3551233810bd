"""Reassembly of target segments after a node removal.

The K-1 survivors end up holding K-1 target segments of size K/(K-1) * T in
cyclic layout. Targets 1..K-r keep a retained whole segment and append one
small corner piece; targets K-r+1..K-1 concatenate two pieces of adjacent
removed-node segments (the middle extended target, present when K-r is odd,
appends both corner tiny pieces instead).

Recipes are expressed in canonical survivor labels 1..K-1 so the final
database always has the same structure no matter which node left; parts
reference actual original segments for content. A holder fills each part from
its own stored base segment when it has one, otherwise from what it decoded
off the bus; a received whole-segment copy also works as a slice source.

Replicas share storage: holders whose parts resolve to the same source ints
at the same offsets hold one assembled piece, so each target is assembled
once per distinct source set rather than once per holder. Sources are still
resolved per holder, so a missing piece fails, or leaves a short replica, at
exactly the node that lacks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MergeFailureError
from .model import (
    AtomRange,
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    cyclic_range,
    slice_atoms,
)
from .removal_split import SplitPlan

# decoded or received material at a node: (origin segment, atom start, atom stop, bits)
ReceivedPiece = tuple[int, int, int, int]


@dataclass(frozen=True)
class MergeRecipe:
    """One target segment: its atom ranges in concatenation order, and its holders.

    The engine assembles removal targets from these, and the verifier checks
    both removal and addition targets against them.
    """

    target: int  # target segment index
    holders: tuple[int, ...]  # node labels of the target layout, sorted
    parts: tuple[AtomRange, ...]  # (actual original segment, atom start, atom stop)


def _part_from(label: SubsegmentLabel) -> AtomRange:
    return (label.base, label.atom_start, label.atom_stop)


def build_merge_recipes(params: SystemParams, plan: SplitPlan) -> tuple[MergeRecipe, ...]:
    """Target composition for every survivor segment, canonical order 1..K-1."""
    k, r = params.n_nodes, params.replication
    gap = k - r
    p = plan.pair_count
    odd = plan.low_corner.tiny is not None
    seg_atoms = params.segment_atoms
    recipes: list[MergeRecipe] = []

    def add(target: int, parts: list[AtomRange]) -> None:
        total = sum(stop - start for _, start, stop in parts)
        if total != seg_atoms * k // (k - 1):
            raise MergeFailureError(
                f"target {target} recipe covers {total} atoms, "
                f"expected {seg_atoms * k // (k - 1)}"
            )
        recipes.append(
            MergeRecipe(
                target=target,
                holders=tuple(sorted(cyclic_range(target, r, k - 1))),
                parts=tuple(parts),
            )
        )

    mid = (gap + 1) // 2 if odd else 0
    for t in range(1, gap + 1):
        whole = (plan.to_actual(t), 0, seg_atoms)
        if odd and t == mid:
            add(t, [whole, _part_from(plan.high_corner.tiny), _part_from(plan.low_corner.tiny)])
        elif t <= p:
            # low extended targets take high-corner pair j = t
            add(t, [whole, _part_from(plan.high_corner.pairs[t - 1])])
        else:
            # high extended targets take low-corner pair j = gap - t + 1
            add(t, [whole, _part_from(plan.low_corner.pairs[gap - t])])

    for s in range(gap + 1, k):
        add(s, [_part_from(plan.opening(s)), _part_from(plan.closing(s + 1))])

    recipes.sort(key=lambda rec: rec.target)
    return tuple(recipes)


def apply_merge(
    db: Database,
    plan: SplitPlan,
    recipes: tuple[MergeRecipe, ...],
    received: dict[int, list[ReceivedPiece]],
    strict: bool = True,
) -> Database:
    """Assemble every target at every holder and return the survivor database.

    Each holder resolves every part from its own sources: its own stored
    segment by index, else what it received. Holders whose parts resolve to
    the same source ints at the same offsets share one assembled piece, so a
    target is built once per distinct source set.

    With strict=True a holder that cannot source a part raises
    MergeFailureError; with strict=False the part is skipped, leaving a short
    replica for the verifier to flag (used by fault injection).
    """
    params = db.params
    k = params.n_nodes
    w = params.atom_bits
    # canonical survivor label -> actual node, once per merge
    actual = {c: plan.to_actual(c) for c in range(1, k)}
    contents: dict[int, dict[int, StoredPiece]] = {n: {} for n in range(1, k)}

    for recipe in recipes:
        target = recipe.target
        assembled: dict[tuple, StoredPiece] = {}
        for holder in recipe.holders:
            node = actual[holder]
            own = db.contents.get(node, {})
            sources: list[tuple[int, int] | None] = []
            # flat (id(source int), offset) per part; (None, None) for a skipped part
            key: list[int | None] = []
            for origin, start, stop in recipe.parts:
                piece = own.get(origin)
                if piece is not None:
                    src = (piece.bits, start)
                else:
                    src = _received(received.get(node, ()), origin, start, stop)
                if src is None:
                    if strict:
                        raise MergeFailureError(
                            f"node {node} cannot source atoms [{start}:{stop}] "
                            f"of segment {origin} for target {target}"
                        )
                    key += (None, None)
                else:
                    # source ints stay alive for the whole merge, so ids cannot be reused
                    key += (id(src[0]), src[1])
                sources.append(src)
            flat = tuple(key)
            shared = assembled.get(flat)
            if shared is None:
                shared = assembled[flat] = _assemble(recipe, sources, w)
            contents[holder][target] = shared

    return Database(
        params=params,
        n_nodes=k - 1,
        generation="target",
        segment_atoms=params.segment_atoms * k // (k - 1),
        contents=contents,
    )


def _assemble(
    recipe: MergeRecipe, sources: list[tuple[int, int] | None], atom_bits: int
) -> StoredPiece:
    # concatenate the resolved parts, skipping unsourced ones
    bits = 0
    offset = 0
    prov: list[AtomRange] = []
    for part, src in zip(recipe.parts, sources):
        if src is None:
            continue
        _, start, stop = part
        src_bits, at = src
        bits |= slice_atoms(src_bits, at, at + stop - start, atom_bits) << (offset * atom_bits)
        prov.append(part)
        offset += stop - start
    return StoredPiece(n_atoms=offset, bits=bits, provenance=tuple(prov))


def _received(
    got: list[ReceivedPiece], origin: int, start: int, stop: int
) -> tuple[int, int] | None:
    """(bits, atom offset of the range within them) of a received piece covering the range."""
    for got_origin, got_start, got_stop, bits in got:
        if got_origin == origin and got_start <= start and stop <= got_stop:
            return bits, start - got_start
    return None

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
at the same offsets hold one assembled int, so each target is assembled once
per distinct source set rather than once per holder. Sources are still
resolved per holder, so a missing piece fails, or leaves a short replica, at
exactly the node that lacks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MergeFailureError
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
from .removal_split import SplitPlan

# decoded or received material at a node: (origin segment, atom start, atom stop, bits)
ReceivedPiece = tuple[int, int, int, int]


@dataclass(frozen=True)
class MergePart:
    """One slice of an original segment, in concatenation order within a target."""

    origin: int  # actual original segment index
    atom_start: int
    atom_stop: int

    @property
    def size_atoms(self) -> int:
        return self.atom_stop - self.atom_start


@dataclass(frozen=True)
class MergeRecipe:
    target: SegmentLabel  # canonical target index, generation "target"
    holders: tuple[int, ...]  # canonical survivor labels, sorted
    parts: tuple[MergePart, ...]


def _part_from(label: SubsegmentLabel) -> MergePart:
    return MergePart(label.base.index, label.atom_start, label.atom_stop)


def build_merge_recipes(params: SystemParams, plan: SplitPlan) -> tuple[MergeRecipe, ...]:
    """Target composition for every survivor segment, canonical order 1..K-1."""
    k, r = params.n_nodes, params.replication
    gap = k - r
    p = plan.pair_count
    odd = plan.low_corner.tiny is not None
    seg_atoms = params.segment_atoms
    recipes: list[MergeRecipe] = []

    def add(target: int, parts: list[MergePart]) -> None:
        total = sum(q.size_atoms for q in parts)
        if total != seg_atoms * k // (k - 1):
            raise MergeFailureError(
                f"target {target} recipe covers {total} atoms, "
                f"expected {seg_atoms * k // (k - 1)}"
            )
        recipes.append(
            MergeRecipe(
                target=SegmentLabel(target, "target"),
                holders=tuple(sorted(cyclic_range(target, r, k - 1))),
                parts=tuple(parts),
            )
        )

    mid = (gap + 1) // 2 if odd else 0
    for t in range(1, gap + 1):
        whole = MergePart(plan.to_actual(t), 0, seg_atoms)
        if odd and t == mid:
            add(t, [whole, _part_from(plan.high_corner.tiny), _part_from(plan.low_corner.tiny)])
        elif t <= p:
            # low extended targets take high-corner pair j = t
            add(t, [whole, _part_from(plan.high_corner.pairs[t - 1])])
        else:
            # high extended targets take low-corner pair j = gap - t + 1
            add(t, [whole, _part_from(plan.low_corner.pairs[gap - t])])

    for i in range(1, r):
        first = plan.low_corner.big if i == 1 else plan.middles[i - 2][0]
        second = plan.high_corner.big if i == r - 1 else plan.middles[i - 1][1]
        add(gap + i, [_part_from(first), _part_from(second)])

    recipes.sort(key=lambda rec: rec.target.index)
    return tuple(recipes)


def apply_merge(
    db: Database,
    plan: SplitPlan,
    recipes: tuple[MergeRecipe, ...],
    received: dict[int, list[ReceivedPiece]],
    strict: bool = True,
) -> Database:
    """Assemble every target at every holder and return the survivor database.

    Each holder resolves every part from its own sources. Holders whose parts
    resolve to the same source ints at the same offsets share one assembled
    int, so a target is built once per distinct source set.

    With strict=True a holder that cannot source a part raises
    MergeFailureError; with strict=False the part is skipped, leaving a short
    replica for the verifier to flag (used by fault injection).
    """
    params = db.params
    k = params.n_nodes
    w = params.atom_bits
    contents: dict[int, dict[Label, StoredPiece]] = {n: {} for n in range(1, k)}

    for recipe in recipes:
        assembled: dict[tuple, StoredPiece] = {}
        for holder in recipe.holders:
            actual = plan.to_actual(holder)
            sources: list[tuple[int, int] | None] = []
            for part in recipe.parts:
                src = _resolve(db, received, actual, part)
                if src is None and strict:
                    raise MergeFailureError(
                        f"node {actual} cannot source atoms "
                        f"[{part.atom_start}:{part.atom_stop}] of segment {part.origin} "
                        f"for target {recipe.target.index}"
                    )
                sources.append(src)
            # source ints stay alive for the whole merge, so ids cannot be reused
            key = tuple(None if src is None else (id(src[0]), src[1]) for src in sources)
            piece = assembled.get(key)
            if piece is None:
                piece = assembled[key] = _assemble(recipe, sources, w)
            # share the int, not the StoredPiece: sharing pieces too means fewer
            # allocations, hence fewer full collections emptying CPython's free
            # lists, and measured higher peak RSS over many small runs
            contents[holder][recipe.target] = StoredPiece(
                label=recipe.target,
                n_atoms=piece.n_atoms,
                bits=piece.bits,
                provenance=piece.provenance,
            )

    return Database(
        params=params,
        seed=db.seed,
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
    prov: list[tuple[int, int, int]] = []
    for part, src in zip(recipe.parts, sources):
        if src is None:
            continue
        src_bits, start = src
        val = slice_atoms(src_bits, start, start + part.size_atoms, atom_bits)
        bits |= val << (offset * atom_bits)
        prov.append((part.origin, part.atom_start, part.atom_stop))
        offset += part.size_atoms
    return StoredPiece(
        label=recipe.target,
        n_atoms=offset,
        bits=bits,
        provenance=tuple(prov),
    )


def _resolve(
    db: Database,
    received: dict[int, list[ReceivedPiece]],
    node: int,
    part: MergePart,
) -> tuple[int, int] | None:
    """(source bits, atom offset of the part within them) at this node, or None."""
    base_bits = db.segment_bits_at(node, part.origin)
    if base_bits is not None:
        return base_bits, part.atom_start
    for origin, start, stop, bits in received.get(node, ()):
        if origin == part.origin and start <= part.atom_start and part.atom_stop <= stop:
            return bits, part.atom_start - start
    return None

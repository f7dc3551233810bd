"""Reassembly of target segments after a node removal; the merge walk both
membership changes share.

The K-1 survivors end up holding K-1 target segments of size K/(K-1) * T in
cyclic layout. Targets 1..K-r keep a retained whole segment and append one
small corner piece; targets K-r+1..K-1 concatenate two pieces of adjacent
removed-node segments (the middle extended target, present when K-r is odd,
appends both corner tiny pieces instead).

Recipes are expressed in canonical survivor labels 1..K-1 so the final
database always has the same structure no matter which node left; parts
reference actual original segments for content. One source rule fills every
part: a holder takes it from its own stored segment of the origin, else from
the first piece decoded off the bus, in first-decode order, that covers its
atom range and lists the holder. A received whole segment is a slice source
like any other piece.

The layout is certified once, then merged per target, not per replica. When
cyclic_refs finds every node storing its window of equal segments, each
recipe part is cut once from the stored segment, and only the holders that do
not store the part's origin are checked: each must be listed by the first
covering decoded piece that names it, with a cut equal to the stored one.
Then each target is assembled once and cyclic_layout places it at its r
holders as one shared piece. Any other input goes through the walk: a
damaged or missing replica, or a dropped broadcast or damaged payload that
leaves some holder's part unsourced or cut differently.

The walk (merge_by_walk) follows the source rule literally, holder by
holder, in target and holder order, so a holder that no source lists fails,
or leaves a short replica, at exactly that holder. Holders whose parts
resolve to the same (source int, offset) per part take one replica, and
equal replicas of a target are one piece, so a damaged own source shares
only where its cut is unchanged. It merges an addition that does not certify
too, against the addition's own recipes in node labels; the new node stores
nothing and takes every part off the bus. Only the walk raises
MergeFailureError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analytics import LoadReport
from .bus import TransmissionLog
from .errors import MergeFailureError
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    cyclic_layout,
    cyclic_range,
    cyclic_refs,
    slice_atoms,
)
from .removal_split import SplitPlan

if TYPE_CHECKING:
    from .addition import AdditionPlan

# part of a target: (actual original segment, atom start, atom stop)
AtomRange = tuple[int, int, int]


@dataclass(frozen=True)
class MergeRecipe:
    """One target segment: its atom ranges in concatenation order, and its holders.

    The merge assembles the targets of either change from these, and the
    verifier checks the result against them.
    """

    target: int  # target segment index
    holders: tuple[int, ...]  # node labels of the target layout, sorted
    parts: tuple[AtomRange, ...]


@dataclass
class ChangeRun:
    """Everything one membership change produces: the new database, the traffic,
    the loads, the plan, and the targets (verify.verify_change checks final
    against recipes alone)."""

    final: Database
    log: TransmissionLog
    report: LoadReport
    plan: SplitPlan | AdditionPlan
    recipes: tuple[MergeRecipe, ...]


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
    received: dict[tuple[int, int, int, int], list[int]],
    strict: bool = True,
) -> Database:
    """Assemble every target at every holder and return the survivor database.

    recipes are build_merge_recipes' output: targets 1..K-1 in order, each
    held by its cyclic window. received maps each decoded piece (origin, atom
    start, atom stop, bits) to the actual nodes that decoded it, in
    first-decode order, as deliver returns it. A certified layout whose
    decoded cuts all equal the stored ones is merged per target
    (_layout_by_target); any other input by the walk (merge_by_walk), which
    gives the same result wherever both apply.

    With strict=True a holder that cannot source a part raises
    MergeFailureError; with strict=False the part is skipped, leaving a short
    replica for the verifier to flag (used by fault injection).
    """
    params = db.params
    k = params.n_nodes
    refs = cyclic_refs(db.contents, k, params.replication)
    if refs is not None:
        contents = _layout_by_target(params, plan, recipes, _by_origin(received), refs)
        if contents is not None:
            return Database(params, k - 1, contents)
    actual = [0] + [plan.to_actual(c) for c in range(1, k)]
    return merge_by_walk(db, actual, recipes, received, strict)


def _by_origin(
    received: dict[tuple[int, int, int, int], list[int]],
) -> dict[int, list[tuple[int, int, int, list[int]]]]:
    # origin -> [(start, stop, bits, actual receivers)], in first-decode order
    decoded: dict[int, list[tuple[int, int, int, list[int]]]] = {}
    for (origin, start, stop, bits), receivers in received.items():
        decoded.setdefault(origin, []).append((start, stop, bits, receivers))
    return decoded


def _layout_by_target(
    params: SystemParams,
    plan: SplitPlan,
    recipes: tuple[MergeRecipe, ...],
    decoded: dict[int, list[tuple[int, int, int, list[int]]]],
    refs: list[StoredPiece],
) -> dict[int, dict[int, StoredPiece]] | None:
    """The survivor contents, one assembly per target, when refs certify db and
    every holder that does not store a part's origin takes, from the first
    covering decoded piece that lists it, a cut equal to the stored one; else
    None, and the walk decides."""
    k, r, w = params.n_nodes, params.replication, params.atom_bits
    if [recipe.target for recipe in recipes] != list(range(1, k)):
        return None
    # actual label -> canonical label, the removed node and its segment being k
    canonical = {plan.to_actual(c): c for c in range(1, k + 1)}
    pieces = []
    for recipe in recipes:
        held = _spans(recipe.target, r, k - 1)
        cuts: list[int | None] = []
        for origin, start, stop in recipe.parts:
            cut = slice_atoms(refs[origin - 1].bits, start, stop, w)
            # the holders the walk sources off the bus: canonical segment s is
            # stored on nodes s..s+r-1 (mod k), so the k-r nodes from s+r lack it
            lacking = _spans((canonical[origin] + r - 1) % k + 1, k - r, k)
            need = set()
            for lo, hi in held:
                for a, b in lacking:
                    need.update(range(max(lo, a), min(hi, b)))
            for got_start, got_stop, bits, nodes in decoded.get(origin, ()):
                if not need:
                    break
                if got_start <= start and stop <= got_stop:
                    named = need.intersection(map(canonical.get, nodes))
                    if named:
                        if slice_atoms(bits, start - got_start, stop - got_start, w) != cut:
                            return None
                        need -= named
            if need:
                return None
            cuts.append(cut)
        pieces.append(_assemble(recipe.parts, cuts, w))
    return cyclic_layout(pieces, r)


def _spans(start: int, count: int, modulus: int) -> tuple[tuple[int, int], ...]:
    # cyclic_range(start, count, modulus) as at most two half-open ranges
    stop = start + count
    if stop <= modulus + 1:
        return ((start, stop),)
    return ((start, modulus + 1), (1, stop - modulus))


def merge_by_walk(
    db: Database,
    actual: list[int],
    recipes: tuple[MergeRecipe, ...],
    received: dict[tuple[int, int, int, int], list[int]],
    strict: bool,
) -> Database:
    """The database after a membership change, for any input, holder by holder;
    the one source of MergeFailureError and of short replicas.

    actual[holder] is the node whose stored data and decoded pieces a holder
    uses (index 0 unused); the final database has len(actual) - 1 nodes.
    received is deliver's output. A holder takes each part from its own stored
    segment of the origin, else from the first decoded piece, in first-decode
    order, that covers the part and lists the holder's node. Holders that
    resolve every part to the same (source int, offset) share one replica, and
    a replica equal to one built before for the same target is replaced by
    that one.
    """
    w = db.params.atom_bits
    decoded = _by_origin(received)
    contents: dict[int, dict[int, StoredPiece]] = {n: {} for n in range(1, len(actual))}
    for recipe in recipes:
        # (id(source int), offset) per part -> replica; the source ints live in
        # db and received for the whole merge, so their ids are not reused
        built: dict[tuple[tuple[int, int], ...], StoredPiece] = {}
        equal: dict[tuple[int, int], StoredPiece] = {}  # (n_atoms, bits) -> replica
        for holder in recipe.holders:
            node = actual[holder]
            stored = db.contents.get(node, {})
            sources: list[tuple[int | None, int]] = []  # (source int, offset)
            for origin, start, stop in recipe.parts:
                own = stored.get(origin)
                if own is not None:
                    sources.append((own.bits, start))
                    continue
                for got_start, got_stop, bits, receivers in decoded.get(origin, ()):
                    if got_start <= start and stop <= got_stop and node in receivers:
                        sources.append((bits, start - got_start))
                        break
                else:
                    if strict:
                        raise MergeFailureError(
                            f"node {node} cannot source atoms [{start}:{stop}] "
                            f"of segment {origin} for target {recipe.target}"
                        )
                    sources.append((None, 0))
            key = tuple([(id(bits), at) for bits, at in sources])
            replica = built.get(key)
            if replica is None:
                cuts = [
                    None if bits is None else slice_atoms(bits, at, at + stop - start, w)
                    for (bits, at), (_, start, stop) in zip(sources, recipe.parts)
                ]
                replica = _assemble(recipe.parts, cuts, w)
                replica = built[key] = equal.setdefault((replica.n_atoms, replica.bits), replica)
            contents[holder][recipe.target] = replica
    return Database(db.params, len(actual) - 1, contents)


def _assemble(
    parts: tuple[AtomRange, ...], cuts: list[int | None], atom_bits: int
) -> StoredPiece:
    # concatenate the cut parts, skipping unsourced ones
    bits = 0
    offset = 0
    for (_, start, stop), cut in zip(parts, cuts):
        if cut is None:
            continue
        # the first cut is taken as it is, not copied by 0 | cut
        bits = (bits | (cut << (offset * atom_bits))) if offset else cut
        offset += stop - start
    return StoredPiece(offset, bits)

"""Reassembly of target segments after a node removal; the one merge both
membership changes use.

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

merge runs that rule in one of two ways, chosen from the input. cyclic_refs
certifies the stored layout once and names the nodes that deviate from it.
A run is certified when no holder's node deviates (damage at a removed node
alone feeds no holder) and every decoded piece is the reference's cut of its
range. Then each recipe part is cut once from its reference piece, or taken
as a decoded piece of the very same range, each target is assembled once, and
cyclic_layout places it at its r holders as one shared piece; a coverage
check still requires each holder that lacks a part's origin to be in the
mask of some decoded piece that covers the part, proved with int masks of
holder labels. Any other input, a coverage miss too, is walked: the rule
runs at every holder of every target, in target and holder order, so a
holder that no source lists fails with MergeFailureError, or keeps a short
replica, at exactly that holder, and a replica equal to another of its
target is that one object. An addition is merged against its own recipes in
node labels; its new node stores nothing.

The merge folds delivery, a stream of decode groups (range, nodes, bits,
agrees) in decode order, into one record per decoded range as it comes: a
mask with bit h set for each holder label h whose node decoded the range (a
node that holds no target gets a bit past them), and {node: bits} for the
nodes whose piece is not the reference's cut of the range. A node keeps the
first piece of a range it decodes. A group with agrees set is the reference
cut of its range, encode's own cut from removal_schemes.certified_groups;
any other (removal_schemes.decode_groups) is compared with the reference on
arrival. An agreeing piece sets only its receivers' bits. On a run still
certified its int waits until the recipe part of its range takes it as its
cut; the walk cuts the reference over the same atoms instead. An unequal
piece stays in its record until the merge returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .analytics import LoadReport
from .bus import Slot, TransmissionLog
from .errors import MergeFailureError
from .model import (
    Database,
    StoredPiece,
    SystemParams,
    cyclic_layout,
    cyclic_refs,
    cyclic_mask,
    slice_atoms,
    sorted_cyclic_range,
)
from .removal_split import SplitPlan

# part of a target: (actual original segment, atom start, atom stop)
AtomRange = tuple[int, int, int]
# one decode: (decoded range, the receiving actual nodes, ascending, the piece,
# whether the piece is already known to equal the reference's cut of its range)
DecodeGroup = tuple[AtomRange, list[int], int, bool]


class MergeRecipe(NamedTuple):
    """One target segment: its atom ranges in concatenation order, and its holders.

    The merge assembles the targets of either change from these, and the
    verifier checks the result against them.
    """

    target: int  # target segment index
    holders: tuple[int, ...]  # node labels of the target layout, sorted
    parts: tuple[AtomRange, ...]


@dataclass(frozen=True)
class ChangePlan:
    """One membership change as data, from the parameters alone: the
    schedule, the targets, and the node each target holder uses.

    A removal's targets are in canonical survivor labels 1..K-1 and
    actual[holder] is the surviving node that plays holder; an addition's are
    in node labels 1..K+1, so actual is the identity. Index 0 is unused.
    """

    scheme: str  # "scheme1", "scheme2", "uncoded" or "addition"
    slots: tuple[Slot, ...]
    recipes: tuple[MergeRecipe, ...]
    actual: tuple[int, ...]


@dataclass
class ChangeRun:
    """Everything one membership change produces: the new database, the traffic,
    the loads, and the plan (verify.verify_change checks final against the
    plan's recipes alone)."""

    final: Database
    log: TransmissionLog
    report: LoadReport
    plan: ChangePlan

    @property
    def recipes(self) -> tuple[MergeRecipe, ...]:
        return self.plan.recipes


def build_merge_recipes(params: SystemParams, plan: SplitPlan) -> tuple[MergeRecipe, ...]:
    """Target composition for every survivor segment, canonical order 1..K-1."""
    k, r = params.n_nodes, params.replication
    gap = k - r
    seg_atoms = params.segment_atoms
    target_atoms = seg_atoms * k // (k - 1)
    low, high = plan.low_corner, plan.high_corner
    # targets 1..K-r keep their whole segment and append corner pieces:
    # high-corner pair t for t <= p, both tiny pieces at the middle target
    # when K-r is odd, and low-corner pair K-r-t+1 above
    tails = [(q,) for q in high.pairs]
    if low.tiny is not None:
        tails.append((high.tiny, low.tiny))
    tails += [(q,) for q in reversed(low.pairs)]
    targets = [
        ((base, 0, seg_atoms), *[(q.base, q.atom_start, q.atom_stop) for q in tail])
        for base, tail in zip(plan.actual[1 : gap + 1], tails)
    ]
    # targets K-r+1..K-1 join an opening piece and a closing one
    targets += [
        ((a.base, a.atom_start, a.atom_stop), (b.base, b.atom_start, b.atom_stop))
        for a, b in zip(plan.openings, plan.closings)
    ]
    recipes = []
    for target, parts in enumerate(targets, 1):
        total = sum([stop - start for _, start, stop in parts])
        if total != target_atoms:
            raise MergeFailureError(
                f"target {target} recipe covers {total} atoms, expected {target_atoms}"
            )
        recipes.append(MergeRecipe(target, sorted_cyclic_range(target, r, k - 1), parts))
    return tuple(recipes)


def apply_merge(
    db: Database,
    plan: SplitPlan | ChangePlan,
    recipes: tuple[MergeRecipe, ...],
    delivered: dict[AtomRange, dict[int, int]] | Iterable[DecodeGroup],
    strict: bool = True,
) -> Database:
    """Assemble every target at every holder and return the survivor database.

    recipes are build_merge_recipes' output, in canonical survivor labels,
    which plan.actual maps to actual nodes (a removal's split or its
    ChangePlan: only the labels of survivors 1..K-1 are read); delivered is
    deliver's output or the stream of decode groups it folds
    (removal_schemes.decode_groups), merged with the certificate computed here.
    """
    n, r = db.params.n_nodes, db.params.replication
    return merge(db, plan.actual[:n], recipes, delivered, strict, cyclic_refs(db.contents, n, r))


def merge(
    db: Database,
    actual: tuple[int, ...],
    recipes: tuple[MergeRecipe, ...],
    delivered: dict[AtomRange, dict[int, int]] | Iterable[DecodeGroup],
    strict: bool,
    certificate: tuple[list[StoredPiece | None], set[int]],
) -> Database:
    """The database after a membership change, for any input: one certified
    cut per target, or the source rule at every holder (see the module
    docstring).

    recipes are targets 1..M in order, target t held by the r holders from t
    (cyclic); actual[holder] is the node whose stored segments and decoded
    pieces the holder uses, M = len(actual) - 1 (index 0 unused), as in
    ChangePlan. delivered is the stream of decode groups (range, nodes,
    bits, agrees) in decode order, or deliver's dict of them folded, read
    back as one group per run of one int among a range's receivers, none
    agreeing; the result is the same. An agreeing group is taken as the
    reference cut with no compare. Both paths read the one fold: per decoded
    range, the mask of its receivers (bit h for holder label h) and the
    pieces that are not the reference's cut. A caller that passes the dict
    keeps every decoded int alive; rebalance_remove and a damaged
    rebalance_add stream.

    With strict=True a holder that cannot source a part raises
    MergeFailureError; with strict=False the part is skipped, leaving a short
    replica for the verifier to flag (used by fault injection).

    certificate is cyclic_refs(db.contents, n, r), computed once by the caller.
    """
    params = db.params
    n, r, w = params.n_nodes, params.replication, params.atom_bits
    m = len(actual) - 1
    refs, deviating = certificate
    # holder label by actual node, a window position; the removed node's is n
    position = dict(zip(actual[1:], range(1, m + 1)))
    certified = deviating.isdisjoint(position)
    # a node's bit in a range's mask: holder h's is 1 << h, and a node that
    # holds no target gets the next free bit when the stream first names it
    bit = {node: 1 << holder for node, holder in position.items()}
    if isinstance(delivered, dict):
        delivered = _unfold(delivered)
    # one record per decoded range, [mask of the nodes that decoded it,
    # {node: bits} of those whose piece is not the reference's cut]; on a run
    # still certified, an agreeing piece's int waits in equal_cuts for the
    # part of the same range
    # origin -> [(start, stop, record)], in first-decode order
    decoded: dict[int, list[tuple[int, int, list]]] = {}
    ranges: dict[AtomRange, list] = {}  # the same records by range
    equal_cuts: dict[AtomRange, int] = {}
    for key, nodes, bits, agrees in delivered:
        mask = 0
        for node in nodes:
            b = bit.get(node)
            if b is None:
                b = bit[node] = 1 << (len(bit) + 1)
            mask |= b
        origin, start, stop = key
        got = ranges.get(key)
        if got is None:
            ranges[key] = got = [mask, {}]
            decoded.setdefault(origin, []).append((start, stop, got))
        else:
            # a node keeps the first piece of a range it decodes
            mask &= ~got[0]
            if not mask:
                continue
            got[0] |= mask
        if not agrees:
            cut = equal_cuts.get(key)
            if cut is None:
                ref = refs[origin - 1] if 0 < origin <= n else None
                if ref is not None:
                    cut = slice_atoms(ref.bits, start, stop, w)
            if bits is not cut and bits != cut:
                got[1].update({node: bits for node in nodes if bit[node] & mask})
                # the walk cuts an agreeing piece from the reference instead
                certified = False
                equal_cuts.clear()
                continue
        if certified:
            equal_cuts.setdefault(key, bits)
    if certified:
        pieces = _certified_pieces(params, position, recipes, decoded, refs, equal_cuts)
        if pieces is not None:
            return Database(params, m, cyclic_layout(pieces, r))
    # the walk: every holder by the source rule, each holder's targets in
    # ascending order as cyclic_layout would store them
    contents: dict[int, dict[int, StoredPiece]] = {holder: {} for holder in range(1, m + 1)}
    for recipe in recipes:
        # a replica equal to an earlier one is it, found by ==, as hashing a
        # piece costs time linear in its size
        distinct: list[StoredPiece] = []
        for holder in recipe.holders:
            node = actual[holder]
            built = _source_rule(db, node, recipe, decoded, refs, strict, bit[node])
            for prior in distinct:
                if prior == built:
                    built = prior
                    break
            else:
                distinct.append(built)
            contents[holder][recipe.target] = built
    return Database(params, m, contents)


def _certified_pieces(
    params: SystemParams,
    position: dict[int, int],
    recipes: tuple[MergeRecipe, ...],
    decoded: dict[int, list[tuple[int, int, list]]],
    refs: list[StoredPiece | None],
    equal_cuts: dict[AtomRange, int],
) -> list[StoredPiece] | None:
    """Each target's one piece on a certified run, its parts the reference
    cuts, or None when a part's origin is no segment 1..n, or a holder that
    lacks it is in the mask of no decoded piece that covers the part (a
    dropped broadcast, a partial dict): only the walk can place those.
    Coverage is proved on window masks, bit h for holder label h."""
    n, r, w = params.n_nodes, params.replication, params.atom_bits
    m = len(position)
    pieces = []
    for recipe in recipes:
        held = cyclic_mask(recipe.target, r, m)
        bits = offset = 0
        for origin, start, stop in recipe.parts:
            ref = refs[origin - 1] if 0 < origin <= n else None
            if ref is None:
                return None
            # the holders of this target that lack the origin: segment p is
            # stored at window positions p..p+r-1 (mod n), and a holder past n
            # (an addition's new node) stores nothing
            need = held & ~cyclic_mask(position.get(origin, n), r, n)
            if need:
                # every covering piece is the reference's cut: only coverage counts
                for got_start, got_stop, (mask, _) in decoded.get(origin, ()):
                    if got_start <= start and stop <= got_stop:
                        need &= ~mask
                        if not need:
                            break
                else:
                    return None
            # a decoded piece of this very range is its cut, handed over once
            cut = equal_cuts.pop((origin, start, stop), None)
            if cut is None:
                cut = slice_atoms(ref.bits, start, stop, w)
            # assembled as _assemble does, without a list of the cuts
            bits = (bits | (cut << (offset * w))) if offset else cut
            offset += stop - start
        pieces.append(StoredPiece(offset, bits))
    return pieces


def _unfold(received: dict[AtomRange, dict[int, int]]) -> Iterator[DecodeGroup]:
    # deliver's dict as decode groups: one per run of one int among a range's receivers
    for key, got in received.items():
        for bits, run in groupby(got.items(), itemgetter(1)):
            yield key, [node for node, _ in run], bits, False


def _source_rule(
    db: Database,
    node: int,
    recipe: MergeRecipe,
    decoded: dict[int, list[tuple[int, int, list]]],
    refs: list[StoredPiece | None],
    strict: bool,
    mine: int,
) -> StoredPiece:
    """node's replica of recipe's target by the source rule: each part from the
    node's own stored segment of the origin, else from the first decoded piece
    that covers the part and has the node's bit, mine, in its mask. The one
    source of MergeFailureError and of short replicas."""
    w = db.params.atom_bits
    stored = db.contents.get(node, {})
    cuts: list[int | None] = []
    for origin, start, stop in recipe.parts:
        own = stored.get(origin)
        if own is not None:
            cuts.append(slice_atoms(own.bits, start, stop, w))
            continue
        for got_start, got_stop, (mask, unequal) in decoded.get(origin, ()):
            if got_start <= start and stop <= got_stop and mask & mine:
                got = unequal.get(node)
                if got is None:
                    # an agreeing piece: the reference over the same atoms
                    cuts.append(slice_atoms(refs[origin - 1].bits, start, stop, w))
                else:
                    cuts.append(slice_atoms(got, start - got_start, stop - got_start, w))
                break
        else:
            if strict:
                raise MergeFailureError(
                    f"node {node} cannot source atoms [{start}:{stop}] "
                    f"of segment {origin} for target {recipe.target}"
                )
            cuts.append(None)
    return _assemble(recipe.parts, cuts, w)


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

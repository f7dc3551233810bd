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

merge applies that rule to any input, damaged or not. cyclic_refs certifies
the stored layout once and names the nodes that deviate from it. Each
recipe part is cut once from its reference piece, each target assembled
once, and cyclic_layout places it at its r holders as one shared piece. The
rule runs holder by holder only where damage reaches: at a deviating node,
at a holder whose first covering decoded piece of a part it does not store
is missing or unequal to the reference, and at every holder of a target
whose reference is missing. Those holders run in target and holder order,
so a holder that no source lists fails with MergeFailureError, or keeps a
short replica, at exactly that holder, and a replica equal to another of
its target is that one object. An addition is merged against its own
recipes in node labels; its new node stores nothing.

The merge folds delivery, a stream of decode groups (range, nodes, bits,
agrees) in decode order, by atom range as it comes: a node keeps the first
piece of a range it decodes. A group with agrees set is the reference cut of
its range, encode's own cut from removal_schemes.certified_groups; any other
(removal_schemes.decode_groups) is compared with the reference on arrival.
An agreeing piece keeps only its receivers, and its int waits until the
recipe part of its range takes it as its cut. An unequal piece stays at its
receivers for the holder walk. Where every piece of an origin agrees, a part
of it needs only a coverage check: the holders that lack the origin, by span
arithmetic on the two cyclic windows, less the receivers of each covering
range. An origin with an unequal piece is checked holder by holder against
the first covering piece, one cut and compare per run of one int among a
range's receivers.
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
    cyclic_spans,
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
    """The database after a membership change, for any input (see the module
    docstring).

    recipes are targets 1..M in order, target t held by the r holders from t
    (cyclic); actual[holder] is the node whose stored segments and decoded
    pieces the holder uses, M = len(actual) - 1 (index 0 unused), as in
    ChangePlan. delivered is the stream of decode groups (range, nodes,
    bits, agrees) in decode order, or deliver's dict of them folded, read
    back as one group per run of one int among a range's receivers, none
    agreeing; the result is the same. An agreeing group is taken as the
    reference cut with no compare. A caller that passes the dict keeps every
    decoded int alive; rebalance_remove and a damaged rebalance_add stream.

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
    if isinstance(delivered, dict):
        delivered = _unfold(delivered)
    # each group's int is compared with the reference cut of its range as it
    # arrives. An agreeing piece keeps only its receivers, marked None, and
    # its int waits in equal_cuts for the part of the same range to take it;
    # an unequal one is kept at its receivers and marks its origin.
    # origin -> [(start, stop, {actual node: bits or None})], in first-decode order
    decoded: dict[int, list[tuple[int, int, dict[int, int | None]]]] = {}
    ranges: dict[AtomRange, dict[int, int | None]] = {}  # the same dicts by range
    equal_cuts: dict[AtomRange, int] = {}
    unequal = set()
    for key, nodes, bits, agrees in delivered:
        got = ranges.get(key)
        if got is not None:
            # a node keeps the first piece of a range it decodes
            nodes = [node for node in nodes if node not in got]
            if not nodes:
                continue
        origin, start, stop = key
        if not agrees:
            cut = equal_cuts.get(key)
            if cut is None:
                ref = refs[origin - 1] if 0 < origin <= n else None
                if ref is not None:
                    cut = slice_atoms(ref.bits, start, stop, w)
            agrees = bits is cut or bits == cut
        if agrees:
            equal_cuts.setdefault(key, bits)
            bits = None
        else:
            unequal.add(origin)
        if got is None:
            ranges[key] = got = dict.fromkeys(nodes, bits)
            decoded.setdefault(origin, []).append((start, stop, got))
        else:
            got.update(dict.fromkeys(nodes, bits))
    damaged = {position[node] for node in deviating if node in position}
    past = ((n + 1, m + 1),) if m > n else ()  # an addition's new node
    # by origin, the holders that take it off the bus: segment p is stored at
    # window positions p..p+r-1 (mod n), so the n-r from p+r lack it, and so
    # does any holder past n, which stores nothing
    lacking = [()] + [
        cyclic_spans((position.get(origin, n) + r - 1) % n + 1, n - r, n) + past
        for origin in range(1, n + 1)
    ]
    pieces: list[StoredPiece | None] = []
    walked: list[tuple[int, int, StoredPiece]] = []  # (holder, target, replica)
    for recipe in recipes:
        target = recipe.target
        held = cyclic_spans(target, r, m)
        walk = {h for h in damaged if (h - target) % m < r} if damaged else set()
        replica = None
        bits = offset = 0
        for origin, start, stop in recipe.parts:
            ref = refs[origin - 1]
            if ref is None:
                break
            # an agreeing piece of this very range is its cut, handed over once
            cut = equal_cuts.pop((origin, start, stop), None)
            if cut is None:
                cut = slice_atoms(ref.bits, start, stop, w)
            # assembled as _assemble does, without a list of the cuts
            bits = (bits | (cut << (offset * w))) if offset else cut
            offset += stop - start
            need = None
            for lo, hi in held:
                for a, b in lacking[origin]:
                    if a < lo:
                        a = lo
                    if b > hi:
                        b = hi
                    if a < b:
                        if need is None:
                            need = set(range(a, b))
                        else:
                            need.update(range(a, b))
            if need is None:
                continue
            if origin not in unequal:
                # any covering piece is the reference's cut: only coverage counts
                for got_start, got_stop, nodes in decoded.get(origin, ()):
                    if got_start <= start and stop <= got_stop:
                        need.difference_update(map(position.get, nodes))
                        if not need:
                            break
            else:
                for got_start, got_stop, nodes in decoded.get(origin, ()):
                    if not need:
                        break
                    if got_start <= start and stop <= got_stop:
                        # a holder still in need takes this piece first; each
                        # run of one int object is cut and compared once; an
                        # agreeing piece (None) is the reference's cut
                        skip, end = start - got_start, stop - got_start
                        last, differs = None, False
                        for node, got_bits in nodes.items():
                            holder = position.get(node)
                            if holder in need:
                                if got_bits is not last:
                                    last = got_bits
                                    differs = (
                                        got_bits is not None
                                        and slice_atoms(got_bits, skip, end, w) != cut
                                    )
                                if differs:
                                    walk.add(holder)
                        need.difference_update(map(position.get, nodes))
            walk |= need
        else:  # every part had its reference
            replica = StoredPiece(offset, bits)
        if replica is None:
            # a missing reference: every holder takes the rule
            walk.update(recipe.holders)
        pieces.append(replica)
        if walk:
            # a walked replica equal to the reference or an earlier one is that object
            equal = {} if replica is None else {replica: replica}
            for holder in sorted(walk):  # the holders are the ascending window
                built = _source_rule(db, actual[holder], recipe, decoded, refs, strict)
                walked.append((holder, target, equal.setdefault(built, built)))
    contents = cyclic_layout(pieces, r)
    for holder, target, replica in walked:
        contents[holder][target] = replica
    return Database(params, m, contents)


def _unfold(received: dict[AtomRange, dict[int, int]]) -> Iterator[DecodeGroup]:
    # deliver's dict as decode groups: one per run of one int among a range's receivers
    for key, got in received.items():
        for bits, run in groupby(got.items(), itemgetter(1)):
            yield key, [node for node, _ in run], bits, False


def _source_rule(
    db: Database,
    node: int,
    recipe: MergeRecipe,
    decoded: dict[int, list[tuple[int, int, dict[int, int | None]]]],
    refs: list[StoredPiece | None],
    strict: bool,
) -> StoredPiece:
    """node's replica of recipe's target by the source rule: each part from the
    node's own stored segment of the origin, else from the first decoded piece
    that covers the part and lists the node. The one source of
    MergeFailureError and of short replicas."""
    w = db.params.atom_bits
    stored = db.contents.get(node, {})
    cuts: list[int | None] = []
    for origin, start, stop in recipe.parts:
        own = stored.get(origin)
        if own is not None:
            cuts.append(slice_atoms(own.bits, start, stop, w))
            continue
        for got_start, got_stop, receivers in decoded.get(origin, ()):
            if got_start <= start and stop <= got_stop and node in receivers:
                got = receivers[node]
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

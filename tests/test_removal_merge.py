"""Merge recipes: target composition, sizes, holder placement, strictness."""

import hashlib
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    MergeFailureError,
    StoredPiece,
    apply_merge,
    build_cyclic_database,
    build_merge_recipes,
    cyclic_range,
    default_params,
    deliver,
    drop_broadcast,
    flip_stored_bit,
    make_split_plan,
    rebalance_add,
    rebalance_remove,
    removal_expected_layout,
    run_scheme1,
    run_scheme2,
    run_uncoded_removal,
    slice_atoms,
    storage_set,
    verify_change,
    verify_preservation,
)
from rebalance.model import cyclic_refs


def recipe_map(params, removed):
    plan = make_split_plan(params, removed)
    return plan, {r.target: r for r in build_merge_recipes(params, plan)}


def parts(recipe):
    return list(recipe.parts)


def test_golden_recipes_6_3():
    params = default_params(6, 3)
    plan, by_target = recipe_map(params, removed=6)
    assert set(by_target) == {1, 2, 3, 4, 5}

    assert parts(by_target[1]) == [(1, 0, 70), (6, 56, 70)]
    # the odd middle extended target absorbs both corner tinies
    assert parts(by_target[2]) == [(2, 0, 70), (6, 49, 56), (4, 49, 56)]
    assert parts(by_target[3]) == [(3, 0, 70), (4, 56, 70)]
    # merged targets chain a leading slice with the next segment's trailer
    assert parts(by_target[4]) == [(4, 0, 49), (5, 35, 70)]
    assert parts(by_target[5]) == [(5, 0, 35), (6, 0, 49)]

    for t, recipe in by_target.items():
        assert recipe.holders == tuple(sorted(cyclic_range(t, 3, 5)))
        assert sum(stop - start for _, start, stop in recipe.parts) == 84  # 70 * 6/5


def test_golden_recipes_8_6():
    params = default_params(8, 6)
    plan, by_target = recipe_map(params, removed=8)
    assert set(by_target) == set(range(1, 8))
    want = {
        1: [(1, 0, 126), (8, 108, 126)],
        2: [(2, 0, 126), (3, 108, 126)],
        3: [(3, 0, 108), (4, 90, 126)],
        4: [(4, 0, 90), (5, 72, 126)],
        5: [(5, 0, 72), (6, 54, 126)],
        6: [(6, 0, 54), (7, 36, 126)],
        7: [(7, 0, 36), (8, 0, 108)],
    }
    assert {t: parts(r) for t, r in by_target.items()} == want


def test_recipes_relabel_with_removed_node():
    params = default_params(6, 3)
    _, canonical = recipe_map(params, removed=6)
    _, shifted = recipe_map(params, removed=3)
    # same structure, every origin segment shifted by the relabeling
    for t in canonical:
        want = [((o + 2) % 6 + 1, a, b) for o, a, b in parts(canonical[t])]
        assert parts(shifted[t]) == want
        assert shifted[t].holders == canonical[t].holders


@settings(max_examples=40, derandomize=True)
@given(st.integers(4, 20).flatmap(lambda k: st.tuples(st.just(k), st.integers(3, k - 1))))
def test_recipe_sizes_and_coverage(kr):
    k, r = kr
    params = default_params(k, r)
    plan = make_split_plan(params, removed=k)
    recipes = build_merge_recipes(params, plan)
    assert len(recipes) == k - 1
    target_atoms = params.segment_atoms * k // (k - 1)
    seen = {}
    for recipe in recipes:
        assert sum(stop - start for _, start, stop in recipe.parts) == target_atoms
        for origin, start, stop in recipe.parts:
            seen.setdefault(origin, []).append((start, stop))
    # every original atom lands in exactly one target
    assert set(seen) == set(range(1, k + 1))
    for origin, ranges in seen.items():
        ranges.sort()
        assert ranges[0][0] == 0 and ranges[-1][1] == params.segment_atoms
        for (_, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c, origin


def test_merged_database_shape(total_stored_atoms):
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=7)
    run = rebalance_remove(db, removed=6)
    final = run.final
    assert final.n_nodes == 5
    assert final.generation == "target"
    assert final.segment_atoms == 84
    assert sorted(final.contents) == [1, 2, 3, 4, 5]
    for node, pieces in final.contents.items():
        held = sorted(pieces)
        assert held == sorted(t for t in range(1, 6) if node in storage_set(t, 5, 3))
        assert all(p.n_atoms == 84 for p in pieces.values())
    assert total_stored_atoms(final) == 3 * 5 * 84


def test_merged_target_concatenates_in_listed_order():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=7)
    run = rebalance_remove(db, removed=6)
    w = params.atom_bits
    lead = slice_atoms(db.stored(4, 4).bits, 0, 49, w)
    trail = slice_atoms(db.stored(5, 5).bits, 35, 70, w)
    want = lead | (trail << (49 * w))
    got = run.final.stored(4, 4)
    assert got.bits == want
    assert got.n_atoms == 49 + 35


def test_strict_merge_requires_every_part(total_stored_atoms):
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, removed=6)
    recipes = build_merge_recipes(params, plan)
    # the first holder of target 1 in holder order, and its first unsourced part
    want = "node 3 cannot source atoms [56:70] of segment 6 for target 1"
    with pytest.raises(MergeFailureError, match=f"^{re.escape(want)}$"):
        apply_merge(db, plan, recipes, {})
    # lenient mode produces short replicas instead of raising
    partial = apply_merge(db, plan, recipes, {}, strict=False)
    assert total_stored_atoms(partial) < 3 * 5 * 84


def test_holders_follow_relabeling():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=3)
    plan = make_split_plan(params, removed=3)
    recipes = build_merge_recipes(params, plan)
    log = run_scheme1(db, plan)
    received = deliver(db, log, plan)
    final = apply_merge(db, plan, recipes, received)
    # targets appear under survivor labels, replicas identical across holders
    for recipe in recipes:
        copies = {final.stored(c, recipe.target).bits for c in recipe.holders}
        assert len(copies) == 1
    # content is sourced from the shifted originals: target 1 starts with the
    # actual segment stored at plan.actual[1]
    lead = final.stored(1, 1).bits
    lead &= (1 << (70 * params.atom_bits)) - 1
    assert lead == db.stored(plan.actual[1], plan.actual[1]).bits


def test_merge_total_load_identity(total_stored_atoms):
    # stored volume after merge equals r * (K-1) target segments regardless of K
    for k, r in [(5, 3), (7, 5), (10, 4)]:
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=1)
        run = rebalance_remove(db, removed=k)
        per = params.segment_atoms * k // (k - 1)
        assert total_stored_atoms(run.final) == r * (k - 1) * per
        assert Fraction(per, params.segment_atoms) == Fraction(k, k - 1)


def test_replicas_share_one_int_per_source_set():
    params = default_params(12, 9)
    db = build_cyclic_database(params, seed=2)
    run = rebalance_remove(db, 5, "scheme2")
    plan, recipes = run.plan, run.recipes
    received = deliver(db, run.log, plan)
    final = apply_merge(db, plan, recipes, received)

    # receivers that decode the same operand hold one interned int
    by_range = [list(got.values()) for got in received.values()]
    assert any(len(copies) > 1 for copies in by_range)
    for copies in by_range:
        assert all(c is copies[0] for c in copies)

    def sources(holder, recipe):
        # the (source int, offset) each part resolves to at this holder
        node = plan.actual[holder]
        key = []
        for origin, start, stop in recipe.parts:
            base = db.stored(node, origin)
            if base is not None:
                key.append((id(base.bits), start))
            else:
                key.append(next(
                    (id(got[node]), start - got_start)
                    for (got_origin, got_start, got_stop), got in received.items()
                    if node in got
                    and got_origin == origin and got_start <= start and stop <= got_stop
                ))
        return tuple(key)

    shared = 0
    for recipe in recipes:
        groups = {}
        for holder in recipe.holders:
            groups.setdefault(sources(holder, recipe), []).append(holder)
        for holders in groups.values():
            first = final.stored(holders[0], recipe.target).bits
            assert all(final.stored(h, recipe.target).bits is first for h in holders)
            shared += len(holders) - 1
        values = {final.stored(h, recipe.target).bits for h in recipe.holders}
        assert len(values) == 1
    assert shared > 0

    # a flipped bit in a shared replica damages only the node it was flipped at
    target = recipes[0].target
    node = recipes[0].holders[1]
    bad = flip_stored_bit(final, node, target, 3)
    assert final.stored(recipes[0].holders[0], target).bits is final.stored(node, target).bits
    rep = verify_change(replace(run, final=bad), seed=2)
    assert rep.findings
    for _, msg in rep.findings:
        assert f"node {node}" in msg and f"segment {target}" in msg
    assert verify_change(replace(run, final=final), seed=2).ok

    # a holder's own damaged source is never shared with, or replaced by, another's
    lead = plan.actual[1]
    tampered = apply_merge(flip_stored_bit(db, lead, lead, 0), plan, recipes, received)
    rep = verify_preservation(tampered, removal_expected_layout(recipes), params, seed=2)
    assert [msg.split(" payload")[0] for _, msg in rep.findings] == ["node 1 target segment 1"]


SCHEDULES = {"scheme1": run_scheme1, "scheme2": run_scheme2, "uncoded": run_uncoded_removal}


def merge_outcome(merge, db, plan, recipes, received, strict):
    """The error text, or every stored (node, target) with its size and payload."""
    try:
        final = merge(db, plan, recipes, received, strict=strict)
    except MergeFailureError as exc:
        return str(exc)
    return (
        final.n_nodes,
        final.generation,
        final.segment_atoms,
        [
            (node, [(t, p.n_atoms, p.bits) for t, p in items.items()])
            for node, items in final.contents.items()
        ],
    )


@pytest.mark.parametrize("k", range(4, 11))
def test_merge_matches_the_per_holder_oracle(k, oracle_merge):
    rng = random.Random(k)
    errors = short = 0
    for r in range(3, k):
        params = default_params(k, r)
        for name, schedule in SCHEDULES.items():
            removed = rng.randint(1, k)
            plan = make_split_plan(params, removed)
            recipes = build_merge_recipes(params, plan)
            clean = build_cyclic_database(params, seed=rng.randrange(1 << 16))
            log = schedule(clean, plan)
            # a flipped bit in one survivor's stored segment, before the broadcasts
            node = rng.choice([n for n in range(1, k + 1) if n != removed])
            index = rng.choice(sorted(clean.contents[node]))
            flipped = flip_stored_bit(clean, node, index, rng.randrange(params.segment_bits))
            dropped = drop_broadcast(log, rng.randrange(len(log.broadcasts)))
            variants = [
                (clean, deliver(clean, log, plan)),
                (clean, deliver(clean, dropped, plan)),
                (flipped, deliver(flipped, schedule(flipped, plan), plan)),
            ]
            for db, received in variants:
                for strict in (True, False):
                    want = merge_outcome(oracle_merge, db, plan, recipes, received, strict)
                    got = merge_outcome(apply_merge, db, plan, recipes, received, strict)
                    assert got == want, (k, r, name, removed, strict)
                    if strict:
                        errors += isinstance(want, str)
                    else:
                        short += any(n < want[2] for _, items in want[3] for _, n, _ in items)
    # the dropped broadcasts starve some holder in every K
    assert errors > 0 and short > 0


@pytest.mark.parametrize("origin", [0, 7])
def test_a_part_outside_the_segments_merges_as_the_walk(origin, oracle_merge):
    # a certified run cuts each part from its origin's reference; an origin
    # outside 1..n has none, so the run is walked and fails as the oracle does
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, 6)
    first, *recipes = build_merge_recipes(params, plan)
    (_, start, stop), *parts = first.parts
    recipes = (first._replace(parts=((origin, start, stop), *parts)), *recipes)
    received = deliver(db, run_scheme1(db, plan), plan)
    for strict in (True, False):
        want = merge_outcome(oracle_merge, db, plan, recipes, received, strict)
        assert merge_outcome(apply_merge, db, plan, recipes, received, strict) == want, strict
        if strict:
            assert want == f"node 1 cannot source atoms [{start}:{stop}] of segment {origin} for target 1"
        else:
            # every holder of target 1 keeps a replica short of that part
            full = sum(b - a for _, a, b in first.parts)
            sizes = {n for _, items in want[3] for t, n, _ in items if t == 1}
            assert sizes == {full - (stop - start)}


@pytest.mark.parametrize("arrival", ["whole-first", "whole-last", "short-first"])
def test_overlapping_received_pieces_are_taken_in_arrival_order(arrival, oracle_merge):
    params = default_params(12, 9)
    db = build_cyclic_database(params, seed=6)
    run = rebalance_remove(db, 5, "scheme2")
    plan, recipes = run.plan, run.recipes
    clean = deliver(db, run.log, plan)
    # a holder that sources a part from a decoded piece starting where the part starts
    recipe, holder, (origin, start, stop) = next(
        (rec, h, part)
        for rec in recipes
        for h in rec.holders
        for part in rec.parts
        if db.stored(plan.actual[h], part[0]) is None
    )
    node = plan.actual[holder]
    assert (origin, start) in {key[:2] for key, got in clean.items() if node in got}
    assert stop - start > 1
    # other content: a whole segment that covers the part, or a one-atom piece
    # at the part's start that does not; neither range is delivered already
    whole = (origin, 0, params.segment_atoms)
    short = (origin, start, start + 1)
    assert whole not in clean and short not in clean
    received = {
        "whole-first": {whole: {node: (1 << params.segment_bits) - 1}, **clean},
        "whole-last": {**clean, whole: {node: (1 << params.segment_bits) - 1}},
        "short-first": {short: {node: (1 << params.atom_bits) - 1}, **clean},
    }[arrival]
    want = merge_outcome(oracle_merge, db, plan, recipes, received, True)
    assert merge_outcome(apply_merge, db, plan, recipes, received, True) == want
    final = apply_merge(db, plan, recipes, received)
    changed = final.stored(holder, recipe.target).bits != run.final.stored(holder, recipe.target).bits
    assert changed == (arrival == "whole-first")


def test_a_holder_missing_from_its_parts_range_is_covered_by_a_wider_piece(
    rule_calls, oracle_merge
):
    # in the coverage check of an agreeing origin, a holder that the part's own
    # range does not list must still count as covered by another piece that
    # covers the part and lists it, with no walk
    params = default_params(12, 9)
    db = build_cyclic_database(params, seed=6)
    run = rebalance_remove(db, 5, "scheme2")
    plan, recipes = run.plan, run.recipes
    clean = deliver(db, run.log, plan)
    holder, (origin, start, stop) = next(
        (h, part)
        for rec in recipes
        for h in rec.holders
        for part in rec.parts
        if part in clean and plan.actual[h] in clean[part]
    )
    node = plan.actual[holder]
    received = dict(clean)
    own = clean[origin, start, stop]
    received[origin, start, stop] = {n: bits for n, bits in own.items() if n != node}
    # the whole segment, equal to the reference, for that node alone
    received[origin, 0, params.segment_atoms] = {node: db.stored(origin, origin).bits}
    rule_calls.clear()
    final = apply_merge(db, plan, recipes, received)
    assert rule_calls == []
    assert merge_outcome(apply_merge, db, plan, recipes, received, True) == merge_outcome(
        oracle_merge, db, plan, recipes, received, True
    )
    assert final.contents == run.final.contents


@pytest.mark.parametrize("k, r", [(12, 9), (25, 20)])
@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
def test_clean_replicas_of_a_target_are_one_int(k, r, scheme):
    db = build_cyclic_database(default_params(k, r), seed=k)
    final = rebalance_remove(db, 5, scheme).final
    for target in range(1, k):
        holders = [n for n, items in final.contents.items() if target in items]
        assert len({id(final.stored(n, target).bits) for n in holders}) == 1
    stored = {id(p.bits) for items in final.contents.values() for p in items.values()}
    assert len(stored) == k - 1


def test_a_flipped_source_bit_shares_only_outside_the_cut_range():
    params = default_params(12, 9)
    db = build_cyclic_database(params, seed=2)
    run = rebalance_remove(db, 5, "scheme2")
    plan, recipes = run.plan, run.recipes
    received = deliver(db, run.log, plan)
    # a regrown target leads with an opening slice (origin, 0, stop) of its own segment
    recipe = recipes[-1]
    origin, start, stop = recipe.parts[0]
    assert start == 0 and stop < params.segment_atoms
    holder = next(h for h in recipe.holders if db.stored(plan.actual[h], origin))
    node = plan.actual[holder]
    w = params.atom_bits

    def replicas(bit):
        final = apply_merge(flip_stored_bit(db, node, origin, bit), plan, recipes, received)
        return {h: final.stored(h, recipe.target).bits for h in recipe.holders}

    # past the slice: the holder cuts the same value, so it shares the one int
    outside = replicas(stop * w)
    assert len({id(bits) for bits in outside.values()}) == 1
    # inside the slice: the holder alone keeps its own, different int
    inside = replicas((stop - 1) * w)
    others = {id(bits) for h, bits in inside.items() if h != holder}
    assert len(others) == 1 and id(inside[holder]) not in others
    assert inside[holder] != outside[holder]


def shared_outcome(db, plan, recipes, received, strict):
    """The error text, or the node count and merged_stream, in which replicas
    that are one object carry one number."""
    try:
        final = apply_merge(db, plan, recipes, received, strict=strict)
    except MergeFailureError as exc:
        return str(exc)
    return final.n_nodes, merged_stream(final)


def merged_stream(final):
    """Every stored (node, target, n_atoms, bits) in node and key order, with the
    number of its piece object by first appearance."""
    first = {}
    return [
        (node, t, p.n_atoms, p.bits, first.setdefault(id(p), len(first)))
        for node, items in final.contents.items()
        for t, p in items.items()
    ]


def merge_variants(db, plan, schedule, rng):
    """(name, database, received): a clean removal, each broadcast dropped, a
    stored bit flipped before the broadcasts, a broadcast payload bit flipped,
    and one replica replaced by an equal int that is not shared."""
    params = db.params
    log = schedule(db, plan)
    yield "clean", db, deliver(db, log, plan)
    for i in range(len(log.broadcasts)):
        yield "dropped", db, deliver(db, drop_broadcast(log, i), plan)
    node = rng.randint(1, params.n_nodes)
    index = rng.choice(sorted(db.contents[node]))
    flipped = flip_stored_bit(db, node, index, rng.randrange(params.segment_bits))
    yield "stored bit", flipped, deliver(flipped, schedule(flipped, plan), plan)
    broadcasts = list(log.broadcasts)
    i = rng.choice([i for i, b in enumerate(broadcasts) if b.payload_atoms])
    bit = rng.randrange(broadcasts[i].payload_atoms * params.atom_bits)
    broadcasts[i] = broadcasts[i]._replace(payload=broadcasts[i].payload ^ (1 << bit))
    yield "payload bit", db, deliver(db, replace(log, broadcasts=broadcasts), plan)
    node = rng.randint(1, params.n_nodes)
    index = rng.choice(sorted(db.contents[node]))
    piece = db.contents[node][index]
    copy = StoredPiece(piece.n_atoms, piece.bits ^ 1 ^ 1)
    assert copy.bits == piece.bits and copy.bits is not piece.bits
    unshared = replace(db, contents={n: dict(items) for n, items in db.contents.items()})
    unshared.contents[node][index] = copy
    yield "unshared", unshared, deliver(unshared, schedule(unshared, plan), plan)


def test_certified_merges_equal_the_walk(every_node_deviates, rule_calls, expected_rule_calls):
    rng = random.Random(13)
    outcomes = errors = 0
    dropped = Counter()
    for k in range(4, 13):
        for r in range(3, k):
            params = default_params(k, r)
            db = build_cyclic_database(params, seed=k * r)
            for name, schedule in SCHEDULES.items():
                for removed in (1, k):
                    plan = make_split_plan(params, removed)
                    recipes = build_merge_recipes(params, plan)
                    actual = plan.actual[:k]
                    for kind, case, received in merge_variants(db, plan, schedule, rng):
                        expected = expected_rule_calls(case, actual, recipes, received)
                        where = (k, r, name, removed, kind)
                        if kind == "clean":
                            assert expected == [], where
                        if kind == "dropped":
                            # a broadcast whose pieces no holder misses stays
                            # certified; a coverage miss walks every holder
                            dropped["walked" if expected else "certified"] += 1
                        for strict in (True, False):
                            rule_calls.clear()
                            fast = shared_outcome(case, plan, recipes, received, strict)
                            # the source rule runs at no holder of a certified
                            # input, else at every holder, up to the first that fails
                            if isinstance(fast, str):
                                assert rule_calls and rule_calls == expected[: len(rule_calls)], where
                            else:
                                assert rule_calls == expected, where
                            with every_node_deviates():
                                walk = shared_outcome(case, plan, recipes, received, strict)
                            assert fast == walk, (*where, strict)
                            outcomes += 1
                            errors += isinstance(fast, str)
                            if not isinstance(fast, str):
                                # replicas of one target equal in (n_atoms, bits) are one object
                                number = {}
                                for _, t, n_atoms, bits, obj in fast[1]:
                                    assert number.setdefault((t, n_atoms, bits), obj) == obj
    assert outcomes > 6000 and errors > 0
    assert dropped["walked"] > 0 and dropped["certified"] > 0, dropped


def test_dropped_broadcasts_walk_exactly_where_a_holder_starves(rule_calls, expected_rule_calls):
    # the coverage proof's window masks wrap at K-1 holders and K segments; a
    # removed node mid-cluster rotates the holder labels against the segments
    seen = Counter()
    for k in range(4, 17):
        removed = k // 2 + 1
        for r in range(3, k):
            params = default_params(k, r)
            db = build_cyclic_database(params, seed=k * r)
            plan = make_split_plan(params, removed)
            recipes = build_merge_recipes(params, plan)
            actual = plan.actual[:k]
            for name, schedule in SCHEDULES.items():
                log = schedule(db, plan)
                for i in range(len(log.broadcasts)):
                    received = deliver(db, drop_broadcast(log, i), plan)
                    expected = expected_rule_calls(db, actual, recipes, received)
                    where = (k, r, name, i)
                    rule_calls.clear()
                    try:
                        apply_merge(db, plan, recipes, received)
                    except MergeFailureError:
                        assert rule_calls and rule_calls == expected[: len(rule_calls)], where
                        seen["failed"] += 1
                    else:
                        assert rule_calls == expected, where
                        seen["certified"] += 1
    # strict: a walked run fails at its first starved holder
    assert seen["failed"] > 0 and seen["certified"] > 0, seen


def disagreeing_variants(db, plan, schedule, rng):
    """(kind, database, received) in which some decoded piece is not the
    reference's cut of its range: a sibling bit flipped in one receiver's
    stored segment, the reference where the receiver holds it, under each
    coded broadcast; one payload bit flipped, within every operand, in a copy
    of each broadcast of the log; and that flip with the next broadcast
    dropped, which starves some holder; and, in each range of several
    receivers, a new int object per receiver, the second one unequal."""
    w = db.params.atom_bits
    log = schedule(db, plan)
    clean = deliver(db, log, plan)
    for (origin, start, stop), got in clean.items():
        if len(got) > 1:
            bit = rng.randrange((stop - start) * w)
            copies = {n: bits ^ (i == 1) << bit for i, (n, bits) in enumerate(got.items())}
            yield "one receiver's copy", db, {**clean, (origin, start, stop): copies}
    for b in log.broadcasts:
        if len(b.operands) < 2 or not b.operands[1].superscript:
            continue
        sibling = b.operands[1]
        receivers = b.operands[0].superscript
        node = sibling.base if sibling.base in receivers else rng.choice(receivers)
        flipped = flip_stored_bit(db, node, sibling.base, sibling.atom_start * w)
        yield "stored sibling", flipped, deliver(flipped, log, plan)
    for i, b in enumerate(log.broadcasts):
        if not b.operands:
            continue
        bit = rng.randrange(min(op.size_atoms for op in b.operands) * w)
        broadcasts = list(log.broadcasts)
        broadcasts[i] = b._replace(payload=b.payload ^ (1 << bit))
        mutated = replace(log, broadcasts=broadcasts)
        yield "payload bit", db, deliver(db, mutated, plan)
        if i + 1 < len(broadcasts):
            yield "payload bit, dropped", db, deliver(db, drop_broadcast(mutated, i + 1), plan)


def test_a_disagreeing_piece_merges_as_the_walk(every_node_deviates, rule_calls, expected_rule_calls):
    # one decoded piece unequal to the reference's cut of its range must send
    # the merge to the walk of every holder
    rng = random.Random(23)
    seen = Counter()
    for k in range(4, 13):
        for r in range(3, k):
            params = default_params(k, r)
            db = build_cyclic_database(params, seed=k + r)
            w = params.atom_bits
            for name, schedule in SCHEDULES.items():
                removed = rng.randint(1, k)
                plan = make_split_plan(params, removed)
                recipes = build_merge_recipes(params, plan)
                actual = plan.actual[:k]
                for kind, case, received in disagreeing_variants(db, plan, schedule, rng):
                    where = (k, r, name, removed, kind)
                    refs, deviating = cyclic_refs(case.contents, k, r)
                    assert any(
                        bits != slice_atoms(refs[origin - 1].bits, start, stop, w)
                        for (origin, start, stop), got in received.items()
                        for bits in got.values()
                    ), where
                    expected = expected_rule_calls(case, actual, recipes, received)
                    assert len(expected) == r * (k - 1), where
                    # walked for an unequal piece alone, not for a survivor's own storage
                    seen[kind, "certified layout"] += deviating.isdisjoint(actual[1:])
                    for strict in (True, False):
                        rule_calls.clear()
                        fast = shared_outcome(case, plan, recipes, received, strict)
                        if isinstance(fast, str):
                            assert rule_calls and rule_calls == expected[: len(rule_calls)], where
                            seen[kind, "error"] += 1
                        else:
                            assert rule_calls == expected, where
                        with every_node_deviates():
                            walk = shared_outcome(case, plan, recipes, received, strict)
                        assert fast == walk, (*where, strict)
                        seen[kind] += 1
    assert seen["stored sibling"] > 500 and seen["payload bit"] > 2000, seen
    assert seen["one receiver's copy"] > 500, seen
    assert all(seen[kind, "certified layout"] for kind in ("payload bit", "one receiver's copy")), seen
    assert seen["payload bit, dropped", "error"] > 0, seen


@pytest.mark.parametrize("change", [*sorted(SCHEDULES), "addition"])
def test_a_damaged_survivor_walks_every_holder(change, every_node_deviates, rule_calls):
    params = default_params(40, 30)
    db = build_cyclic_database(params, seed=11)
    removed, w = 7, params.atom_bits

    def run(case):
        # this change's ChangeRun on case; rule_calls holds where the source rule ran
        rule_calls.clear()
        if change == "addition":
            return rebalance_add(case)
        return rebalance_remove(case, removed, change)

    clean = run(db)
    log, plan = clean.log, clean.plan
    assert rule_calls == []
    # a survivor's replica of a segment whose reference is another node's,
    # flipped at an atom that no broadcast the survivor sends carries
    node = 20
    index = next(i for i in db.contents[node] if i != node)
    sent = {
        atom
        for b in log.broadcasts
        if b.sender == node
        for op in b.operands
        if op.base == index
        for atom in range(op.atom_start, op.atom_stop)
    }
    atom = next(a for a in range(params.segment_atoms) if a not in sent)
    flipped = flip_stored_bit(db, node, index, atom * w)
    damaged = run(flipped).final
    # a deviating survivor sends the merge to the walk: every holder of every
    # target, in target and holder order
    walk = [(rec.target, plan.actual[h]) for rec in plan.recipes for h in rec.holders]
    assert rule_calls == walk
    with every_node_deviates():
        walked = run(flipped).final
    assert merged_stream(walked) == merged_stream(damaged)
    assert len(rule_calls) == len(damaged.contents) * params.replication
    if change != "addition":
        # the removed node's replicas feed no holder: nothing is walked
        other = next(i for i in db.contents[removed] if i != removed)
        flipped_removed = run(flip_stored_bit(db, removed, other, 0)).final
        assert rule_calls == []
        assert merged_stream(flipped_removed) == merged_stream(clean.final)


# sha256 of a removal's merged (node, index, n_atoms, bits) stream at (40,30),
# node 7 removed, seed 7: every schedule ends in the same survivor database
REMOVE_40_30_NODE_7_SEED_7 = "f7d1ff34f99ebb922cce6884aa1be01cf1198b9ab214903c7ba01ce6c540141d"


@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
def test_removal_stream_is_pinned_at_40_30(scheme, rule_calls):
    run = rebalance_remove(build_cyclic_database(default_params(40, 30), seed=7), 7, scheme)
    # a clean removal of this size is merged per target, never holder by holder
    assert rule_calls == []
    h = hashlib.sha256()
    for node, items in run.final.contents.items():
        for index, piece in items.items():
            h.update(f"{node} {index} {piece.n_atoms} {piece.bits:x}\n".encode())
    assert h.hexdigest() == REMOVE_40_30_NODE_7_SEED_7

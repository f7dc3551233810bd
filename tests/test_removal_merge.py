"""Merge recipes: target composition, sizes, holder placement, strictness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    MergeFailureError,
    SegmentLabel,
    SystemParams,
    apply_merge,
    build_cyclic_database,
    build_merge_recipes,
    cyclic_range,
    default_params,
    deliver,
    flip_stored_bit,
    make_split_plan,
    rebalance_remove,
    removal_expected_layout,
    run_scheme1,
    run_scheme2,
    slice_atoms,
    storage_set,
    verify_cyclic_balanced,
    verify_preservation,
)


def recipe_map(params, removed):
    plan = make_split_plan(params, removed)
    return plan, {r.target.index: r for r in build_merge_recipes(params, plan)}


def parts(recipe):
    return [(p.origin, p.atom_start, p.atom_stop) for p in recipe.parts]


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
        assert sum(p.size_atoms for p in recipe.parts) == 84  # 70 * 6/5


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
        assert sum(p.size_atoms for p in recipe.parts) == target_atoms
        for p in recipe.parts:
            seen.setdefault(p.origin, []).append((p.atom_start, p.atom_stop))
    # every original atom lands in exactly one target
    assert set(seen) == set(range(1, k + 1))
    for origin, ranges in seen.items():
        ranges.sort()
        assert ranges[0][0] == 0 and ranges[-1][1] == params.segment_atoms
        for (_, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c, origin


def test_merged_database_shape():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=7)
    run = rebalance_remove(db, removed=6)
    final = run.final
    assert final.n_nodes == 5
    assert final.generation == "target"
    assert final.segment_atoms == 84
    assert sorted(final.contents) == [1, 2, 3, 4, 5]
    for node, pieces in final.contents.items():
        held = sorted(lab.index for lab in pieces)
        assert held == sorted(t for t in range(1, 6) if node in storage_set(t, 5, 3))
        assert all(p.n_atoms == 84 for p in pieces.values())
    assert final.total_stored_atoms() == 3 * 5 * 84


def test_merged_target_concatenates_in_listed_order():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=7)
    run = rebalance_remove(db, removed=6)
    w = params.atom_bits
    lead = slice_atoms(db.segment_bits_at(4, 4), 0, 49, w)
    trail = slice_atoms(db.segment_bits_at(5, 5), 35, 70, w)
    want = lead | (trail << (49 * w))
    got = run.final.stored(4, SegmentLabel(4, "target"))
    assert got.bits == want
    assert got.provenance == ((4, 0, 49), (5, 35, 70))


def test_strict_merge_requires_every_part():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, removed=6)
    recipes = build_merge_recipes(params, plan)
    with pytest.raises(MergeFailureError):
        apply_merge(db, plan, recipes, {n: [] for n in range(1, 6)})
    # lenient mode produces short replicas instead of raising
    partial = apply_merge(db, plan, recipes, {n: [] for n in range(1, 6)}, strict=False)
    assert partial.total_stored_atoms() < 3 * 5 * 84


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
    # actual segment stored at plan.to_actual(1)
    lead = final.stored(1, SegmentLabel(1, "target")).bits
    lead &= (1 << (70 * params.atom_bits)) - 1
    assert lead == db.segment_bits_at(plan.to_actual(1), plan.to_actual(1))


def test_merge_total_load_identity():
    # stored volume after merge equals r * (K-1) target segments regardless of K
    for k, r in [(5, 3), (7, 5), (10, 4)]:
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=1)
        run = rebalance_remove(db, removed=k)
        per = params.segment_atoms * k // (k - 1)
        assert run.final.total_stored_atoms() == r * (k - 1) * per
        assert Fraction(per, params.segment_atoms) == Fraction(k, k - 1)


def test_replicas_share_one_int_per_source_set():
    params = default_params(12, 9)
    db = build_cyclic_database(params, seed=2)
    plan = make_split_plan(params, removed=5)
    recipes = build_merge_recipes(params, plan)
    received = deliver(db, run_scheme2(db, plan), plan)
    final = apply_merge(db, plan, recipes, received)

    # receivers that decode the same operand hold one interned int
    by_range = {}
    for pieces in received.values():
        for origin, start, stop, bits in pieces:
            by_range.setdefault((origin, start, stop), []).append(bits)
    assert any(len(copies) > 1 for copies in by_range.values())
    for copies in by_range.values():
        assert all(c is copies[0] for c in copies)

    def sources(holder, recipe):
        # the (source int, offset) each part resolves to at this holder
        node = plan.to_actual(holder)
        key = []
        for part in recipe.parts:
            base = db.segment_bits_at(node, part.origin)
            if base is not None:
                key.append((id(base), part.atom_start))
            else:
                key.append(next(
                    (id(bits), part.atom_start - start)
                    for origin, start, stop, bits in received[node]
                    if origin == part.origin and start <= part.atom_start and part.atom_stop <= stop
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
    bad = flip_stored_bit(final, node, target.index, 3)
    assert final.stored(recipes[0].holders[0], target).bits is final.stored(node, target).bits
    shape = SystemParams(11, 9, params.segment_bits * 12 // 11)
    rep = verify_cyclic_balanced(bad, shape).merged(
        verify_preservation(bad, removal_expected_layout(recipes), params, seed=2)
    )
    assert rep.findings
    for _, msg in rep.findings:
        assert f"node {node}" in msg and f"segment {target.index}" in msg
    assert verify_cyclic_balanced(final, shape).ok

    # a holder's own damaged source is never shared with, or replaced by, another's
    lead = plan.to_actual(1)
    tampered = apply_merge(flip_stored_bit(db, lead, lead, 0), plan, recipes, received)
    rep = verify_preservation(tampered, removal_expected_layout(recipes), params, seed=2)
    assert [msg.split(" payload")[0] for _, msg in rep.findings] == ["node 1 target segment 1"]

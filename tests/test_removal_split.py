"""Split plans: golden layouts, partition invariants, relabeling."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from rebalance import (
    ParameterError,
    UnsupportedConfigError,
    build_merge_recipes,
    cyclic_range,
    default_params,
    make_split_plan,
    storage_set,
)
from rebalance.removal_schemes import make_removal_plan, removal_slots

kr = st.integers(min_value=4, max_value=30).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=3, max_value=k - 1))
)


def as_tuple(piece):
    return (piece.base, piece.superscript, piece.atom_start, piece.atom_stop)


def middles(plan):
    # (leading, trailing) piece of each middle segment, in segment order
    return list(zip(plan.openings[1:], plan.closings[:-1], strict=True))


def test_golden_split_6_3():
    plan = make_split_plan(default_params(6, 3), removed=6)
    # low corner W_4: big to node 1, tiny to {2,3}, one pair to {3}
    assert as_tuple(plan.low_corner.big) == (4, (1,), 0, 49)
    assert as_tuple(plan.low_corner.tiny) == (4, (2, 3), 49, 56)
    assert [as_tuple(p) for p in plan.low_corner.pairs] == [(4, (3,), 56, 70)]
    # middle W_5 splits into equal halves
    assert [as_tuple(p) for p in middles(plan)[0]] == [(5, (2,), 0, 35), (5, (4,), 35, 70)]
    # high corner W_6 mirrors the low one
    assert as_tuple(plan.high_corner.big) == (6, (5,), 0, 49)
    assert as_tuple(plan.high_corner.tiny) == (6, (3, 4), 49, 56)
    assert [as_tuple(p) for p in plan.high_corner.pairs] == [(6, (3,), 56, 70)]
    assert len(plan.all_pieces()) == 8


def test_golden_split_8_6():
    plan = make_split_plan(default_params(8, 6), removed=8)
    assert as_tuple(plan.low_corner.big) == (3, (1,), 0, 108)
    assert plan.low_corner.tiny is None  # K-r even: no tiny piece
    assert [as_tuple(p) for p in plan.low_corner.pairs] == [(3, (2,), 108, 126)]
    assert as_tuple(plan.high_corner.big) == (8, (7,), 0, 108)
    assert [as_tuple(p) for p in plan.high_corner.pairs] == [(8, (6,), 108, 126)]
    expected_middles = [
        [(4, (2,), 0, 90), (4, (3,), 90, 126)],
        [(5, (3,), 0, 72), (5, (4,), 72, 126)],
        [(6, (4,), 0, 54), (6, (5,), 54, 126)],
        [(7, (5,), 0, 36), (7, (6,), 36, 126)],
    ]
    assert [[as_tuple(a), as_tuple(b)] for a, b in middles(plan)] == expected_middles
    assert len(plan.all_pieces()) == 12


def test_split_plan_relabels_for_other_removed_node():
    plan = make_split_plan(default_params(6, 3), removed=3)
    # canonical W_4..W_6 become actual W_1..W_3; canonical survivor s maps to s-3 mod 6
    assert as_tuple(plan.low_corner.big) == (1, (4,), 0, 49)
    assert as_tuple(plan.low_corner.tiny) == (1, (5, 6), 49, 56)
    assert [as_tuple(p) for p in middles(plan)[0]] == [(2, (5,), 0, 35), (2, (1,), 35, 70)]
    assert as_tuple(plan.high_corner.big) == (3, (2,), 0, 49)
    assert as_tuple(plan.high_corner.tiny) == (3, (1, 6), 49, 56)
    assert plan.actual[6] == 3
    assert plan.actual == (0, 4, 5, 6, 1, 2, 3)


def test_role_accessors_cover_the_plan():
    for k in range(4, 26):
        for r in range(3, k):
            params = default_params(k, r)
            plan = make_split_plan(params, removed=r)  # one node per pair, never K
            # the openings of canonical segments K-r+1..K-1 and the closings
            # of K-r+2..K: r-1 of each, the corners' big pieces at the ends
            assert len(plan.openings) == len(plan.closings) == r - 1
            assert plan.openings[0] == plan.low_corner.big
            assert plan.closings[-1] == plan.high_corner.big
            # opening and closing pieces plus both corners' uncoded batches
            # are every piece of the plan, each exactly once
            by_role = (
                plan.openings + plan.closings
                + plan.low_corner.broadcast_batch()
                + plan.high_corner.broadcast_batch()
            )
            assert sorted(map(as_tuple, by_role)) == sorted(map(as_tuple, plan.all_pieces()))
            assert len(set(map(as_tuple, by_role))) == len(by_role)
            # regrown target s is the opening piece of s, then the closing piece of s+1
            recipes = {rec.target: rec for rec in build_merge_recipes(params, plan)}
            for s, opening, closing in zip(range(k - r + 1, k), plan.openings, plan.closings):
                assert list(recipes[s].parts) == [
                    (q.base, q.atom_start, q.atom_stop) for q in (opening, closing)
                ], (k, r, s)


def test_make_split_plan_rejects_bad_input():
    with pytest.raises(UnsupportedConfigError):
        make_split_plan(default_params(6, 2), removed=6)
    with pytest.raises(ParameterError):
        make_split_plan(default_params(6, 3), removed=7)
    with pytest.raises(ParameterError):
        make_split_plan(default_params(6, 3), removed=0)


def test_corner_label_collision_at_max_replication():
    # K-r = 1: big and tiny of each corner carry the same superscript and are
    # distinguished only by their atom ranges
    plan = make_split_plan(default_params(6, 5), removed=6)
    low, high = plan.low_corner, plan.high_corner
    assert low.big.superscript == low.tiny.superscript == (1,)
    assert low.big.size_atoms != low.tiny.size_atoms
    assert high.big.superscript == high.tiny.superscript == (5,)
    assert low.pairs == () and high.pairs == ()


@settings(derandomize=True, max_examples=120)
@given(kr)
def test_split_partitions_every_segment(t):
    k, r = t
    params = default_params(k, r)
    plan = make_split_plan(params, removed=k)
    hu = params.half_unit_atoms
    by_base = {}
    for piece in plan.all_pieces():
        by_base.setdefault(piece.base, []).append(piece)
        assert piece.size_atoms % hu == 0
        assert piece.size_atoms > 0
    assert sorted(by_base) == list(range(k - r + 1, k + 1))
    for base, pieces in by_base.items():
        spans = sorted((p.atom_start, p.atom_stop) for p in pieces)
        cursor = 0
        for start, stop in spans:
            assert start == cursor, (base, spans)
            cursor = stop
        assert cursor == params.segment_atoms


@settings(derandomize=True, max_examples=120)
@given(kr)
def test_split_superscripts_avoid_current_holders(t):
    # a piece is addressed only to survivors that do not already store its base
    k, r = t
    params = default_params(k, r)
    plan = make_split_plan(params, removed=k)
    for piece in plan.all_pieces():
        sup = set(piece.superscript)
        assert sup, piece
        assert sup <= set(range(1, k)), piece
        assert not sup & storage_set(piece.base, k, r), piece


@settings(derandomize=True, max_examples=60)
@given(kr.flatmap(lambda t: st.tuples(st.just(t[0]), st.just(t[1]),
                                      st.integers(min_value=1, max_value=t[0]))))
def test_split_relabeling_preserves_shape(t):
    k, r, removed = t
    params = default_params(k, r)
    canonical = make_split_plan(params, removed=k)
    shifted = make_split_plan(params, removed=removed)
    for a, b in zip(canonical.all_pieces(), shifted.all_pieces()):
        assert (a.atom_start, a.atom_stop) == (b.atom_start, b.atom_stop)
        assert len(a.superscript) == len(b.superscript)
    # the split touches exactly the segments the removed node held
    bases = {p.base for p in shifted.all_pieces()}
    assert bases == {i for i in range(1, k + 1) if removed in storage_set(i, k, r)}
    # no piece is addressed to the removed node
    for piece in shifted.all_pieces():
        assert removed not in piece.superscript


# sha256 of every plan's pieces, schedules and recipes reprs, per (K, r, node)
# in ascending order; make_removal_plan must give the same schedules, recipes
# and survivor labels. The same loop over every node for all K <= 30 reads
# 6e237219c8de00ab6b823ba592516b3d26ba982b791a47ba1ebe517ed61dbbf9
PLAN_DIGEST = "f5db6d4681b3db3e6e81f55cf36975e328dbcd28eeafe54be8a3f267668009b5"


def plan_digest(kmax, every_node_up_to):
    h = hashlib.sha256()
    for k in range(4, kmax + 1):
        if k <= every_node_up_to:
            nodes = range(1, k + 1)
        else:
            nodes = sorted({1, 2, (k + 1) // 2, k})
        for r in range(3, k):
            params = default_params(k, r)
            for node in nodes:
                plan = make_split_plan(params, node)
                h.update(repr(plan.all_pieces()).encode())
                recipes = build_merge_recipes(params, plan)
                actual = (0, *cyclic_range(node % k + 1, k - 1, k))
                for scheme in ("scheme1", "scheme2", "uncoded"):
                    slots = removal_slots(plan, scheme)
                    h.update(repr(slots).encode())
                    change = make_removal_plan(params, node, scheme)
                    assert change.slots == tuple(slots), (k, r, node, scheme)
                    assert change.recipes == recipes, (k, r, node, scheme)
                    assert change.actual == actual, (k, r, node, scheme)
                h.update(repr(recipes).encode())
    return h.hexdigest()


def test_plans_slots_and_recipes_are_pinned():
    # every node for K <= 16, four nodes per (K, r) up to K = 30
    assert plan_digest(30, 16) == PLAN_DIGEST

"""Node addition: plan geometry, traffic, final layout."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    MergeFailureError,
    ParameterError,
    SegmentLabel,
    SystemParams,
    addition_expected_layout,
    addition_lower_bound,
    build_cyclic_database,
    cyclic_range,
    default_params,
    flip_stored_bit,
    make_addition_plan,
    rebalance_add,
    slice_atoms,
    verify_cyclic_balanced,
    verify_preservation,
)


def test_golden_plan_6_3():
    plan = make_addition_plan(default_params(6, 3))
    assert [(p.atom_start, p.atom_stop) for p in plan.kept] == [(0, 60)] * 6
    assert [p.superscript for p in plan.kept] == [(), (), (), (), (7,), (7,)]
    assert [(p.atom_start, p.atom_stop) for p in plan.small] == [(60, 70)] * 6
    assert [p.superscript for p in plan.small] == [
        (7,),
        (1, 7),
        (1, 2, 7),
        (1, 2, 7),
        (1, 2, 7),
        (1, 2, 7),
    ]
    assert plan.shipped == (5, 6)
    assert plan.discards == ((1, 5), (2, 6))


def test_golden_run_6_3():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    run = rebalance_add(db)
    assert run.log.load == Fraction(18, 7) == addition_lower_bound(params)
    assert run.report.matches_formula
    assert run.report.lower_bound == run.report.measured

    sizes = [(b.sender, b.kind, b.payload_atoms) for b in run.log.broadcasts]
    assert sizes == [(i, "uncoded", 10) for i in range(1, 7)] + [
        (5, "uncoded", 60),
        (6, "uncoded", 60),
    ]

    final = run.final
    assert final.n_nodes == 7
    assert final.generation == "target"
    assert final.segment_atoms == 60
    assert sorted(final.contents) == list(range(1, 8))
    for i in range(1, 8):
        label = SegmentLabel(i, "target")
        holders = {n for n, items in final.contents.items() if label in items}
        assert holders == set(cyclic_range(i, 3, 7))


def test_new_segment_concatenates_trailers():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=11)
    run = rebalance_add(db)
    w = params.atom_bits
    want = 0
    for i in range(1, 7):
        src = db.segment_bits_at(i, i)
        want |= slice_atoms(src, 60, 70, w) << ((i - 1) * 10 * w)
    for node in (7, 1, 2):
        piece = run.final.stored(node, SegmentLabel(7, "target"))
        assert piece.bits == want
        assert piece.n_atoms == 60


def test_kept_parts_are_leading_slices():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=11)
    run = rebalance_add(db)
    w = params.atom_bits
    for i in range(1, 7):
        want = slice_atoms(db.segment_bits_at(i, i), 0, 60, w)
        for node in cyclic_range(i, 3, 7):
            assert run.final.stored(node, SegmentLabel(i, "target")).bits == want


def test_smallest_system_3_2():
    params = default_params(3, 2)
    db = build_cyclic_database(params, seed=0)
    run = rebalance_add(db)
    assert run.log.load == Fraction(3, 2)
    assert run.final.n_nodes == 4
    assert run.final.segment_atoms == 12


def test_addition_requires_original_layout():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    run = rebalance_add(db)
    with pytest.raises(ParameterError):
        rebalance_add(run.final)


def test_load_independent_of_segment_size():
    loads = set()
    for t_mult in (1, 3):
        db = build_cyclic_database(default_params(6, 3, t_mult=t_mult), seed=0)
        loads.add(rebalance_add(db).log.load)
    assert loads == {Fraction(18, 7)}


@settings(max_examples=40, derandomize=True)
@given(st.integers(3, 20).flatmap(lambda k: st.tuples(st.just(k), st.integers(2, k - 1))))
def test_load_meets_lower_bound_everywhere(kr):
    k, r = kr
    params = default_params(k, r)
    db = build_cyclic_database(params, seed=2)
    run = rebalance_add(db)
    assert run.log.load == Fraction(r * k, k + 1)
    assert run.log.load == addition_lower_bound(params)
    # stored volume unchanged in proportion: r replicas of K+1 equal segments
    assert run.final.total_stored_atoms() == r * (k + 1) * run.final.segment_atoms


def test_missing_kept_segment_raises_package_error():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    # node 3 holds W_2 but is not its sender, so only the kept-part cut fails
    db.contents = {n: dict(items) for n, items in db.contents.items()}
    del db.contents[3][SegmentLabel(2)]
    with pytest.raises(MergeFailureError, match="node 3 .*segment 2"):
        rebalance_add(db)


def test_kept_replicas_share_one_int():
    params = default_params(12, 4)
    db = build_cyclic_database(params, seed=6)
    run = rebalance_add(db)
    final = run.final
    for i in range(1, 14):
        holders = cyclic_range(i, 4, 13)
        replicas = [final.stored(n, SegmentLabel(i, "target")).bits for n in holders]
        assert len(set(replicas)) == 1
        if i <= 12:
            # the old holders cut the kept part from one shared stored int
            old = [bits for n, bits in zip(holders, replicas) if n != 13]
            assert all(bits is old[0] for bits in old)

    # a flipped bit in a shared replica damages only the node it was flipped at
    node = 6
    bad = flip_stored_bit(final, node, 5, 0)
    assert final.stored(5, SegmentLabel(5, "target")).bits is final.stored(
        node, SegmentLabel(5, "target")
    ).bits
    shape = SystemParams(13, 4, params.segment_bits * 12 // 13)
    rep = verify_cyclic_balanced(bad, shape).merged(
        verify_preservation(bad, addition_expected_layout(run.plan), params, seed=6)
    )
    assert rep.findings
    for _, msg in rep.findings:
        assert f"node {node}" in msg and "segment 5" in msg

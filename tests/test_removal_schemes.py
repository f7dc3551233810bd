"""Broadcast schedules: golden transmissions, loads, scheme selection."""

from fractions import Fraction

import pytest

from rebalance import (
    ParameterError,
    build_cyclic_database,
    choose_scheme,
    corner_overhead,
    default_params,
    load_scheme1,
    load_scheme2,
    make_split_plan,
    rebalance_remove,
    run_scheme1,
    run_scheme2,
    run_uncoded_removal,
    threshold,
)


def shape(b, half_unit):
    ops = frozenset((op.base, op.superscript) for op in b.operands)
    return (b.sender, b.kind, ops, b.payload_atoms // half_unit)


def test_golden_scheme1_broadcasts_6_3():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    log = run_scheme1(db, make_split_plan(params, removed=6))
    got = {shape(b, 7) for b in log.broadcasts}
    want = {
        (1, "coded", frozenset({(5, (2,)), (6, (5,))}), 7),
        (5, "coded", frozenset({(4, (1,)), (5, (4,))}), 7),
        (1, "uncoded", frozenset({(6, (3, 4))}), 1),
        (1, "uncoded", frozenset({(6, (3,))}), 2),
        (5, "uncoded", frozenset({(4, (2, 3))}), 1),
        (5, "uncoded", frozenset({(4, (3,))}), 2),
    }
    assert got == want
    assert log.load == 2


def test_golden_scheme2_broadcasts_8_6():
    params = default_params(8, 6)
    db = build_cyclic_database(params, seed=0)
    log = run_scheme2(db, make_split_plan(params, removed=8))
    got = {shape(b, 9) for b in log.broadcasts}
    want = {
        (1, "coded", frozenset({(8, (7,)), (6, (5,)), (4, (3,))}), 12),
        (7, "coded", frozenset({(3, (1,)), (5, (3,)), (7, (5,))}), 12),
        (1, "coded", frozenset({(7, (6,)), (5, (4,))}), 10),
        (7, "coded", frozenset({(4, (2,)), (6, (4,))}), 10),
        (1, "uncoded", frozenset({(8, (6,))}), 2),
        (7, "uncoded", frozenset({(3, (2,))}), 2),
    }
    assert got == want
    assert len(log.broadcasts) == 6
    assert log.load == Fraction(24, 7)


def test_scheme2_pads_empty_classes_to_formula():
    # with small replication some class slots carry no pieces; they still cost
    # their nominal size so the measured load equals the closed form
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    log = run_scheme2(db, make_split_plan(params, removed=6))
    fillers = [b for b in log.broadcasts if b.kind == "coded" and not b.operands]
    assert len(fillers) == 2
    assert all(b.payload == 0 and b.payload_atoms == 21 for b in fillers)
    assert log.load == corner_overhead(6, 3) + load_scheme2(6, 3) == Fraction(18, 5)


def test_scheme1_load_matches_formula_at_7_4():
    params = default_params(7, 4)
    db = build_cyclic_database(params, seed=0)
    log = run_scheme1(db, make_split_plan(params, removed=7))
    assert log.load == Fraction(31, 12)  # 1/2 corner traffic + 25/12 coded


def test_uncoded_baseline_load_is_replication():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    log = run_uncoded_removal(db, make_split_plan(params, removed=6))
    assert log.load == 3
    assert all(b.kind == "uncoded" and b.payload_atoms == 70 for b in log.broadcasts)
    # senders are the lowest surviving holders of each affected segment;
    # W_5 lives on {5, 6, 1} so node 1 is its lowest survivor
    assert [(b.sender, b.operands[0].base) for b in log.broadcasts] == [
        (4, 4),
        (1, 5),
        (1, 6),
    ]


def test_auto_selection_follows_threshold():
    for k in (6, 8, 15, 25):
        r_th = threshold(k)
        for r in range(3, k):
            want = "scheme1" if r < r_th else "scheme2"
            assert choose_scheme(k, r) == want, (k, r)


def test_tie_resolves_to_scheme1():
    assert load_scheme1(4, 3) == load_scheme2(4, 3) == Fraction(5, 3)
    assert choose_scheme(4, 3) == "scheme1"
    db = build_cyclic_database(default_params(4, 3), seed=0)
    assert rebalance_remove(db, 4, "auto").report.scheme == "scheme1"


def test_rebalance_remove_reports_all_loads():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    run = rebalance_remove(db, 6, "auto")
    rep = run.report
    assert rep.scheme == "scheme1"
    assert rep.measured == 2 and rep.matches_formula
    assert rep.lower_bound == Fraction(3, 2)


def test_rebalance_remove_validates_input():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    with pytest.raises(ParameterError):
        rebalance_remove(db, 6, "bogus")
    with pytest.raises(ParameterError):
        rebalance_remove(db, 9, "auto")
    run = rebalance_remove(db, 6, "auto")
    with pytest.raises(ParameterError):
        rebalance_remove(run.final, 1, "auto")  # already rebalanced


def test_every_broadcast_sender_holds_its_operands():
    for k, r in [(6, 3), (8, 6), (9, 4), (12, 10)]:
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=0)
        for removed in (1, k):
            plan = make_split_plan(params, removed)
            for log in (run_scheme1(db, plan), run_scheme2(db, plan)):
                for b in log.broadcasts:
                    for op in b.operands:
                        assert db.stored(b.sender, op.base) is not None

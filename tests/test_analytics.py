"""Closed-form loads, scheme selection threshold, minimality audit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    ParameterError,
    addition_load,
    choose_scheme,
    full_removal_load,
    load_scheme1,
    load_scheme2,
    threshold,
    uncoded_removal_load,
    verify_claim1,
)
from rebalance.analytics import corner_overhead, removal_lower_bound

kr_pairs = st.integers(4, 60).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(3, k - 1))
)


def test_frozen_values():
    assert load_scheme1(6, 3) == Fraction(7, 5)
    assert load_scheme2(6, 3) == 3
    assert load_scheme1(8, 6) == Fraction(26, 7)
    assert load_scheme2(8, 6) == Fraction(22, 7)
    assert load_scheme1(7, 4) == Fraction(25, 12)
    assert load_scheme1(15, 3) == Fraction(8, 7)
    assert load_scheme2(15, 14) == Fraction(27, 14)
    assert corner_overhead(6, 3) == Fraction(3, 5)
    assert full_removal_load(7, 4, "scheme1") == Fraction(31, 12)
    assert full_removal_load(6, 3, "scheme1") == 2
    assert full_removal_load(8, 6, "scheme2") == Fraction(24, 7)
    assert full_removal_load(6, 3, choose_scheme(6, 3)) == 2
    assert uncoded_removal_load(9, 5) == 5
    assert removal_lower_bound(15, 3) == Fraction(3, 2)
    assert addition_load(6, 3) == Fraction(18, 7)
    assert addition_load(8, 6) == Fraction(16, 3)


@settings(max_examples=80, derandomize=True)
@given(kr_pairs)
def test_scheme1_closed_form_equals_piece_sum(kr):
    # each coded round carries the larger of the two adjacent piece sizes
    k, r = kr
    total = sum(max(k + r - 2 * i, k - r + 2 * i) for i in range(1, r))
    assert load_scheme1(k, r) == Fraction(total, 2 * (k - 1))


@settings(max_examples=80, derandomize=True)
@given(kr_pairs)
def test_scheme2_closed_form_equals_class_sum(kr):
    k, r = kr
    total = sum(2 * (k + r - 2 * i) for i in range(1, k - r + 1))
    assert load_scheme2(k, r) == Fraction(total, 2 * (k - 1))


@settings(max_examples=80, derandomize=True)
@given(kr_pairs)
def test_full_load_bounds(kr):
    k, r = kr
    # full_removal_load already includes the corner overhead
    best = full_removal_load(k, r, choose_scheme(k, r))
    assert best == min(full_removal_load(k, r, "scheme1"), full_removal_load(k, r, "scheme2"))
    assert removal_lower_bound(k, r) <= best < uncoded_removal_load(k, r)


def test_threshold_values():
    assert threshold(4) == 4
    assert threshold(6) == 5
    assert threshold(8) == 6
    assert threshold(15) == 11
    with pytest.raises(ParameterError):
        threshold(3)


@settings(max_examples=80, derandomize=True)
@given(kr_pairs)
def test_choose_scheme_picks_smaller_load(kr):
    k, r = kr
    choice = choose_scheme(k, r)
    l1, l2 = load_scheme1(k, r), load_scheme2(k, r)
    if choice == "scheme1":
        assert l1 <= l2
    else:
        assert l2 < l1
    # and the choice agrees with the threshold rule
    assert choice == ("scheme1" if r < threshold(k) else "scheme2")


def test_tie_points():
    # L1 == L2 exactly on the family K = 3m+1, r = 2m+1
    for m in (1, 2, 3, 5, 10):
        k, r = 3 * m + 1, 2 * m + 1
        assert load_scheme1(k, r) == load_scheme2(k, r)
    assert choose_scheme(4, 3) == "scheme1"


def test_claim1_smallest():
    rep = verify_claim1(4)
    assert rep.ok
    assert rep.pairs_checked == 1
    assert rep.counterexamples == ()
    assert rep.ties == ((4, 3),)
    assert rep.unexpected_ties == ()


def test_claim1_medium():
    rep = verify_claim1(30)
    assert rep.ok
    assert rep.pairs_checked == sum(k - 3 for k in range(4, 31))
    assert rep.ties == tuple(
        (3 * m + 1, 2 * m + 1) for m in range(1, 11) if 3 * m + 1 <= 30
    )
    assert rep.crossing_failures == ()


def test_parameter_validation():
    for bad in [(3, 2), (6, 2), (6, 6), (6, 0)]:
        with pytest.raises(ParameterError):
            load_scheme1(*bad)
        with pytest.raises(ParameterError):
            load_scheme2(*bad)
    with pytest.raises(ParameterError):
        addition_load(4, 4)
    with pytest.raises(ParameterError):
        verify_claim1(3)

"""Bus semantics: payload construction, padding, decoding, error paths."""

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rebalance import (
    DecodeFailureError,
    ProtocolViolationError,
    build_cyclic_database,
    decode_at_node,
    default_params,
    drop_broadcast,
    make_split_plan,
    run_scheme1,
    segment_content,
    slice_atoms,
)
from rebalance.bus import encode


@pytest.fixture(scope="module")
def setup_6_3():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, removed=6)
    return params, db, plan


def send(db, sender, kind, operands, payload_atoms):
    # encode one slot and return its broadcast
    return encode(db, [(sender, kind, operands, payload_atoms)]).broadcasts[0]


def test_uncoded_broadcast_carries_exact_slice(setup_6_3):
    params, db, plan = setup_6_3
    piece = plan.high_corner.tiny  # W_6 atoms [49:56]
    b = send(db, 1, "uncoded", (piece,), 7)
    assert b.kind == "uncoded"
    assert b.payload_atoms == 7
    want = slice_atoms(segment_content(0, 6, 70), 49, 56, 1)
    assert b.payload == want


def test_label_text_names_base_superscript_and_atom_range(setup_6_3):
    params, db, plan = setup_6_3
    assert plan.high_corner.tiny.describe() == "W_6^{3,4}[49:56]"
    assert plan.openings[1].describe() == "W_5^{2}[0:35]"


def test_uncoded_broadcast_requires_possession(setup_6_3):
    params, db, plan = setup_6_3
    # node 3 does not hold W_6 (stored on 6, 1, 2)
    with pytest.raises(
        ProtocolViolationError,
        match=r"^node 3 does not hold segment 6 needed for W_6\^\{3,4\}\[49:56\]$",
    ):
        send(db, 3, "uncoded", (plan.high_corner.tiny,), 7)


def test_xor_pads_to_largest_operand(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.openings[1]  # W_5 atoms [0:35]
    big = plan.high_corner.big  # W_6 atoms [0:49]
    b = send(db, 1, "coded", (first, big), 49)
    assert b.kind == "coded"
    assert b.payload_atoms == 49
    w5 = slice_atoms(segment_content(0, 5, 70), 0, 35, 1)
    w6 = slice_atoms(segment_content(0, 6, 70), 0, 49, 1)
    assert b.payload == w5 ^ w6  # short operand zero-padded at the tail


def test_class_slot_accepts_empty_single_and_many(setup_6_3):
    params, db, plan = setup_6_3
    filler = send(db, 1, "coded", (), 21)
    assert filler.payload == 0 and filler.payload_atoms == 21 and filler.kind == "coded"

    single = send(db, 1, "coded", (plan.high_corner.big,), 49)
    assert single.payload == slice_atoms(segment_content(0, 6, 70), 0, 49, 1)

    # the widest operand must fill the slot
    with pytest.raises(
        ProtocolViolationError, match=r"^slot of 56 atoms but widest operand is 49$"
    ):
        send(db, 1, "coded", (plan.high_corner.big,), 56)


def test_decode_recovers_addressed_operand(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.openings[1]  # W_5^{2}
    big = plan.high_corner.big  # W_6^{5}
    b = send(db, 1, "coded", (first, big), 49)
    # node 2 holds W_6, strips it, keeps W_5's leading half
    label, bits = decode_at_node(db, 2, b)
    assert label == first
    assert bits == slice_atoms(segment_content(0, 5, 70), 0, 35, 1)
    # node 5 holds W_5, recovers the big W_6 piece
    label, bits = decode_at_node(db, 5, b)
    assert label == big
    assert bits == slice_atoms(segment_content(0, 6, 70), 0, 49, 1)
    # node 3 is not addressed at all
    assert decode_at_node(db, 3, b) is None


@settings(derandomize=True, max_examples=60)
@given(st.one_of(
    st.sampled_from([0, 1, 2**35 - 1, 2**35, 2**49 - 1, 2**49, -1, -(2**49)]),
    st.integers(min_value=-(2**120), max_value=2**120),
))
def test_decode_keeps_the_remainder_cut_to_the_piece(setup_6_3, payload):
    params, db, plan = setup_6_3
    first = plan.openings[1]  # W_5^{2}[0:35]
    big = plan.high_corner.big  # W_6^{5}[0:49]
    w5 = slice_atoms(segment_content(0, 5, 70), 0, 35, 1)
    w6 = slice_atoms(segment_content(0, 6, 70), 0, 49, 1)
    coded = send(db, 1, "coded", (first, big), 49)._replace(payload=payload)
    # the remainder after stripping, masked to the piece whether it fits or not
    assert decode_at_node(db, 2, coded) == (first, (payload ^ w6) & (2**35 - 1))
    assert decode_at_node(db, 5, coded) == (big, (payload ^ w5) & (2**49 - 1))
    single = send(db, 1, "uncoded", (big,), 49)._replace(payload=payload)
    label, bits = decode_at_node(db, 5, single)
    assert (label, bits) == (big, payload & (2**49 - 1))
    # a one-operand payload that fits is the piece, the same int
    assert (bits is payload) == (0 <= payload < 2**49)


def test_decode_fails_without_sibling_base(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.openings[1]
    big = plan.high_corner.big
    b = send(db, 1, "coded", (first, big), 49)
    # strip W_5 from node 2's storage so it cannot cancel the sibling
    crippled = build_cyclic_database(params, seed=0)
    crippled.contents = {n: dict(items) for n, items in crippled.contents.items()}
    crippled.contents[2] = {
        index: p for index, p in crippled.contents[2].items() if index != 6
    }
    with pytest.raises(
        DecodeFailureError,
        match=r"^node 2 cannot rebuild W_6\^\{5\}\[0:49\] to decode W_5\^\{2\}\[0:35\]$",
    ):
        decode_at_node(crippled, 2, b)


def test_log_counts_payload_atoms(setup_6_3):
    params, db, plan = setup_6_3
    log = run_scheme1(db, plan)
    # 2 coded of 49 atoms + 2x(7+14) uncoded corner atoms = 140 atoms = 2T
    assert [b.payload_atoms for b in log.broadcasts] == [49, 49, 7, 14, 7, 14]
    assert log.total_payload_atoms == 140
    assert log.load == 2


def test_log_totals_are_fixed_with_its_broadcasts(setup_6_3):
    # the totals are computed once, from broadcasts stored as a tuple that no
    # caller can change under them; replace and drop_broadcast make new logs
    params, db, plan = setup_6_3
    log = run_scheme1(db, plan)
    assert isinstance(log.broadcasts, tuple)
    assert log.load is log.load
    with pytest.raises(FrozenInstanceError):
        log.broadcasts = ()
    shorter = replace(log, broadcasts=list(log.broadcasts[2:]))
    assert isinstance(shorter.broadcasts, tuple)
    assert (shorter.total_payload_atoms, shorter.load) == (42, Fraction(3, 5))
    dropped = drop_broadcast(log, 0)
    assert dropped.broadcasts == log.broadcasts[1:]
    assert (dropped.total_payload_atoms, dropped.load) == (91, Fraction(13, 10))
    # the derived totals take no part in equality: a log equals its own copy
    assert replace(log) == log


@settings(derandomize=True, max_examples=40)
@given(st.integers(min_value=0, max_value=2**70 - 1), st.integers(min_value=0, max_value=2**49 - 1))
def test_xor_roundtrip_property(a_bits, b_bits):
    # stripping one operand from a padded XOR recovers the other exactly
    padded = a_bits ^ b_bits
    assert padded ^ a_bits == b_bits
    assert (padded ^ b_bits) & ((1 << 70) - 1) == a_bits

"""Bus semantics: payload construction, padding, decoding, error paths."""

import pytest
from hypothesis import given, settings, strategies as st

from rebalance import (
    DecodeFailureError,
    ProtocolViolationError,
    broadcast_class,
    broadcast_uncoded,
    broadcast_xor,
    build_cyclic_database,
    decode_at_node,
    default_params,
    make_split_plan,
    run_scheme1,
    segment_content,
    slice_atoms,
)


@pytest.fixture(scope="module")
def setup_6_3():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, removed=6)
    return params, db, plan


def test_uncoded_broadcast_carries_exact_slice(setup_6_3):
    params, db, plan = setup_6_3
    piece = plan.high_corner.tiny  # W_6 atoms [49:56]
    b = broadcast_uncoded(db, 1, piece)
    assert b.kind == "uncoded"
    assert b.payload_atoms == 7
    want = slice_atoms(segment_content(0, 6, 70), 49, 56, 1)
    assert b.payload == want


def test_uncoded_broadcast_requires_possession(setup_6_3):
    params, db, plan = setup_6_3
    # node 3 does not hold W_6 (stored on 6, 1, 2)
    with pytest.raises(ProtocolViolationError):
        broadcast_uncoded(db, 3, plan.high_corner.tiny)


def test_xor_pads_to_largest_operand(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.middles[0][0]  # W_5 atoms [0:35]
    big = plan.high_corner.big  # W_6 atoms [0:49]
    b = broadcast_xor(db, 1, (first, big))
    assert b.kind == "coded"
    assert b.payload_atoms == 49
    w5 = slice_atoms(segment_content(0, 5, 70), 0, 35, 1)
    w6 = slice_atoms(segment_content(0, 6, 70), 0, 49, 1)
    assert b.payload == w5 ^ w6  # short operand zero-padded at the tail


def test_xor_needs_two_operands(setup_6_3):
    params, db, plan = setup_6_3
    with pytest.raises(ProtocolViolationError):
        broadcast_xor(db, 1, (plan.high_corner.big,))


def test_class_slot_accepts_empty_single_and_many(setup_6_3):
    params, db, plan = setup_6_3
    filler = broadcast_class(db, 1, (), nominal_atoms=21)
    assert filler.payload == 0 and filler.payload_atoms == 21 and filler.kind == "coded"

    single = broadcast_class(db, 1, (plan.high_corner.big,), nominal_atoms=49)
    assert single.payload == slice_atoms(segment_content(0, 6, 70), 0, 49, 1)

    with pytest.raises(ProtocolViolationError):
        broadcast_class(db, 1, (plan.high_corner.big,), nominal_atoms=56)


def test_decode_recovers_addressed_operand(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.middles[0][0]  # W_5^{2}
    big = plan.high_corner.big  # W_6^{5}
    b = broadcast_xor(db, 1, (first, big))
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


def test_decode_fails_without_sibling_base(setup_6_3):
    params, db, plan = setup_6_3
    first = plan.middles[0][0]
    big = plan.high_corner.big
    b = broadcast_xor(db, 1, (first, big))
    # strip W_5 from node 2's storage so it cannot cancel the sibling
    crippled = build_cyclic_database(params, seed=0)
    crippled.contents = {n: dict(items) for n, items in crippled.contents.items()}
    crippled.contents[2] = {
        lab: p for lab, p in crippled.contents[2].items() if lab.index != 6
    }
    with pytest.raises(DecodeFailureError):
        decode_at_node(crippled, 2, b)


def test_log_counts_payload_atoms(setup_6_3):
    params, db, plan = setup_6_3
    log = run_scheme1(db, plan)
    # 2 coded of 49 atoms + 2x(7+14) uncoded corner atoms = 140 atoms = 2T
    assert [b.payload_atoms for b in log.broadcasts] == [49, 49, 7, 14, 7, 14]
    assert log.total_payload_atoms == 140
    assert log.load == 2


@settings(derandomize=True, max_examples=40)
@given(st.integers(min_value=0, max_value=2**70 - 1), st.integers(min_value=0, max_value=2**49 - 1))
def test_xor_roundtrip_property(a_bits, b_bits):
    # stripping one operand from a padded XOR recovers the other exactly
    padded = a_bits ^ b_bits
    assert padded ^ a_bits == b_bits
    assert (padded ^ b_bits) & ((1 << 70) - 1) == a_bits

"""Core model: index arithmetic, content generator, database construction."""

import pytest
from hypothesis import given, settings, strategies as st

from rebalance import (
    Database,
    ParameterError,
    SegmentLabel,
    SystemParams,
    atom_payload,
    box_minus,
    box_plus,
    build_cyclic_database,
    cyclic_range,
    default_params,
    relabel_for_removed_node,
    segment_content,
    slice_atoms,
    storage_set,
)

pair = st.integers(min_value=3, max_value=60).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k), st.integers(min_value=1, max_value=k))
)


def test_box_ops_known_values():
    assert box_plus(5, 3, 6) == 2
    assert box_plus(2, 3, 6) == 5
    assert box_minus(1, 3, 6) == 4
    assert box_minus(6, 3, 6) == 3
    assert box_minus(4, 4, 6) == 6


def test_box_ops_range_validation():
    with pytest.raises(ParameterError):
        box_plus(0, 1, 6)
    with pytest.raises(ParameterError):
        box_plus(1, 7, 6)
    with pytest.raises(ParameterError):
        box_minus(7, 1, 6)


@settings(derandomize=True)
@given(pair)
def test_box_ops_inverse(t):
    k, i, j = t
    assert box_minus(box_plus(i, j, k), j, k) == i
    assert box_plus(box_minus(i, j, k), j, k) == i
    assert 1 <= box_plus(i, j, k) <= k


def test_cyclic_range_wraps():
    assert cyclic_range(5, 3, 6) == (5, 6, 1)
    assert cyclic_range(1, 0, 6) == ()
    assert cyclic_range(4, 3, 5) == (4, 5, 1)


def test_storage_set_matches_layout():
    # K=6, r=3: node 1 ends up holding segments 1, 5, 6
    holds = [i for i in range(1, 7) if 1 in storage_set(i, 6, 3)]
    assert holds == [1, 5, 6]
    assert storage_set(5, 6, 3) == {5, 6, 1}


def test_relabel_for_removed_node():
    assert relabel_for_removed_node(6, 3, 6) == 3
    assert relabel_for_removed_node(1, 3, 6) == 4
    assert relabel_for_removed_node(4, 6, 6) == 4  # identity when the last node leaves


@settings(derandomize=True)
@given(st.integers(min_value=3, max_value=40).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k))))
def test_relabel_is_bijection(t):
    k, removed = t
    image = {relabel_for_removed_node(j, removed, k) for j in range(1, k + 1)}
    assert image == set(range(1, k + 1))
    assert relabel_for_removed_node(k, removed, k) == removed


def test_params_validation():
    default_params(6, 3).validate()
    with pytest.raises(ParameterError):
        SystemParams(6, 3, 71).validate()  # not divisible by 2*(K^2-1)
    with pytest.raises(ParameterError):
        default_params(6, 1).validate()
    with pytest.raises(ParameterError):
        default_params(6, 6).validate()
    with pytest.raises(ParameterError):
        default_params(2, 1).validate()
    with pytest.raises(ParameterError):
        default_params(6, 3, t_mult=0)


def test_default_params_atom_geometry():
    p = default_params(6, 3)
    assert p.segment_bits == 70
    assert p.atom_bits == 1
    assert p.segment_atoms == 70
    p4 = default_params(6, 3, t_mult=4)
    assert p4.segment_bits == 280
    assert p4.atom_bits == 4
    assert p4.segment_atoms == 70  # atom count never changes, only atom width


def test_segment_content_deterministic_and_distinct():
    a = segment_content(0, 1, 70)
    assert a == segment_content(0, 1, 70)
    assert a != segment_content(0, 2, 70)
    assert a != segment_content(1, 1, 70)
    assert 0 <= a < (1 << 70)


def test_atom_payload_matches_segment_slice():
    p = default_params(6, 3, t_mult=3)
    seg = segment_content(7, 4, p.segment_atoms * p.atom_bits)
    for offset in (0, 1, 37, 69):
        atom = atom_payload(7, 4, offset, p.atom_bits, p.segment_atoms)
        assert atom.payload == slice_atoms(seg, offset, offset + 1, p.atom_bits)
        assert atom.origin_segment == 4
        assert atom.offset == offset


def test_slice_atoms_concat_roundtrip():
    bits = segment_content(3, 2, 70)
    lo = slice_atoms(bits, 0, 49, 1)
    hi = slice_atoms(bits, 49, 70, 1)
    assert lo | (hi << 49) == bits


def test_build_cyclic_database_shape():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    assert db.n_nodes == 6
    assert sorted(db.contents) == list(range(1, 7))
    for node, items in db.contents.items():
        assert len(items) == 3
        assert all(isinstance(lab, SegmentLabel) for lab in items)
    assert [lab.index for lab in db.contents[1]] == [1, 5, 6]
    assert db.total_stored_atoms() == 3 * 6 * 70  # rK segments of T
    assert {n for n, items in db.contents.items() if SegmentLabel(5) in items} == {5, 6, 1}


def test_build_rejects_invalid_params():
    with pytest.raises(ParameterError):
        build_cyclic_database(SystemParams(6, 3, 69), seed=0)

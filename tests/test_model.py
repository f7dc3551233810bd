"""Core model: index arithmetic, content generator, database construction."""

import hashlib
import operator
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rebalance import (
    Database,
    ParameterError,
    StoredPiece,
    SystemParams,
    build_cyclic_database,
    cyclic_range,
    default_params,
    flip_stored_bit,
    rebalance_add,
    rebalance_remove,
    relabel_for_removed_node,
    segment_content,
    slice_atoms,
    storage_set,
    verify_change,
)
from rebalance import model as model_module
from rebalance.model import concat_bits, cyclic_layout, cyclic_refs, database_content

pair = st.integers(min_value=3, max_value=60).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k), st.integers(min_value=1, max_value=k))
)


# The paper's wrapping label arithmetic is relabel_for_removed_node:
# i box-plus j is relabel(i, j, K), and i box-minus j is relabel(i, K - j, K)
# for j < K, relabel(i, K, K) for j = K.
def minus_shift(j, modulus):
    return modulus - j if j < modulus else modulus


def test_box_ops_known_values():
    assert relabel_for_removed_node(5, 3, 6) == 2
    assert relabel_for_removed_node(2, 3, 6) == 5
    assert relabel_for_removed_node(1, minus_shift(3, 6), 6) == 4
    assert relabel_for_removed_node(6, minus_shift(3, 6), 6) == 3
    assert relabel_for_removed_node(4, minus_shift(4, 6), 6) == 6


def test_box_ops_range_validation():
    # the label-range cases: 0 - 1 and 7 - 1 on [1..6]
    with pytest.raises(ParameterError, match=r"^label 0 outside \[1, 6\]$"):
        relabel_for_removed_node(0, minus_shift(1, 6), 6)
    with pytest.raises(ParameterError, match=r"^label 7 outside \[1, 6\]$"):
        relabel_for_removed_node(7, minus_shift(1, 6), 6)
    # 1 - 7: a shift of 6 - 7 = -1 names no node
    with pytest.raises(ParameterError, match=r"^removed node -1 outside \[1, 6\]$"):
        relabel_for_removed_node(1, 6 - 7, 6)


@settings(derandomize=True)
@given(pair)
def test_box_ops_inverse(t):
    k, i, j = t
    back = minus_shift(j, k)
    assert relabel_for_removed_node(relabel_for_removed_node(i, j, k), back, k) == i
    assert relabel_for_removed_node(relabel_for_removed_node(i, back, k), j, k) == i
    assert 1 <= relabel_for_removed_node(i, j, k) <= k


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


@pytest.mark.parametrize("removed", [0, 7])
def test_relabel_rejects_a_removed_node_outside_the_cluster(removed):
    with pytest.raises(ParameterError, match=rf"^removed node {removed} outside \[1, 6\]$"):
        relabel_for_removed_node(3, removed, 6)


@pytest.mark.parametrize("label", [0, 7])
def test_relabel_rejects_a_label_outside_the_cluster(label):
    for removed in (3, 6):
        with pytest.raises(ParameterError, match=rf"^label {label} outside \[1, 6\]$"):
            relabel_for_removed_node(label, removed, 6)


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


def _mix64_oracle(x):
    # the splitmix64 finalizer, one 64-bit block at a time
    m = (1 << 64) - 1
    x &= m
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def _segment_content_oracle(seed, index, n_bits):
    # the per-block loop the lane-packed generator must reproduce bit for bit
    m = (1 << 64) - 1
    state = (seed * 0x9E3779B97F4A7C15 + index * 0xD1342543DE82EF95) & m
    n_blocks = (n_bits + 63) // 64
    buf = b"".join(
        _mix64_oracle(state + b * 0x9E3779B97F4A7C15).to_bytes(8, "little")
        for b in range(n_blocks)
    )
    return int.from_bytes(buf, "little") & ((1 << n_bits) - 1)


def test_segment_content_matches_per_block_oracle():
    # 191..193 and 255..257 bits: odd and even block counts, each with and
    # without a partial last block
    sizes = {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257}
    sizes |= {2 * (k * k - 1) * t for k in range(3, 31) for t in range(1, 4)}
    for seed in (0, 1, 2**63 - 1, 2**64 + 5, -1):
        for index in (1, 2, 7, 392):
            for n_bits in sorted(sizes):
                want = _segment_content_oracle(seed, index, n_bits)
                assert segment_content(seed, index, n_bits) == want, (seed, index, n_bits)
    # the segment sizes of the benchmark's K=240 and K=300 cases
    for k in (240, 300):
        n_bits = 2 * (k * k - 1)
        assert segment_content(41, k - 1, n_bits) == _segment_content_oracle(
            41, k - 1, n_bits
        ), n_bits


def test_database_content_walk_matches_per_block_oracle():
    # one counter walk gives every segment of a database the oracle's bits, at
    # every database size the oracle test covers; the large seed's counters wrap
    for seed in (0, 41, 2**63 - 1, -1):
        for k in range(3, 31):
            for t in range(1, 4):
                n_bits = 2 * (k * k - 1) * t
                content = database_content(seed, k, n_bits)
                assert len(content) == k
                for index, bits in enumerate(content, 1):
                    assert bits == _segment_content_oracle(seed, index, n_bits), (seed, k, t, index)
    # first, middle and last segment of the benchmark's K=240 and K=300 builds
    for k in (240, 300):
        n_bits = 2 * (k * k - 1)
        content = database_content(41, k, n_bits)
        for index in (1, k // 2, k):
            assert content[index - 1] == _segment_content_oracle(41, index, n_bits), (k, index)


def test_database_content_of_a_large_build_is_pinned():
    # sha256 of the (300,150) seed-41 build's segments 1..300, each as LSB-first
    # bytes; fixed when content generation became one walk per database, and
    # equal to the per-segment generator's before it
    params = default_params(300, 150)
    db = build_cyclic_database(params, seed=41)
    n_bytes = (params.segment_bits + 7) // 8
    h = hashlib.sha256()
    for i in range(1, 301):
        h.update(db.stored(i, i).bits.to_bytes(n_bytes, "little"))
    assert h.hexdigest() == "0b5a45061ffc8e86ac70656422f9b2eee86d76b5b375b5799fccc4058a915501"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=700),
    st.integers(min_value=0, max_value=700),
)
def test_segment_content_truncates_to_a_prefix(seed, index, n, extra):
    # a shorter segment is the low bits of a longer one with the same seed and index
    m = n + extra
    short = segment_content(seed, index, n)
    assert short == segment_content(seed, index, m) & ((1 << n) - 1)


def test_slice_atoms_matches_single_atom_oracle():
    p = default_params(6, 3, t_mult=3)
    seg = segment_content(7, 4, p.segment_atoms * p.atom_bits)
    mask = (1 << p.atom_bits) - 1
    for offset in (0, 1, 37, 69):
        # atom o occupies bits [o * atom_bits, (o + 1) * atom_bits), LSB-first
        want = (seg >> (offset * p.atom_bits)) & mask
        assert slice_atoms(seg, offset, offset + 1, p.atom_bits) == want


def test_slice_atoms_concat_roundtrip():
    bits = segment_content(3, 2, 70)
    lo = slice_atoms(bits, 0, 49, 1)
    hi = slice_atoms(bits, 49, 70, 1)
    assert lo | (hi << 49) == bits


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=-80, max_value=80),
    st.data(),
)
def test_slice_atoms_matches_the_mask_formula(start, n_atoms, atom_bits, spare, data):
    # payloads shorter than, as long as and longer than the slice's end, and
    # negative ints; cuts up to 2,560 bits wide, of more widths than the mask memo holds
    top = max(0, (start + n_atoms) * atom_bits + spare)
    bits = data.draw(st.integers(min_value=-(2**top), max_value=2**top - 1))
    width = n_atoms * atom_bits
    want = (bits >> (start * atom_bits)) & ((1 << width) - 1)
    assert slice_atoms(bits, start, start + n_atoms, atom_bits) == want


def test_slice_mask_memo_stays_bounded():
    bits = segment_content(5, 1, 4000)
    for width in range(1, 200):
        assert slice_atoms(bits, 3, 3 + width, 7) == (bits >> 21) & ((1 << 7 * width) - 1)
        assert len(model_module._MASKS) <= 32


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**200), st.integers(0, 200)), max_size=40))
def test_concat_bits_matches_concatenating_one_part_at_a_time(parts):
    # each part fits its width, as every caller's cuts do
    parts = [(bits & ((1 << width) - 1), width) for bits, width in parts]
    want = 0
    offset = 0
    for bits, width in parts:
        want |= bits << offset
        offset += width
    assert concat_bits([b for b, _ in parts], [w for _, w in parts]) == want


def test_a_whole_range_slice_is_the_payload_itself():
    bits = segment_content(3, 2, 70 * 5)
    assert slice_atoms(bits, 0, 70, 5) is bits


def test_build_cyclic_database_shape(total_stored_atoms):
    db = build_cyclic_database(default_params(6, 3), seed=0)
    assert db.n_nodes == 6
    assert sorted(db.contents) == list(range(1, 7))
    for node, items in db.contents.items():
        assert len(items) == 3
        assert all(type(index) is int for index in items)
    assert list(db.contents[1]) == [1, 5, 6]
    assert total_stored_atoms(db) == 3 * 6 * 70  # rK segments of T
    assert {n for n, items in db.contents.items() if 5 in items} == {5, 6, 1}


def test_cyclic_refs_certify_exactly_the_cyclic_layout():
    for k in range(3, 10):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r), seed=k * r)
            refs = cyclic_refs(db.contents, k, r)
            # node i's own piece objects, which cyclic_layout places back as built
            assert all(refs[i - 1] is db.contents[i][i] for i in range(1, k + 1))
            # segment i on nodes i..i+r-1, each node's segments in ascending order
            expected = {n: {} for n in range(1, k + 1)}
            for i in range(1, k + 1):
                for n in cyclic_range(i, r, k):
                    expected[n][i] = refs[i - 1]
            for layout in (cyclic_layout(refs, r), db.contents):
                assert list(layout) == list(expected)
                for n, items in layout.items():
                    assert list(items) == list(expected[n]), (k, r, n)
                    assert all(map(operator.is_, items.values(), expected[n].values()))
            # replicas need only be equal, not one object
            node = r % k + 1
            index = next(iter(db.contents[node]))
            piece = db.contents[node][index]
            copy = StoredPiece(piece.n_atoms, piece.bits)
            assert cyclic_refs(tampered(db, node, index, copy).contents, k, r)

            outside = next(i for i in range(1, k + 1) if i not in db.contents[node])
            for bad in (
                {n: items for n, items in db.contents.items() if n != node},  # missing node
                {**db.contents, k + 1: {}},  # extra node
                tampered(db, node, index, None).contents,  # missing item
                tampered(db, node, node, None).contents,  # missing own segment
                tampered(db, node, outside, piece).contents,  # extra item
                flip_stored_bit(db, node, index, 0).contents,  # flipped replica
            ):
                assert cyclic_refs(bad, k, r) is None, (k, r)
            assert cyclic_refs(db.contents, k, r - 1) is None
            assert cyclic_refs(db.contents, k + 1, r) is None


def tampered(db, node, index, piece):
    """Copy of db with node's item index set to piece, or deleted for None."""
    contents = {n: dict(items) for n, items in db.contents.items()}
    if piece is None:
        del contents[node][index]
    else:
        contents[node][index] = piece
    return replace(db, contents=contents)


@pytest.mark.parametrize("change", ["remove", "add"])
def test_a_rebalanced_database_is_refused(change):
    db = build_cyclic_database(default_params(6, 3), seed=0)
    final = (rebalance_remove(db, 6) if change == "remove" else rebalance_add(db)).final
    # the layout's generation follows from its node count and cannot be set
    assert (db.generation, final.generation) == ("original", "target")
    with pytest.raises(AttributeError):
        final.generation = "original"
    with pytest.raises(ParameterError, match="^removal runs on an original-layout database$"):
        rebalance_remove(final, 1)
    with pytest.raises(ParameterError, match="^addition runs on an original-layout database$"):
        rebalance_add(final)


def test_storage_is_keyed_by_plain_ints_in_range():
    # original, removal-target and addition-target layouts alike: nodes and
    # segment indices are ints in 1..n_nodes of that layout
    for k in range(3, 13):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r), seed=k + r)
            dbs = [db, rebalance_add(db).final]
            if r >= 3:
                dbs.append(rebalance_remove(db, (k * r) % k + 1).final)
            for layout in dbs:
                span = range(1, layout.n_nodes + 1)
                for node, items in layout.contents.items():
                    assert type(node) is int and node in span, (k, r, layout.generation)
                    for index in items:
                        assert type(index) is int and index in span, (k, r, node)


def test_content_cache_holds_only_the_latest_build():
    params = default_params(12, 5)
    first = build_cyclic_database(params, seed=1)
    run = rebalance_remove(first, 4)
    second = build_cyclic_database(params, seed=2)
    info = database_content.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)
    # the one cached content is the second build's own ints
    held = database_content(2, params.n_nodes, params.segment_bits)
    assert database_content.cache_info().hits == info.hits + 1
    assert all(held[i - 1] is second.stored(i, i).bits for i in range(1, params.n_nodes + 1))
    # the first database's segments are gone from the cache and regenerate
    assert verify_change(run, seed=1).ok


def test_build_rejects_invalid_params():
    with pytest.raises(ParameterError):
        build_cyclic_database(SystemParams(6, 3, 69), seed=0)

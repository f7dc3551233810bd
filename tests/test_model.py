"""Core model: index arithmetic, content generator, database construction."""

import hashlib
import operator
import sys
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
    make_split_plan,
    rebalance_add,
    rebalance_remove,
    segment_content,
    slice_atoms,
    storage_set,
    verify_change,
)
from rebalance import model as model_module
from rebalance.model import concat_bits, cyclic_layout, cyclic_mask, cyclic_refs, database_content

pair = st.integers(min_value=4, max_value=60).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=k), st.integers(min_value=1, max_value=k))
)


# The paper's wrapping label arithmetic is the removal plan's label map:
# i box-plus j is make_split_plan(params, j).actual[i] over K nodes, and
# i box-minus j is i box-plus (K - j) for j < K, i box-plus K for j = K.
def box_plus(i, j, k):
    return make_split_plan(default_params(k, 3), j).actual[i]


def minus_shift(j, modulus):
    return modulus - j if j < modulus else modulus


def test_box_ops_known_values():
    assert box_plus(5, 3, 6) == 2
    assert box_plus(2, 3, 6) == 5
    assert box_plus(1, minus_shift(3, 6), 6) == 4
    assert box_plus(6, minus_shift(3, 6), 6) == 3
    assert box_plus(4, minus_shift(4, 6), 6) == 6


@settings(derandomize=True)
@given(pair)
def test_box_ops_inverse(t):
    k, i, j = t
    back = minus_shift(j, k)
    assert box_plus(box_plus(i, j, k), back, k) == i
    assert box_plus(box_plus(i, back, k), j, k) == i
    assert 1 <= box_plus(i, j, k) <= k


def test_cyclic_range_wraps():
    assert cyclic_range(5, 3, 6) == (5, 6, 1)
    assert cyclic_range(1, 0, 6) == ()
    assert cyclic_range(4, 3, 5) == (4, 5, 1)


def test_cyclic_mask_sets_the_bit_of_each_label_of_cyclic_range():
    for mod in range(1, 31):
        for start in range(1, mod + 1):
            for count in range(mod + 1):
                want = sum(1 << x for x in cyclic_range(start, count, mod))
                assert cyclic_mask(start, count, mod) == want, (start, count, mod)


def test_an_addition_holder_past_n_lacks_every_origin():
    # the merge's holders of a target that lack an origin are the target's
    # window over n+1 holders less the origin's stored window over n nodes:
    # the new node n+1 is in that difference whenever it holds the target
    for n in range(3, 31):
        for r in range(2, n):
            for origin in range(1, n + 1):
                stored = cyclic_mask(origin, r, n)
                assert stored >> n + 1 == 0, (n, r, origin)
                for target in range(1, n + 2):
                    held = cyclic_mask(target, r, n + 1)
                    need = held & ~stored
                    assert bool(need >> n + 1) == (n + 1 in cyclic_range(target, r, n + 1))


def test_storage_set_matches_layout():
    # K=6, r=3: node 1 ends up holding segments 1, 5, 6
    holds = [i for i in range(1, 7) if 1 in storage_set(i, 6, 3)]
    assert holds == [1, 5, 6]
    assert storage_set(5, 6, 3) == {5, 6, 1}


def test_relabel_for_removed_node():
    assert box_plus(6, 3, 6) == 3
    assert box_plus(1, 3, 6) == 4
    assert box_plus(4, 6, 6) == 4  # identity when the last node leaves


@pytest.mark.parametrize("removed", [0, 7, -1])
def test_relabel_rejects_a_removed_node_outside_the_cluster(removed):
    # -1 is the shift of 1 box-minus 7, which names no node
    with pytest.raises(ParameterError, match=rf"^removed node {removed} outside \[1, 6\]$"):
        make_split_plan(default_params(6, 3), removed)


def test_relabel_is_bijection():
    # canonical c -> actual, the shift that puts the removed node last
    for k in range(4, 41):
        for removed in range(1, k + 1):
            actual = make_split_plan(default_params(k, 3), removed).actual
            assert sorted(actual[1:]) == list(range(1, k + 1)), (k, removed)
            assert actual[k] == removed
            assert actual == (0, *[(c + removed - 1) % k + 1 for c in range(1, k + 1)])


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
            refs, deviating = cyclic_refs(db.contents, k, r)
            assert deviating == set()
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
            assert index != node
            piece = db.contents[node][index]
            copy = StoredPiece(piece.n_atoms, piece.bits)
            assert cyclic_refs(tampered(db, node, index, copy).contents, k, r) == (refs, set())

            # each tampering: (contents, n, r, deviating nodes, segments whose ref is None);
            # node i's piece is the reference, so damage to it lists the other holders
            own = set(cyclic_range(node, r, k))
            outside = next(i for i in range(1, k + 1) if i not in db.contents[node])
            cases = {
                "missing node": (
                    {n: items for n, items in db.contents.items() if n != node}, k, r, own, {node}
                ),
                "extra node": ({**db.contents, k + 1: {}}, k, r, {k + 1}, set()),
                "missing item": (tampered(db, node, index, None).contents, k, r, {node}, set()),
                "missing own segment": (
                    tampered(db, node, node, None).contents, k, r, own, {node}
                ),
                "extra item": (tampered(db, node, outside, piece).contents, k, r, {node}, set()),
                "flipped replica": (
                    flip_stored_bit(db, node, index, 0).contents, k, r, {node}, set()
                ),
                "flipped own segment": (
                    flip_stored_bit(db, node, node, 0).contents, k, r, own - {node}, set()
                ),
                "r one too low": (db.contents, k, r - 1, set(range(1, k + 1)), set()),
                "n one too high": (db.contents, k + 1, r, {*range(1, r), k + 1}, {k + 1}),
            }
            for name, (contents, n, rr, want, missing) in cases.items():
                got_refs, got = cyclic_refs(contents, n, rr)
                assert got == want, (k, r, name)
                assert {i for i, ref in enumerate(got_refs, 1) if ref is None} == missing
                assert len(got_refs) == n
            # a stored ref is node i's piece, damaged or not
            flipped = flip_stored_bit(db, node, node, 0).contents
            assert cyclic_refs(flipped, k, r)[0][node - 1] is flipped[node][node]


def layout_oracle(pieces, r):
    """The cyclic layout one window at a time: node m's segments m-r+1..m (cyclic)
    sorted, each inserted in turn into a fresh dict."""
    n = len(pieces)
    out = {}
    for m in range(1, n + 1):
        window = sorted((m - j - 1) % n + 1 for j in range(r))
        out[m] = dict(zip(window, [pieces[i - 1] for i in window]))
    return out


def assert_layout_is_the_oracle(pieces, r):
    got, want = cyclic_layout(pieces, r), layout_oracle(pieces, r)
    assert list(got) == list(want)
    for m, items in got.items():
        assert list(items) == list(want[m]), (len(pieces), r, m)
        assert all(map(operator.is_, items.values(), want[m].values())), (len(pieces), r, m)
        # a copied window may not keep a hash table larger than a fresh dict's
        assert sys.getsizeof(items) <= sys.getsizeof(want[m]), (len(pieces), r, m)


def test_cyclic_layout_matches_a_per_window_oracle():
    for n in range(1, 41):
        for r in range(1, n + 1):
            assert_layout_is_the_oracle([StoredPiece(1, i) for i in range(n)], r)
    for r in (0, 4):
        with pytest.raises(ParameterError, match=rf"^replication {r} outside \[1, 3\]$"):
            cyclic_layout([StoredPiece(1, i) for i in range(3)], r)


@pytest.mark.parametrize("n, r", [(240, 30), (240, 200), (300, 150)])
def test_large_cyclic_layouts_hold_no_larger_tables_than_the_oracle(n, r):
    assert_layout_is_the_oracle([StoredPiece(1, i) for i in range(n)], r)


def refs_by_lookup(contents, n, r):
    """cyclic_refs written out key by key: node i's piece of segment i, and the
    nodes that are outside 1..n, do not hold exactly their window's keys, hold
    a piece unequal to a ref, or hold a segment whose ref is missing."""
    refs = [contents.get(i, {}).get(i) for i in range(1, n + 1)]
    deviating = {m for m in contents if m not in range(1, n + 1)}
    for m in range(1, n + 1):
        items = contents.get(m, {})
        window = {(m - j - 1) % n + 1 for j in range(r)}
        if set(items) != window:
            deviating.add(m)
        elif any(refs[i - 1] is None or items[i] != refs[i - 1] for i in window):
            deviating.add(m)
    for i in range(1, n + 1):
        if refs[i - 1] is None:
            deviating |= {(i + j - 1) % n + 1 for j in range(r)}
    return refs, deviating


TAMPERINGS = ("reorder", "drop", "extra", "rename", "swap", "equal copy", "extra node")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_cyclic_refs_equal_a_lookup_only_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=12), label="n")
    r = data.draw(st.integers(min_value=1, max_value=n), label="r")
    pieces = [StoredPiece(2, i) for i in range(n)]
    contents = {m: dict(items) for m, items in cyclic_layout(pieces, r).items()}
    kinds = data.draw(st.lists(st.sampled_from(TAMPERINGS), max_size=3), label="tamperings")
    for kind in kinds:
        node = data.draw(st.sampled_from(sorted(contents)), label="node")
        items = contents[node]
        keys = list(items)
        if kind == "reorder":
            order = data.draw(st.permutations(keys), label="order")
            contents[node] = {i: items[i] for i in order}
        elif kind == "extra node":
            contents[data.draw(st.sampled_from([0, n + 1, n + 2]))] = dict(items)
        elif not keys:
            continue
        elif kind == "drop":
            del items[data.draw(st.sampled_from(keys))]
        elif kind == "extra":
            index = data.draw(st.integers(min_value=0, max_value=n + 1))
            items[index] = data.draw(st.sampled_from(pieces))
        elif kind == "rename":
            old = data.draw(st.sampled_from(keys))
            new = data.draw(st.integers(min_value=0, max_value=n + 1))
            items[new] = items.pop(old)
        elif kind == "swap":
            a, b = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
            items[a], items[b] = items[b], items[a]
        else:  # an equal copy, not the same object: replicas need only be equal
            index = data.draw(st.sampled_from(keys))
            items[index] = StoredPiece(items[index].n_atoms, items[index].bits)
    got_refs, got = cyclic_refs(contents, n, r)
    want_refs, want = refs_by_lookup(contents, n, r)
    assert all(map(operator.is_, got_refs, want_refs)) and got == want
    if set(kinds) <= {"reorder", "equal copy"}:
        assert got == set()


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

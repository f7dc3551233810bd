"""Node addition: plan geometry, traffic, final layout."""

import hashlib
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebalance import (
    MergeFailureError,
    ParameterError,
    RebalanceError,
    addition_expected_layout,
    addition_load,
    build_cyclic_database,
    cyclic_range,
    default_params,
    flip_stored_bit,
    rebalance_add,
    slice_atoms,
    verify_change,
)
from rebalance import addition as addition_module
from rebalance import removal_merge
from rebalance.addition import make_addition_plan


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


def test_golden_run_6_3():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    run = rebalance_add(db)
    assert run.log.load == Fraction(18, 7) == addition_load(6, 3)
    assert run.report.matches_formula
    assert run.report.lower_bound == run.report.measured
    # the targets are the plan's own, built once
    assert run.recipes is run.plan.recipes is addition_expected_layout(run.plan)
    assert [t.target for t in run.recipes] == list(range(1, 8))

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
        holders = {n for n, items in final.contents.items() if i in items}
        assert holders == set(cyclic_range(i, 3, 7))


def test_new_segment_concatenates_trailers():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=11)
    run = rebalance_add(db)
    w = params.atom_bits
    want = 0
    for i in range(1, 7):
        src = db.stored(i, i).bits
        want |= slice_atoms(src, 60, 70, w) << ((i - 1) * 10 * w)
    for node in (7, 1, 2):
        piece = run.final.stored(node, 7)
        assert piece.bits == want
        assert piece.n_atoms == 60


def test_kept_parts_are_leading_slices():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=11)
    run = rebalance_add(db)
    w = params.atom_bits
    for i in range(1, 7):
        want = slice_atoms(db.stored(i, i).bits, 0, 60, w)
        for node in cyclic_range(i, 3, 7):
            assert run.final.stored(node, i).bits == want


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
def test_load_meets_lower_bound_everywhere(total_stored_atoms, kr):
    k, r = kr
    params = default_params(k, r)
    db = build_cyclic_database(params, seed=2)
    run = rebalance_add(db)
    assert run.log.load == Fraction(r * k, k + 1)
    assert run.log.load == addition_load(k, r)
    # stored volume unchanged in proportion: r replicas of K+1 equal segments
    assert total_stored_atoms(run.final) == r * (k + 1) * run.final.segment_atoms


def test_missing_kept_segment_raises_package_error():
    db = build_cyclic_database(default_params(6, 3), seed=0)
    # node 3 holds W_2 but is not its sender, so only the kept-part cut fails
    db.contents = {n: dict(items) for n, items in db.contents.items()}
    del db.contents[3][2]
    message = "node 3 cannot source atoms [0:60] of segment 2 for target 2"
    with pytest.raises(MergeFailureError, match=re.escape(message)):
        rebalance_add(db)


@pytest.mark.parametrize("k,r", [(6, 3), (12, 9), (20, 5)])
def test_a_discarded_segment_is_sourced_off_the_bus(k, r):
    params = default_params(k, r)
    db = build_cyclic_database(params, seed=k + r)
    w = params.atom_bits
    for n in range(1, r):
        # node n discards segment i = K-r+1+n but needs its trailer for segment K+1
        i = k - r + 1 + n
        damaged = replace(db, contents={m: dict(items) for m, items in db.contents.items()})
        del damaged.contents[n][i]
        run = rebalance_add(damaged)
        assert verify_change(run, seed=k + r).ok, (k, r, n)
        # the trailer in node n's new segment is the broadcast that lists node n;
        # the small parts go first, in segment order
        sent = run.log.broadcasts[i - 1]
        assert sent.operands == (run.plan.small[i - 1],)
        assert n in sent.operands[0].superscript
        small_atoms = run.plan.small[0].size_atoms
        new = run.final.stored(n, k + 1)
        assert slice_atoms(new.bits, (i - 1) * small_atoms, i * small_atoms, w) == sent.payload
        assert new is run.final.stored(k + 1, k + 1)


def test_kept_replicas_share_one_int():
    params = default_params(12, 4)
    db = build_cyclic_database(params, seed=6)
    run = rebalance_add(db)
    final = run.final
    for i in range(1, 14):
        holders = cyclic_range(i, 4, 13)
        replicas = [final.stored(n, i).bits for n in holders]
        assert len(set(replicas)) == 1
        if i <= 12:
            # the old holders cut the kept part from one shared stored int
            old = [bits for n, bits in zip(holders, replicas) if n != 13]
            assert all(bits is old[0] for bits in old)
            if 13 in holders:
                # the new node shares the old holders' piece of a shipped kept part
                assert final.stored(13, i) is final.stored(holders[0], i)
        else:
            # local and broadcast trailers agree, so the new segment is built once
            assert all(bits is replicas[0] for bits in replicas)

    # a flipped bit in a shared replica damages only the node it was flipped at
    node = 6
    bad = flip_stored_bit(final, node, 5, 0)
    assert final.stored(5, 5).bits is final.stored(node, 5).bits
    rep = verify_change(replace(run, final=bad), seed=6)
    assert rep.findings
    for _, msg in rep.findings:
        assert f"node {node}" in msg and "segment 5" in msg


def addition_outcome(db):
    """Everything an addition produces: every (node, index, n_atoms, bits) in
    node and key order, which replicas are one object (numbered by first
    appearance), the broadcasts, load and report; or the error it raised."""
    try:
        run = rebalance_add(db)
    except RebalanceError as exc:
        return type(exc).__name__, str(exc)
    stream, sharing, first = [], [], {}
    for node, items in run.final.contents.items():
        for index, piece in items.items():
            stream.append((node, index, piece.n_atoms, piece.bits))
            sharing.append(first.setdefault(id(piece), len(first)))
    return stream, sharing, run.log.broadcasts, run.log.load, run.report


def damaged_inputs(db, rng):
    """(name, database): the clean build, one replica flipped, one replica deleted."""
    yield "clean", db
    node = rng.randint(1, db.n_nodes)
    index = rng.choice(list(db.contents[node]))
    bit = rng.randrange(db.segment_atoms * db.params.atom_bits)
    yield "flipped", flip_stored_bit(db, node, index, bit)
    node = rng.randint(1, db.n_nodes)
    index = rng.choice(list(db.contents[node]))
    deleted = replace(db, contents={n: dict(items) for n, items in db.contents.items()})
    del deleted.contents[node][index]
    yield "deleted", deleted


def test_certified_additions_equal_the_walk(monkeypatch):
    rng = random.Random(12)
    walked = []
    merge_by_walk = removal_merge.merge_by_walk

    def counted_walk(*args):
        walked.append(args[0])
        return merge_by_walk(*args)

    monkeypatch.setattr(removal_merge, "merge_by_walk", counted_walk)
    kinds = set()
    for k in range(3, 13):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r, t_mult=1 + k % 2), seed=k * r)
            for name, case in damaged_inputs(db, rng):
                walked.clear()
                fast = addition_outcome(case)
                # a clean build is certified and never walks; damage walks
                # unless a broadcast's sender lacked its piece before the layout
                if name == "clean" or fast[0] == "ProtocolViolationError":
                    assert walked == [], (k, r, name)
                else:
                    assert walked == [case], (k, r, name)
                with monkeypatch.context() as m:
                    m.setattr(addition_module, "cyclic_refs", lambda *a: None)
                    assert addition_outcome(case) == fast, (k, r, name)
                kinds.add(fast[0] if isinstance(fast[0], str) else name)
                if not isinstance(fast[0], str):
                    # replicas of one target equal in (n_atoms, bits) are one object
                    number = {}
                    for (_, index, n_atoms, bits), obj in zip(fast[0], fast[1]):
                        assert number.setdefault((index, n_atoms, bits), obj) == obj, (k, r, name)
    assert kinds == {"clean", "flipped", "deleted", "MergeFailureError", "ProtocolViolationError"}


# sha256 of an addition's (node, index, n_atoms, bits) stream and broadcast
# payloads at a size well beyond the pinned (6,3) trace; these bits must never change
ADD_40_30_SEED_7 = "b6127198c6d7169212f1fbd48780f1d0684d9ed158f4db15163939152f4514d2"


def test_addition_stream_is_pinned_at_40_30(monkeypatch):
    walks = []
    merge_by_walk = removal_merge.merge_by_walk

    def counted_walk(*args):
        walks.append(args)
        return merge_by_walk(*args)

    # a clean addition of this size is built per segment, never by the walk
    monkeypatch.setattr(removal_merge, "merge_by_walk", counted_walk)
    run = rebalance_add(build_cyclic_database(default_params(40, 30), seed=7))
    assert walks == []
    h = hashlib.sha256()
    for node, items in run.final.contents.items():
        for index, piece in items.items():
            h.update(f"{node} {index} {piece.n_atoms} {piece.bits:x}\n".encode())
    for b in run.log.broadcasts:
        h.update(f"{b.sender} {b.payload_atoms} {b.payload:x}\n".encode())
    assert h.hexdigest() == ADD_40_30_SEED_7

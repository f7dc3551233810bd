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
    deliver,
    drop_broadcast,
    flip_stored_bit,
    rebalance_add,
    slice_atoms,
    verify_change,
)
from rebalance import addition, removal_merge
from rebalance.addition import make_addition_plan
from rebalance.bus import encode
from rebalance.model import cyclic_refs
from rebalance.removal_schemes import decode_groups


def test_golden_plan_6_3():
    plan = make_addition_plan(default_params(6, 3))
    assert all(kind == "uncoded" and len(ops) == 1 for _, kind, ops, _ in plan.slots)
    trailers, shipped = plan.slots[:6], plan.slots[6:]
    # node i sends segment i's trailer
    assert [(sender, ops[0].base) for sender, _, ops, _ in trailers] == [
        (i, i) for i in range(1, 7)
    ]
    assert [(ops[0].atom_start, ops[0].atom_stop, atoms) for _, _, ops, atoms in trailers] == [
        (60, 70, 10)
    ] * 6
    assert [ops[0].superscript for _, _, ops, _ in trailers] == [
        (7,),
        (1, 7),
        (1, 2, 7),
        (1, 2, 7),
        (1, 2, 7),
        (1, 2, 7),
    ]
    # segments 5 and 6 ship their kept part to the new node; the rest ship nothing
    assert [(sender, ops[0].base) for sender, _, ops, _ in shipped] == [(5, 5), (6, 6)]
    assert [(ops[0].atom_start, ops[0].atom_stop, atoms) for _, _, ops, atoms in shipped] == [
        (0, 60, 60)
    ] * 2
    assert [ops[0].superscript for _, _, ops, _ in shipped] == [(7,), (7,)]
    # every segment keeps its leading 60 atoms
    assert [t.parts for t in plan.recipes[:6]] == [((i, 0, 60),) for i in range(1, 7)]
    # holder labels are node labels, the new node 7 among them
    assert plan.scheme == "addition"
    assert plan.actual == tuple(range(6 + 2))


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
        assert sent.operands == run.plan.slots[i - 1][2]
        assert n in sent.operands[0].superscript
        small_atoms = run.plan.slots[0][3]
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
    # segments K-r+2..K keep the very int their shipped slot carried
    shipped = run.log.broadcasts[12:]
    assert [b.operands[0].base for b in shipped] == [10, 11, 12]
    for b in shipped:
        assert final.stored(b.operands[0].base, b.operands[0].base).bits is b.payload

    # a flipped bit in a shared replica damages only the node it was flipped at
    node = 6
    bad = flip_stored_bit(final, node, 5, 0)
    assert final.stored(5, 5).bits is final.stored(node, 5).bits
    rep = verify_change(replace(run, final=bad), seed=6)
    assert rep.findings
    for _, msg in rep.findings:
        assert f"node {node}" in msg and "segment 5" in msg


def test_a_damaged_addition_keeps_shipped_parts_as_their_payloads(every_node_deviates, oracle_merge):
    # damage sends the addition to the walk, which cuts every replica from its
    # sources: the result is the all-walk merge and the per-holder oracle's,
    # each target's equal replicas are one object, and segments K-r+2..K keep
    # parts equal to the payloads that shipped them
    params = default_params(12, 4)
    db = build_cyclic_database(params, seed=6)
    bad = flip_stored_bit(db, 3, 2, 0)
    # node 3 deviates, so the addition is delivered and merged
    assert cyclic_refs(bad.contents, 12, 4)[1] == {3}
    fast = addition_outcome(bad)
    with every_node_deviates():
        assert addition_outcome(bad) == fast
    run = rebalance_add(bad)
    plan = run.plan
    want = oracle_merge(bad, plan, plan.recipes, deliver(bad, run.log, plan))
    assert (run.final.n_nodes, run.final.contents) == (want.n_nodes, want.contents)
    for recipe in plan.recipes:
        replicas = [run.final.stored(n, recipe.target) for n in recipe.holders]
        assert len({id(p) for p in replicas}) == len({(p.n_atoms, p.bits) for p in replicas})
    # node 3's replica of segment 2 carries the flipped bit; the others share one piece
    assert len({id(run.final.stored(n, 2)) for n in cyclic_range(2, 4, 13)}) == 2
    shipped = run.log.broadcasts[12:]
    assert [b.operands[0].base for b in shipped] == [10, 11, 12]
    for b in shipped:
        base = b.operands[0].base
        assert all(run.final.stored(n, base).bits == b.payload for n in cyclic_range(base, 4, 13))


def test_a_damaged_addition_certifies_its_input_once(monkeypatch):
    # rebalance_add hands its certificate to the merge, which computes none
    params = default_params(12, 4)
    bad = flip_stored_bit(build_cyclic_database(params, seed=6), 3, 2, 0)
    expected = addition_outcome(bad)
    calls = []

    def counted(contents, n, r):
        calls.append((n, r))
        return cyclic_refs(contents, n, r)

    merges = []
    merge = removal_merge.merge

    def recorded_merge(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(addition, "cyclic_refs", counted)
    monkeypatch.setattr(removal_merge, "cyclic_refs", counted)
    monkeypatch.setattr(removal_merge, "merge", recorded_merge)
    assert addition_outcome(bad) == expected
    assert len(merges) == 1 and calls == [(12, 4)]


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


def test_certified_additions_equal_the_walk(
    monkeypatch, every_node_deviates, rule_calls, expected_rule_calls
):
    rng = random.Random(12)
    merges = []
    merge = removal_merge.merge

    def recorded_merge(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(removal_merge, "merge", recorded_merge)
    kinds = set()
    for k in range(3, 13):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r, t_mult=1 + k % 2), seed=k * r)
            for name, case in damaged_inputs(db, rng):
                merges.clear()
                rule_calls.clear()
                fast = addition_outcome(case)
                # a clean build is certified and never merges; damage merges
                # unless a broadcast's sender lacked its piece before the layout
                if name == "clean" or fast[0] == "ProtocolViolationError":
                    assert merges == [] and rule_calls == [], (k, r, name)
                else:
                    assert [args[0] for args in merges] == [case], (k, r, name)
                    # the source rule runs at every holder, up to the first
                    # that fails; the merge took the decode stream, which
                    # deliver folds for the reading
                    db, actual, recipes = merges[0][:3]
                    plan = make_addition_plan(db.params)
                    received = deliver(db, encode(db, plan.slots), plan)
                    expected = expected_rule_calls(db, actual, recipes, received)
                    assert len(expected) == r * (k + 1), (k, r, name)
                    assert rule_calls and rule_calls == expected[: len(rule_calls)], (k, r, name)
                    if fast[0] != "MergeFailureError":
                        assert rule_calls == expected, (k, r, name)
                with every_node_deviates():
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


def test_a_kept_part_only_the_new_node_misses_fails_there(rule_calls, expected_rule_calls):
    # the new node K+1 is a holder past K that stores no segment: a dropped
    # shipped kept part starves it alone, on a certified layout, so the merge
    # walks and fails at that node
    for k in range(4, 13):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r), seed=k * r)
            plan = make_addition_plan(db.params)
            log = encode(db, plan.slots)
            certificate = cyclic_refs(db.contents, k, r)
            assert not certificate[1]
            for i in range(k, len(log.broadcasts)):
                (op,) = log.broadcasts[i].operands
                assert op.superscript == (k + 1,)
                dropped = drop_broadcast(log, i)
                received = deliver(db, dropped, plan)
                expected = expected_rule_calls(db, plan.actual, plan.recipes, received)
                groups = decode_groups(db, dropped)
                rule_calls.clear()
                with pytest.raises(MergeFailureError) as failure:
                    removal_merge.merge(db, plan.actual, plan.recipes, groups, certificate)
                assert str(failure.value) == (
                    f"node {k + 1} cannot source atoms [0:{op.atom_stop}] "
                    f"of segment {op.base} for target {op.base}"
                ), (k, r, i)
                assert rule_calls == expected[: expected.index((op.base, k + 1)) + 1], (k, r, i)


def test_addition_stream_is_pinned_at_40_30(rule_calls):
    run = rebalance_add(build_cyclic_database(default_params(40, 30), seed=7))
    # a clean addition of this size is built per segment, never holder by holder
    assert rule_calls == []
    h = hashlib.sha256()
    for node, items in run.final.contents.items():
        for index, piece in items.items():
            h.update(f"{node} {index} {piece.n_atoms} {piece.bits:x}\n".encode())
    for b in run.log.broadcasts:
        h.update(f"{b.sender} {b.payload_atoms} {b.payload:x}\n".encode())
    assert h.hexdigest() == ADD_40_30_SEED_7

"""Delivery streams into the merge.

rebalance_remove, where no survivor deviates, streams bus.encoded into
removal_merge.merge through certified_groups, which yields each operand's
receivers, one by one, with encode's own cut; any other input, and a damaged
rebalance_add, feed decode_groups into the merge. The merge keeps an
agreeing piece's receivers but not its int. These tests pin that each
stream gives what the merge gives fed deliver's dict or the plain stream,
on clean and damaged input, that a certified removal cuts each operand once
and decodes nothing, damage at the removed node alone included, that its
two faults raise as the plain path raises them, and that a removal's memory
peak stays within a small slack of what it returns.
"""

import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from rebalance import (
    DecodeFailureError,
    MergeFailureError,
    ProtocolViolationError,
    addition,
    bus,
    apply_merge,
    build_cyclic_database,
    build_merge_recipes,
    choose_scheme,
    default_params,
    deliver,
    drop_broadcast,
    flip_stored_bit,
    make_split_plan,
    model,
    rebalance_add,
    rebalance_remove,
    removal_merge,
    removal_schemes,
    verify_change,
)
from rebalance.addition import make_addition_plan
from rebalance.bus import encode
from rebalance.model import SubsegmentLabel, cyclic_refs, slice_atoms
from rebalance.removal_schemes import certified_groups, decode_groups, removal_slots

# the (K, r) pairs of the removal_large workload (benchmark/harness.py)
LARGE_PAIRS = ((240, 30), (240, 120), (240, 160), (240, 200), (300, 150))


def outcome(run_merge):
    """Every (node, index, n_atoms, bits) of the merged database in node and
    key order, and which replicas are one object (numbered by first
    appearance); or the error's type and text, which names the node."""
    try:
        final = run_merge()
    except (MergeFailureError, DecodeFailureError, ProtocolViolationError) as exc:
        return type(exc).__name__, str(exc)
    stream, sharing, first = [], [], {}
    for node, items in final.contents.items():
        for index, piece in items.items():
            stream.append((node, index, piece.n_atoms, piece.bits))
            sharing.append(first.setdefault(id(piece), len(first)))
    return final.n_nodes, stream, sharing


def damaged(db, log, rng):
    """(name, database, log): the clean input, one flipped stored bit (the log
    encoded from the flipped store), one dropped broadcast, one flipped
    payload bit, that flipped broadcast sent again after the clean one (its
    receivers keep the first piece), and one deleted stored segment under the
    clean log."""
    w = db.params.atom_bits
    yield "clean", db, log
    node = rng.choice(list(db.contents))
    index = rng.choice(list(db.contents[node]))
    flipped = flip_stored_bit(db, node, index, rng.randrange(db.segment_atoms * w))
    yield "stored bit", flipped, None
    yield "dropped", db, drop_broadcast(log, rng.randrange(len(log.broadcasts)))
    sized = [i for i, b in enumerate(log.broadcasts) if b.operands and b.payload_atoms > 0]
    i = rng.choice(sized)
    b = log.broadcasts[i]
    broadcasts = list(log.broadcasts)
    broadcasts[i] = b._replace(payload=b.payload ^ (1 << rng.randrange(b.payload_atoms * w)))
    yield "payload bit", db, replace(log, broadcasts=broadcasts)
    yield "sent again", db, replace(log, broadcasts=[*log.broadcasts, broadcasts[i]])
    deleted = replace(db, contents={n: dict(items) for n, items in db.contents.items()})
    del deleted.contents[node][index]
    yield "deleted", deleted, log


def removal_inputs(k):
    """(case label, plan, recipes, slots, database, log) for every damaged()
    input of two removed nodes per r in 3..k-1 under each schedule; log is
    None where the stored bit is flipped, to be encoded from that store."""
    rng = random.Random(k)
    for r in range(3, k):
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=k * r)
        for removed in rng.sample(range(1, k + 1), 2):
            plan = make_split_plan(params, removed)
            recipes = build_merge_recipes(params, plan)
            for scheme in ("scheme1", "scheme2", "uncoded"):
                slots = removal_slots(plan, scheme)
                for name, case, log in damaged(db, encode(db, slots), rng):
                    yield (k, r, removed, scheme, name), plan, recipes, slots, case, log


@pytest.mark.parametrize("k", range(4, 11))
def test_streamed_removals_equal_the_merge_of_delivers_dict(k):
    kinds = set()
    for where, plan, recipes, slots, case, log in removal_inputs(k):
        removed, scheme = where[2], where[3]
        if log is None:
            log = encode(case, slots)
            # the whole pipeline streams its own log
            assert outcome(lambda: rebalance_remove(case, removed, scheme).final) == (
                outcome(lambda: apply_merge(case, plan, recipes, deliver(case, log, plan)))
            ), where
        for strict in (True, False):
            streamed = outcome(
                lambda: apply_merge(case, plan, recipes, decode_groups(case, log), strict)
            )
            folded = outcome(
                lambda: apply_merge(case, plan, recipes, deliver(case, log, plan), strict)
            )
            assert streamed == folded, (where, strict)
            kinds.add(streamed[0] if isinstance(streamed[0], str) else "merged")
    if k >= 6:
        assert kinds == {"merged", "MergeFailureError", "DecodeFailureError"}, kinds


@pytest.mark.parametrize("k", range(4, 11))
def test_checked_removals_equal_the_plain_stream(k):
    # a certified layout's schedule, encoded and delivered in one pass by
    # certified_groups, merges as its log through the plain per-receiver
    # stream does; a damaged layout names deviating nodes, so rebalance_remove
    # encodes it whole and decodes at every receiver. A tampered log has only the
    # plain stream, which the test above checks against deliver's dict
    for where, plan, recipes, slots, case, log in removal_inputs(k):
        removed, scheme, name = where[2:]
        certificate = cyclic_refs(case.contents, k, case.params.replication)
        actual = plan.actual[:k]
        if name == "clean":
            assert not certificate[1], where
            for strict in (True, False):
                broadcasts = []
                checked = outcome(
                    lambda: removal_merge.merge(
                        case, actual, recipes, certified_groups(case, slots, broadcasts), strict,
                        certificate,
                    )
                )
                plain = outcome(
                    lambda: removal_merge.merge(
                        case, actual, recipes, decode_groups(case, log), strict, certificate
                    )
                )
                assert checked == plain and tuple(broadcasts) == log.broadcasts, (where, strict)
        elif certificate[1]:
            own = outcome(lambda: rebalance_remove(case, removed, scheme).final)
            plain = outcome(
                lambda: removal_merge.merge(
                    case, actual, recipes, decode_groups(case, encode(case, slots)), True,
                    certificate,
                )
            )
            assert own == plain, where


@pytest.fixture
def decode_calls(monkeypatch):
    """The (node, broadcast) of every decode_at_node call delivery makes."""
    calls = []
    real = removal_schemes.decode_at_node

    def counted(db, node, b):
        calls.append((node, b))
        return real(db, node, b)

    monkeypatch.setattr(removal_schemes, "decode_at_node", counted)
    return calls


@pytest.fixture
def cut_calls(monkeypatch):
    """How many atom ranges bus and removal_schemes cut, by module."""
    calls = Counter()

    for module in (bus, removal_schemes):
        def counted(bits, start, stop, w, name=module.__name__):
            calls[name] += 1
            return slice_atoms(bits, start, stop, w)

        monkeypatch.setattr(module, "slice_atoms", counted)
    return calls


def grid_removals():
    """(k, r, scheme, database, removed node) for every removal_grid case."""
    rng = random.Random(41)
    for k in range(4, 26):
        for r in range(3, k):
            db = build_cyclic_database(default_params(k, r), seed=k * r)
            node = rng.randint(1, k)
            for scheme in ("scheme1", "scheme2", "uncoded"):
                yield k, r, scheme, db, node


def test_a_clean_certified_removal_decodes_nothing(decode_calls, cut_calls):
    # every removal_grid case: a certified removal decodes no piece and cuts
    # each slot operand once, in encode. A flipped payload bit in a broadcast
    # of several operands makes a log that only the plain stream takes: it
    # decodes that broadcast, and the merge either leaves the clean run's
    # contents or the verifier finds the flip
    rng = random.Random(41)
    cases = flipped = 0
    for k, r, scheme, db, node in grid_removals():
        run = rebalance_remove(db, node, scheme)
        assert not decode_calls, (k, r, scheme, decode_calls[:1])
        operands = sum([len(slot[2]) for slot in run.plan.slots])
        assert cut_calls == Counter({"rebalance.bus": operands}), (k, r, scheme)
        cut_calls.clear()
        cases += 1
        coded = [
            i for i, b in enumerate(run.log.broadcasts)
            if len(b.operands) > 1 and any(op.superscript for op in b.operands)
        ]
        if not coded:
            continue
        i = rng.choice(coded)
        b = run.log.broadcasts[i]
        broadcasts = list(run.log.broadcasts)
        bit = rng.randrange(b.payload_atoms * db.params.atom_bits)
        broadcasts[i] = b._replace(payload=b.payload ^ (1 << bit))
        log = replace(run.log, broadcasts=broadcasts)
        plan, certificate = run.plan, cyclic_refs(db.contents, k, r)
        merged = removal_merge.merge(
            db, plan.actual, plan.recipes, decode_groups(db, log), True, certificate
        )
        assert broadcasts[i] in {b for _, b in decode_calls}, (k, r, scheme)
        assert merged.contents == run.final.contents or not (
            verify_change(replace(run, final=merged, log=log), k * r).ok
        ), (k, r, scheme)
        decode_calls.clear()
        cut_calls.clear()
        flipped += 1
    assert cases == 759 and flipped > 0, (cases, flipped)


def test_certified_removals_equal_encode_then_the_plain_stream(plain_twin):
    # the log, payload ints included, the final contents and the replica
    # sharing of every removal_grid case and every removal_large pair
    for k, r, scheme, db, node in grid_removals():
        twin, mine = plain_twin(db, rebalance_remove(db, node, scheme))
        assert twin == mine, (k, r, scheme)
    rng = random.Random(41)
    for k, r in LARGE_PAIRS:
        db = build_cyclic_database(default_params(k, r), seed=k + r)
        node = rng.randint(1, k)
        twin, mine = plain_twin(db, rebalance_remove(db, node))
        assert twin == mine, (k, r, node)


def test_damage_at_the_removed_node_alone_decodes_nothing(decode_calls):
    # every removal_grid case: the removed node neither sends nor receives, so
    # a flipped bit in its replica of another node's segment leaves every
    # survivor certified; the removal streams certified_groups, decodes
    # nothing and ends with the clean run's contents and log
    rng = random.Random(32)
    cases = 0
    for k, r, scheme, db, node in grid_removals():
        index = rng.choice([i for i in db.contents[node] if i != node])
        flipped = flip_stored_bit(db, node, index, rng.randrange(db.params.segment_bits))
        assert cyclic_refs(flipped.contents, k, r)[1] == {node}, (k, r, node)
        clean = rebalance_remove(db, node, scheme)
        run = rebalance_remove(flipped, node, scheme)
        assert not decode_calls, (k, r, scheme, node)
        assert outcome(lambda: run.final) == outcome(lambda: clean.final), (k, r, scheme)
        assert run.log == clean.log, (k, r, scheme)
        cases += 1
    assert cases == 759


def test_a_checked_receiver_without_a_base_fails_at_that_node(decode_calls):
    # a hand-built schedule on a certified layout: node 4 (segments 2..4)
    # wants W_1 but stores no W_5 to strip, while node 2 (segments 6, 1, 2)
    # can strip W_1 to take W_5. Node 2 gets encode's cut with no
    # decode, and node 4 goes to decode_at_node, which fails there as the
    # plain stream does
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=1)
    certificate = cyclic_refs(db.contents, 6, 3)
    assert not certificate[1]
    ops = (SubsegmentLabel(1, (4,), 0, 20), SubsegmentLabel(5, (2,), 10, 30))
    slots = [(1, "coded", ops, 20)]
    broadcasts = []
    checked = certified_groups(db, slots, broadcasts)
    first = next(checked)
    cut = slice_atoms(certificate[0][5 - 1].bits, 10, 30, params.atom_bits)
    assert first == ((5, 10, 30), [2], cut, True)
    assert not decode_calls
    log = encode(db, slots)
    assert tuple(broadcasts) == log.broadcasts
    message = r"^node 4 cannot rebuild W_5\^\{2\}\[10:30\] to decode W_1\^\{4\}\[0:20\]$"
    with pytest.raises(DecodeFailureError, match=message):
        next(checked)
    with pytest.raises(DecodeFailureError, match=message):
        list(decode_groups(db, log))
    assert [node for node, _ in decode_calls] == [4, 2, 4]


def test_a_node_named_in_two_operands_takes_neither():
    # node 3 is named in both operands, so it strips nothing and decodes
    # nothing, as in decode_groups; node 1 (segments 5, 6, 1) takes W_6 and
    # node 2 (segments 6, 1, 2) takes W_1, each as encode's own cut
    db = build_cyclic_database(default_params(6, 3), seed=1)
    ops = (SubsegmentLabel(1, (2, 3), 0, 20), SubsegmentLabel(6, (3, 1), 5, 25))
    slots = [(1, "coded", ops, 20)]
    broadcasts = []
    checked = list(certified_groups(db, slots, broadcasts))
    plain = list(decode_groups(db, encode(db, slots)))
    assert [(key, nodes) for key, nodes, _, _ in checked] == [((6, 5, 25), [1]), ((1, 0, 20), [2])]
    assert [group[:3] for group in checked] == [group[:3] for group in plain]
    assert [agrees for *_, agrees in checked] == [True, True]


def test_a_sender_without_a_base_fails_before_any_decode(decode_calls):
    # the decode failure above in the first slot, and a second slot whose
    # sender, node 2 (segments 6, 1, 2), does not hold the W_5 it sends:
    # every slot is checked before the first group is yielded, so encode's
    # ProtocolViolationError wins, as it does when the log is encoded whole
    db = build_cyclic_database(default_params(6, 3), seed=1)
    ops = (SubsegmentLabel(1, (4,), 0, 20), SubsegmentLabel(5, (2,), 10, 30))
    slots = [(1, "coded", ops, 20), (2, "uncoded", (SubsegmentLabel(5, (3,), 0, 20),), 20)]
    message = r"^node 2 does not hold segment 5 needed for W_5\^\{3\}\[0:20\]$"
    broadcasts = []
    with pytest.raises(ProtocolViolationError, match=message):
        next(certified_groups(db, slots, broadcasts))
    assert broadcasts == [] and not decode_calls
    with pytest.raises(ProtocolViolationError, match=message):
        encode(db, slots)


@pytest.mark.parametrize("k", range(4, 11))
def test_streamed_additions_equal_the_merge_of_delivers_dict(k):
    rng = random.Random(100 + k)
    nodes = list(range(k + 2))
    kinds = set()
    for r in range(2, k):
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=k * r)
        plan = make_addition_plan(params)
        for name, case, log in damaged(db, encode(db, plan.slots), rng):
            if log is None:
                log = encode(case, plan.slots)
                # rebalance_add merges a damaged input from the stream of its own log
                certificate = cyclic_refs(case.contents, k, r)
                assert outcome(lambda: rebalance_add(case).final) == outcome(
                    lambda: removal_merge.merge(
                        case, nodes, plan.recipes, deliver(case, log, plan), True, certificate
                    )
                ), (k, r, name)
            for strict in (True, False):
                certificate = cyclic_refs(case.contents, k, r)
                streamed = outcome(
                    lambda: removal_merge.merge(
                        case, nodes, plan.recipes, decode_groups(case, log), strict, certificate
                    )
                )
                folded = outcome(
                    lambda: removal_merge.merge(
                        case, nodes, plan.recipes, deliver(case, log, plan), strict, certificate
                    )
                )
                assert streamed == folded, (k, r, name, strict)
                kinds.add(streamed[0] if isinstance(streamed[0], str) else "merged")
    assert "merged" in kinds and "MergeFailureError" in kinds, kinds


def test_deliver_folds_the_stream():
    # deliver's dict is decode_groups folded: ranges in first-decode order, a
    # node keeping the first piece of a range it decodes
    for k, r, scheme in ((9, 5, "scheme1"), (9, 5, "scheme2"), (9, 5, "uncoded")):
        params = default_params(k, r)
        db = flip_stored_bit(build_cyclic_database(params, seed=3), 4, 3, 5)
        plan = make_split_plan(params, 2)
        log = encode(db, removal_slots(plan, scheme))
        folded = {}
        for key, nodes, bits, agrees in decode_groups(db, log):
            assert list(nodes) == sorted(nodes)
            got = folded.setdefault(key, {})
            for node in nodes:
                got.setdefault(node, bits)
        received = deliver(db, log, plan)
        assert list(received) == list(folded)
        assert {key: list(got.items()) for key, got in received.items()} == {
            key: list(got.items()) for key, got in folded.items()
        }


def test_the_pipelines_build_no_dict_of_decoded_pieces(monkeypatch):
    def no_dict(*args):
        raise AssertionError("deliver called")

    monkeypatch.setattr(removal_schemes, "deliver", no_dict)
    monkeypatch.setattr(addition, "deliver", no_dict, raising=False)
    params = default_params(12, 6)
    db = build_cyclic_database(params, seed=4)
    for scheme in ("scheme1", "scheme2", "uncoded"):
        rebalance_remove(db, 5, scheme)
    # a damaged addition merges through the stream too
    rebalance_add(flip_stored_bit(db, 3, 2, 0))


def decoded_bytes(db, plan, log):
    """Bytes of the distinct decoded ints that are not broadcast payloads (a
    one-operand broadcast's piece that fits is its payload, which the log keeps)."""
    payloads = {id(b.payload) for b in log.broadcasts}
    ints = {
        id(bits): bits
        for got in deliver(db, log, plan).values()
        for bits in got.values()
        if id(bits) not in payloads
    }
    return sum(map(sys.getsizeof, ints.values()))


def returned_bytes(run):
    """Bytes of what a removal returns: the log payloads, the distinct target
    ints and the layout dicts."""
    ints = {id(b.payload): b.payload for b in run.log.broadcasts}
    contents = run.final.contents
    ints.update({id(p.bits): p.bits for items in contents.values() for p in items.values()})
    return (
        sum(map(sys.getsizeof, ints.values()))
        + sys.getsizeof(contents)
        + sum(map(sys.getsizeof, contents.values()))
    )


def test_a_removal_never_holds_every_decoded_payload():
    # tracemalloc counts the bytes Python allocates, so the figures are the
    # same on every run, unlike the process RSS
    k, r, node = 80, 50, 7
    params = default_params(k, r, t_mult=8)
    db = build_cyclic_database(params, seed=5)
    plan = make_split_plan(params, node)
    decoded = decoded_bytes(db, plan, encode(db, removal_slots(plan, choose_scheme(k, r))))
    # the mask memo keeps what the run builds, so start it empty
    model._MASKS.clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run = rebalance_remove(db, node)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = after - before
    assert retained >= returned_bytes(run)
    # the peak may pass the result by the merge's tables and a few pieces in
    # flight, not by the decoded payloads, which a merge of deliver's whole
    # dict would hold
    assert peak - before <= retained + decoded // 4, (peak - before, retained, decoded)

"""Broadcast schedules: golden transmissions, loads, scheme selection."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from rebalance import (
    Broadcast,
    Database,
    DecodeFailureError,
    ParameterError,
    TransmissionLog,
    apply_merge,
    build_cyclic_database,
    build_merge_recipes,
    choose_scheme,
    decode_at_node,
    default_params,
    deliver,
    flip_stored_bit,
    full_removal_load,
    load_scheme1,
    load_scheme2,
    make_split_plan,
    rebalance_remove,
    run_scheme1,
    run_scheme2,
    run_uncoded_removal,
    storage_set,
    threshold,
)
from rebalance import removal_schemes
from rebalance.addition import make_addition_plan
from rebalance.analytics import corner_overhead
from rebalance.bus import encode
from rebalance.removal_schemes import certified_groups, decode_groups, removal_slots

SCHEDULES = {"scheme1": run_scheme1, "scheme2": run_scheme2, "uncoded": run_uncoded_removal}


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


def test_removal_slots_rejects_an_unknown_scheme():
    # "auto" is resolved before a schedule is built; it is no schedule itself
    with pytest.raises(ParameterError, match="^unknown scheme 'auto'$"):
        removal_slots(make_split_plan(default_params(6, 3), 6), "auto")


def test_schedules_pass_the_payload_free_audit():
    # the schedules alone, no database built: node K//2+1 leaves every (K, r)
    for k in range(4, 41):
        removed = k // 2 + 1
        for r in range(3, k):
            params = default_params(k, r)
            plan = make_split_plan(params, removed)

            def holds(node, segment):
                return (node - segment) % k < r

            for scheme in ("scheme1", "scheme2", "uncoded"):
                slots = removal_slots(plan, scheme)
                where = (k, r, scheme)
                load = full_removal_load(k, r, scheme)
                assert sum(atoms for *_, atoms in slots) == load * params.segment_atoms, where
                for sender, kind, ops, atoms in slots:
                    if ops:
                        assert max(op.size_atoms for op in ops) == atoms, where
                    if scheme == "scheme1" and kind == "coded":
                        assert len(ops) == 2, where
                    assert sender != removed, where
                    assert all(holds(sender, op.base) for op in ops), where
                    if kind == "coded":
                        # one receiver per operand: a coded slot decodes at
                        # as many nodes as it has operands
                        assert all(len(op.superscript) == 1 for op in ops), where
                    for op in ops:
                        for node in op.superscript:
                            # node strips every other operand and keeps its own
                            named = [o for o in ops if node in o.superscript]
                            assert named == [op], (where, node)
                            assert node != removed and not holds(node, op.base), (where, node)
                            others = [o for o in ops if o is not op]
                            assert all(holds(node, o.base) for o in others), (where, node)


def decodes_node_by_node(db, log):
    """(broadcast index, node, piece) for every decode at every addressed node."""
    out = []
    for j, b in enumerate(log.broadcasts):
        for node in sorted({n for op in b.operands for n in op.superscript}):
            got = decode_at_node(db, node, b)
            if got is not None:
                label, bits = got
                out.append((j, node, (label.base, label.atom_start, label.atom_stop, bits)))
    return out


def addressed_receivers(log):
    """Per broadcast of several operands, the addressed nodes named in exactly
    one operand; their number in the log. A one-operand broadcast strips
    nothing and is not decoded."""
    count = 0
    for b in log.broadcasts:
        if len(b.operands) < 2:
            continue
        named = [n for op in b.operands for n in op.superscript]
        count += sum(named.count(n) == 1 for n in set(named))
    return count


@pytest.mark.parametrize("k", range(4, 11))
def test_deliver_decodes_once_per_addressed_receiver(k, monkeypatch):
    calls = []
    real = removal_schemes.decode_at_node

    def counted(db, node, b):
        calls.append(node)
        return real(db, node, b)

    monkeypatch.setattr(removal_schemes, "decode_at_node", counted)
    flips = 0
    for r in range(3, k):
        params = default_params(k, r)
        clean = build_cyclic_database(params, seed=k * r)
        for name, schedule in SCHEDULES.items():
            plan = make_split_plan(params, removed=r % k + 1)
            log = schedule(clean, plan)
            dbs = [clean]
            coded = next((b for b in log.broadcasts if len(b.operands) > 1), None)
            if coded is not None:
                # one receiver of the first operand strips a damaged sibling
                node, sibling = coded.operands[0].superscript[0], coded.operands[1]
                bit = sibling.atom_start * params.atom_bits
                dbs.append(flip_stored_bit(clean, node, sibling.base, bit))
            keys = []
            for db in dbs:
                want = decodes_node_by_node(db, log)
                calls.clear()
                received = deliver(db, log, plan)
                assert len(calls) == addressed_receivers(log), (k, r, name)
                # each decode once, under the key of its range, at its node with
                # its bits, and no other entries
                assert list(received) == list(dict.fromkeys(piece[:3] for _, _, piece in want))
                for key, got in received.items():
                    mine = [(n, piece[3]) for _, n, piece in want if piece[:3] == key]
                    assert list(got.items()) == mine
                # first-decode order is each node's own arrival order
                for node in {n for _, n, _ in want}:
                    mine = [(*key, got[node]) for key, got in received.items() if node in got]
                    assert mine == [got for _, n, got in want if n == node], (k, r, name, node)
                # a one-operand slot's piece is its payload int itself
                for b in log.broadcasts:
                    if len(b.operands) == 1 and b.operands[0].superscript:
                        op = b.operands[0]
                        got = received[op.base, op.atom_start, op.atom_stop]
                        assert all(got[n] is b.payload for n in op.superscript)
                keys.append({(*k, bits) for k, got in received.items() for bits in got.values()})
            # the damaged sibling changes what its receiver decodes
            flips += len(keys) == 2 and keys[0] != keys[1]
    assert flips > 0
    # a hand-made one-operand payload wider than its operand, or negative, is
    # cut to the same key bits as decode_at_node cuts it to
    params = default_params(k, 3)
    db = build_cyclic_database(params, seed=k)
    op = make_split_plan(params, removed=k).high_corner.big
    width = op.size_atoms * params.atom_bits
    for payload in (1 << width | 5, (1 << (2 * width)) - 1, -1, -(1 << width) - 3, 6):
        b = Broadcast(op.superscript[0], "uncoded", (op,), op.size_atoms, payload)
        received = deliver(db, TransmissionLog(params, [b]), None)
        label, bits = real(db, op.superscript[0], b)
        assert bits == payload & ((1 << width) - 1)
        key = (label.base, label.atom_start, label.atom_stop)
        assert list(received) == [key], payload
        assert list(received[key].items()) == [(n, bits) for n in sorted(op.superscript)], payload


def test_an_operand_with_two_receivers_is_decoded_at_each(monkeypatch):
    # no plan names two receivers in one coded operand (the payload-free audit
    # pins that), so hand-build one at (6,3): node 1's W_5^{2} + W_6^{5} also
    # sends its first operand to node 1, which holds W_6 as node 2 does
    params = default_params(6, 3)
    clean = build_cyclic_database(params, seed=0)
    plan = removal_schemes.make_removal_plan(params, 6, "scheme1")
    (sender, kind, (first, second), atoms), *rest = plan.slots
    assert (sender, first.superscript, second.superscript) == (1, (2,), (5,))
    two = first._replace(superscript=(1, 2))
    slots = [(sender, kind, (two, second), atoms), *rest]
    log = encode(clean, slots)
    calls = []
    real = removal_schemes.decode_at_node

    def counted(db, node, b):
        calls.append(node)
        return real(db, node, b)

    monkeypatch.setattr(removal_schemes, "decode_at_node", counted)
    received = deliver(clean, log, plan)
    # each receiver decodes for itself: nodes 1 and 2, then node 5, then the
    # second coded slot's nodes 1 and 4
    assert calls == [1, 2, 5, 1, 4]
    got = received[5, 0, 35]
    assert list(got) == [1, 2] and got[1] == got[2]
    plain = list(decode_groups(clean, log))
    calls.clear()
    checked = list(certified_groups(clean, slots, []))
    # the certified pass hands each receiver encode's own cut and decodes nothing
    assert calls == [] and all(agrees for *_, agrees in checked)
    assert [group[:3] for group in checked] == [group[:3] for group in plain]
    want = rebalance_remove(clean, 6, "scheme1").final.contents
    for delivered in (received, iter(plain), iter(checked)):
        assert apply_merge(clean, plan, plan.recipes, delivered).contents == want


class UnhashableInt(int):
    """A payload that no dict or set may take as a key."""

    __hash__ = None


@pytest.mark.parametrize("scheme", sorted(SCHEDULES))
def test_deliver_keys_ranges_and_never_hashes_payloads(scheme):
    params = default_params(12, 9)
    clean = build_cyclic_database(params, seed=4)
    plan = make_split_plan(params, removed=5)
    recipes = build_merge_recipes(params, plan)
    log = SCHEDULES[scheme](clean, plan)
    received = deliver(clean, log, plan)
    want = decodes_node_by_node(clean, log)
    # keys are (origin, start, stop) int triples, in first-decode order
    assert all(len(key) == 3 and all(type(x) is int for x in key) for key in received)
    assert list(received) == list(dict.fromkeys(piece[:3] for _, _, piece in want))
    # each maps its receivers to their ints, in first-decode order
    for key, got in received.items():
        assert list(got.items()) == [(n, piece[3]) for _, n, piece in want if piece[:3] == key]
        assert all(type(bits) is int for bits in got.values())

    # receivers of equal ints of one range hold one object, and a node keeps
    # the first piece of a range it gets: the range sent again, as an equal
    # int that is another object, to a node that has it and a new one, and as
    # an unequal int to a node that has it and another new one
    b = next(
        b for b in log.broadcasts if len(b.operands) == 1 and len(b.operands[0].superscript) > 1
    )
    op = b.operands[0]
    first, last = op.superscript[0], op.superscript[-1]
    others = [n for n in range(1, 13) if n not in op.superscript]
    copy, flipped = b.payload ^ 1 ^ 1, b.payload ^ 1
    assert copy == b.payload and copy is not b.payload
    again = [
        b._replace(operands=(op._replace(superscript=(last, others[0])),), payload=copy),
        b._replace(operands=(op._replace(superscript=(first, others[1])),), payload=flipped),
    ]
    received = deliver(clean, replace(log, broadcasts=[b, *again]), plan)
    got = received[op.base, op.atom_start, op.atom_stop]
    assert list(got) == [*op.superscript, *others[:2]]
    assert [bits is b.payload for bits in got.values()] == [True] * (len(got) - 1) + [False]
    assert got[others[1]] is flipped

    # a clean removal delivers and merges payloads that cannot be hashed
    hashless = [b._replace(payload=UnhashableInt(b.payload)) for b in log.broadcasts]
    received = deliver(clean, replace(log, broadcasts=hashless), plan)
    assert any(type(bits) is UnhashableInt for got in received.values() for bits in got.values())
    final = apply_merge(clean, plan, recipes, received)
    assert final.contents == rebalance_remove(clean, 5, scheme).final.contents


def test_no_atom_range_is_carried_by_two_slots():
    # deliver keeps a node's first piece of a range, and the merge reads the
    # ranges of an origin in first-decode order; both are the order a node
    # decodes its pieces in because no schedule carries one range twice. Every
    # node for K <= 16 and four per (K, r) up to K = 30, as the plan digest
    # covers them, under all three schemes; and every addition
    def distinct(slots):
        ranges = [(op.base, op.atom_start, op.atom_stop) for _, _, ops, _ in slots for op in ops]
        return len(set(ranges)) == len(ranges)

    schedules = 0
    for k in range(4, 31):
        nodes = range(1, k + 1) if k <= 16 else sorted({1, 2, (k + 1) // 2, k})
        for r in range(3, k):
            params = default_params(k, r)
            for node in nodes:
                plan = make_split_plan(params, node)
                for scheme in SCHEDULES:
                    assert distinct(removal_slots(plan, scheme)), (k, r, node, scheme)
                    schedules += 1
    for k in range(3, 31):
        for r in range(2, k):
            assert distinct(make_addition_plan(default_params(k, r)).slots), (k, r)
            schedules += 1
    assert schedules == 6720 + 406


def test_decode_failure_names_the_lowest_receiver_lacking_a_base():
    params = default_params(8, 6)
    clean = build_cyclic_database(params, seed=0)
    plan = make_split_plan(params, removed=8)
    log = run_scheme2(clean, plan)
    # the first class slot XORs pieces of W_8, W_6 and W_4 for nodes 7, 5 and 3;
    # node 7 loses its W_6 and node 3 its W_8, so both lack a sibling base
    assert [op.superscript for op in log.broadcasts[0].operands] == [(7,), (5,), (3,)]
    contents = {n: dict(items) for n, items in clean.contents.items()}
    del contents[7][6], contents[3][8]
    want = "node 3 cannot rebuild W_8^{7}[0:108] to decode W_4^{3}[90:126]"
    with pytest.raises(DecodeFailureError, match=f"^{re.escape(want)}$"):
        deliver(Database(params, 8, contents), log, plan)


def test_uncoded_slots_come_from_the_lowest_surviving_holder():
    # each removed-node segment, whole, from min(holders - {removed}) to every
    # survivor that does not hold it, for every (K, r, node) with K <= 30
    for k in range(4, 31):
        for r in range(3, k):
            params = default_params(k, r)
            for removed in range(1, k + 1):
                slots = removal_slots(make_split_plan(params, removed), "uncoded")
                bases = [(removed - r + j) % k + 1 for j in range(r)]
                assert [ops[0].base for _, _, ops, _ in slots] == bases
                for sender, kind, (label,), atoms in slots:
                    holders = storage_set(label.base, k, r)
                    where = (k, r, removed, label.base)
                    assert sender == min(holders - {removed}), where
                    needing = set(range(1, k + 1)) - holders - {removed}
                    assert label.superscript == tuple(sorted(needing)), where
                    assert (kind, label.atom_start, label.atom_stop, atoms) == (
                        "uncoded", 0, params.segment_atoms, params.segment_atoms
                    ), where

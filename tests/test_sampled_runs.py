"""Bit-level runs and faults past the K <= 25 grid, on a fixed sample.

Each case draws K in 26..80, a replication r >= 3, t_mult 1..3, a removed
node, a content seed, and one of the three removal schedules, auto, or an
addition, from a seeded generator, so the sample is the same on every run.
Every run must verify, with its load equal to the closed form, and a removal
must equal its log encoded whole and merged through the plain per-receiver
stream: log, payloads, contents and replica sharing. It then gets
one flipped stored bit in its result, which must be found by a finding that
names the node and segment, and separately one dropped broadcast, replayed
as the replay_without_broadcast fixture does. A drop that carries an operand
must be found; a scheme-2 filler carries none, so its drop must leave the
merged contents exactly as the clean run's. Last, one payload bit of a
broadcast with operands is flipped, and the tampered log is merged through
the plain per-receiver stream: the result must give a finding when some
receiver takes the bit into a replica, and the clean run's contents when
none does.
"""

import random
import re
from collections import Counter
from dataclasses import replace

from rebalance import (
    addition_load,
    build_cyclic_database,
    choose_scheme,
    default_params,
    flip_stored_bit,
    full_removal_load,
    rebalance_add,
    rebalance_remove,
    removal_merge,
    verify_change,
)
from rebalance.model import cyclic_refs
from rebalance.removal_schemes import decode_groups

KINDS = ("scheme1", "scheme2", "uncoded", "auto", "addition")


def sample_cases(count, seed):
    """count cases (k, r, t_mult, node, content seed, kind, rng for the faults)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        k = rng.randint(26, 80)
        r = rng.randint(3, k - 1)
        cases.append(
            (k, r, rng.randint(1, 3), rng.randint(1, k), rng.randrange(1 << 32),
             rng.choice(KINDS), random.Random(rng.randrange(1 << 32)))
        )
    return cases


def names(findings, node, segment):
    """True when some finding names both the node and the segment."""
    node_re, segment_re = re.compile(rf"\bnode {node}\b"), re.compile(rf"\bsegment {segment}\b")
    return any(node_re.search(msg) and segment_re.search(msg) for _, msg in findings)


def taken(db, plan, b, bit):
    """True when some receiver takes the payload bit into a replica, by a plain
    reading of the protocol: the bit lies inside the cut of an operand that
    names the receiver alone among the operands, and the receiver holds a
    target with a part of that operand's segment covering the bit's atom,
    which it does not store itself."""
    atom = bit // db.params.atom_bits
    named = Counter(node for op in b.operands for node in op.superscript)
    for op in b.operands:
        if atom >= op.size_atoms:
            continue
        at = op.atom_start + atom
        for recipe in plan.recipes:
            for origin, start, stop in recipe.parts:
                if origin != op.base or not start <= at < stop:
                    continue
                for holder in recipe.holders:
                    node = plan.actual[holder]
                    if (
                        node in op.superscript
                        and named[node] == 1
                        and op.base not in db.contents.get(node, {})
                    ):
                        return True
    return False


def test_sampled_runs_verify_and_every_sampled_fault_is_found(
    replay_without_broadcast, plain_twin
):
    fillers = found = flips = 0
    for k, r, t_mult, node, seed, kind, rng in sample_cases(110, seed=2027):
        case = (k, r, t_mult, node, seed, kind)
        db = build_cyclic_database(default_params(k, r, t_mult), seed=seed)
        if kind == "addition":
            run, expected = rebalance_add(db), addition_load(k, r)
        else:
            run = rebalance_remove(db, node, kind)
            # the certified one-pass delivery gives the per-receiver stream's run
            twin, mine = plain_twin(db, run)
            assert twin == mine, case
            scheme = choose_scheme(k, r) if kind == "auto" else kind
            assert run.report.scheme == scheme, case
            expected = full_removal_load(k, r, scheme)
        assert verify_change(run, seed).ok, case
        assert run.report.measured == expected, case

        holder = rng.choice(sorted(run.final.contents))
        segment = rng.choice(sorted(run.final.contents[holder]))
        width = run.final.contents[holder][segment].n_atoms * db.params.atom_bits
        flipped = flip_stored_bit(run.final, holder, segment, rng.randrange(width))
        report = verify_change(replace(run, final=flipped), seed)
        assert not report.ok and names(report.findings, holder, segment), (case, report)

        index = rng.randrange(len(run.log.broadcasts))
        replayed = replay_without_broadcast(db, run, index)
        if run.log.broadcasts[index].operands:
            assert not verify_change(replayed, seed).ok, (case, index)
            found += 1
        else:
            # an operand-less scheme-2 filler: nothing was lost with it
            assert replayed.final.contents == run.final.contents, (case, index)
            fillers += 1

        coded = [i for i, b in enumerate(run.log.broadcasts) if b.operands]
        index = rng.choice(coded)
        b = run.log.broadcasts[index]
        bit = rng.randrange(b.payload_atoms * db.params.atom_bits)
        broadcasts = list(run.log.broadcasts)
        broadcasts[index] = b._replace(payload=b.payload ^ (1 << bit))
        log = replace(run.log, broadcasts=broadcasts)
        # a tampered log goes through the plain per-receiver stream
        plan, certificate = run.plan, cyclic_refs(db.contents, k, r)
        merged = removal_merge.merge(
            db, plan.actual, plan.recipes, decode_groups(db, log), False, certificate
        )
        if taken(db, plan, b, bit):
            assert not verify_change(replace(run, final=merged, log=log), seed).ok, case
            flips += 1
        else:
            assert merged.contents == run.final.contents, (case, index, bit)
    # every sampled flip lands where some receiver takes it
    assert (found, fillers, flips) == (108, 2, 110)

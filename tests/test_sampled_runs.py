"""Bit-level runs and faults past the K <= 25 grid, on a fixed sample.

Each case draws K in 26..80, a replication r >= 3, t_mult 1..3, a removed
node, a content seed, and one of the three removal schedules, auto, or an
addition, from a seeded generator, so the sample is the same on every run.
Every run must verify, with its load equal to the closed form. It then gets
one flipped stored bit in its result, which must be found by a finding that
names the node and segment, and separately one dropped broadcast, replayed
as the replay_without_broadcast fixture does. A drop that carries an operand
must be found; a scheme-2 filler carries none, so its drop must leave the
merged contents exactly as the clean run's.
"""

import random
import re
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
    verify_change,
)

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


def test_sampled_runs_verify_and_every_sampled_fault_is_found(replay_without_broadcast):
    fillers = found = 0
    for k, r, t_mult, node, seed, kind, rng in sample_cases(110, seed=2027):
        case = (k, r, t_mult, node, seed, kind)
        db = build_cyclic_database(default_params(k, r, t_mult), seed=seed)
        if kind == "addition":
            run, expected = rebalance_add(db), addition_load(k, r)
        else:
            run = rebalance_remove(db, node, kind)
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
    assert (found, fillers) == (108, 2)

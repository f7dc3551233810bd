"""End-to-end acceptance checks. Each test prints one [PASS]/[FAIL] line."""

import csv
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

from rebalance import (
    addition_load,
    build_cyclic_database,
    default_params,
    flip_stored_bit,
    full_removal_load,
    rebalance_add,
    rebalance_remove,
    verify_addition,
    verify_claim1,
    verify_removal,
)
from rebalance.cli import main


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c01_golden_removal_small(total_stored_atoms):
    t0 = time.perf_counter()
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    run = rebalance_remove(db, 6, "auto")
    verification = verify_removal(run, 0)
    elapsed = time.perf_counter() - t0

    sizes = {
        piece.n_atoms * params.atom_bits
        for items in run.final.contents.values()
        for piece in items.values()
    }
    ok = (
        run.report.scheme == "scheme1"
        and run.report.measured == Fraction(2)
        and run.final.n_nodes == 5
        and sizes == {84}
        and total_stored_atoms(run.final) * params.atom_bits == 1260
        and verification.ok
        and elapsed < 1.0
    )
    report(
        "C1",
        ok,
        f"K=6 r=3 removal: scheme1, load 2 exactly, 5 nodes x 3 segments x 84 bits, "
        f"verified, {elapsed:.2f}s",
    )


def test_c02_golden_removal_large_replication():
    t0 = time.perf_counter()
    params = default_params(8, 6)
    db = build_cyclic_database(params, seed=0)
    run = rebalance_remove(db, 8, "auto")
    verification = verify_removal(run, 0)
    elapsed = time.perf_counter() - t0

    hu = params.half_unit_atoms
    got = {
        (
            b.sender,
            b.kind,
            frozenset((op.base, op.superscript) for op in b.operands),
            b.payload_atoms // hu,
        )
        for b in run.log.broadcasts
    }
    want = {
        (1, "coded", frozenset({(8, (7,)), (6, (5,)), (4, (3,))}), 12),
        (7, "coded", frozenset({(3, (1,)), (5, (3,)), (7, (5,))}), 12),
        (1, "coded", frozenset({(7, (6,)), (5, (4,))}), 10),
        (7, "coded", frozenset({(4, (2,)), (6, (4,))}), 10),
        (1, "uncoded", frozenset({(8, (6,))}), 2),
        (7, "uncoded", frozenset({(3, (2,))}), 2),
    }
    ok = (
        run.report.scheme == "scheme2"
        and run.report.measured == Fraction(24, 7)
        and got == want
        and verification.ok
        and elapsed < 1.0
    )
    report(
        "C2",
        ok,
        f"K=8 r=6 removal: scheme2, load 24/7, six expected broadcasts, verified, "
        f"{elapsed:.2f}s",
    )


@pytest.fixture(scope="module")
def removal_grid():
    t0 = time.perf_counter()
    results = []
    for k in range(4, 26):
        for r in range(3, k):
            db = build_cyclic_database(default_params(k, r), seed=0)
            for removed in range(1, k + 1):
                for scheme in ("scheme1", "scheme2"):
                    run = rebalance_remove(db, removed, scheme)
                    verification = verify_removal(run, 0)
                    results.append(
                        (k, r, removed, scheme, run.report.measured, verification.ok)
                    )
    return results, time.perf_counter() - t0


def test_c03_removal_grid_exact_loads(removal_grid):
    results, elapsed = removal_grid
    bad = [
        (k, r, removed, scheme)
        for k, r, removed, scheme, load, verified in results
        if not verified or load != full_removal_load(k, r, scheme)
    ]
    ok = len(results) == 9108 and not bad and elapsed < 300.0
    report(
        "C3",
        ok,
        f"{len(results)} removals (K in [4..25], every r, every node, both schemes) "
        f"all verified at closed-form loads, {elapsed:.1f}s; {len(bad)} deviations",
    )


def test_c04_coded_beats_uncoded(removal_grid):
    results, _ = removal_grid
    best: dict[tuple[int, int], Fraction] = {}
    for k, r, _, _, load, _ in results:
        key = (k, r)
        best[key] = min(best.get(key, Fraction(10**9)), load)
    bad = [key for key, load in best.items() if not load < key[1]]
    ok = len(best) == 253 and not bad
    report(
        "C4",
        ok,
        f"best measured coded load strictly below the uncoded load r at all "
        f"{len(best)} (K, r) points; {len(bad)} violations",
    )


def test_c05_threshold_audit():
    t0 = time.perf_counter()
    rep = verify_claim1(200)
    elapsed = time.perf_counter() - t0
    want_ties = tuple((3 * m + 1, 2 * m + 1) for m in range(1, 67))
    ok = (
        rep.ok
        and rep.pairs_checked == 19503
        and rep.counterexamples == ()
        and rep.unexpected_ties == ()
        and rep.crossing_failures == ()
        and rep.ties == want_ties
        and elapsed < 10.0
    )
    report(
        "C5",
        ok,
        f"scheme choice matches the threshold on all {rep.pairs_checked} pairs up to "
        f"K=200, equal costs only on the known 66-point family, {elapsed:.2f}s",
    )


def test_c06_sweep_bounds(tmp_path):
    out = tmp_path / "sweep15.csv"
    with redirect_stdout(io.StringIO()):
        rc = main(["sweep", "--k", "15", "--out", str(out)])
    with out.open() as f:
        rows = list(csv.DictReader(f))
    problems = []
    for row in rows:
        r = int(row["r"])
        full = Fraction(int(row["load_num"]), int(row["load_den"]))
        if not Fraction(r, r - 1) <= full < r:
            problems.append((r, "bounds"))
        if full != full_removal_load(15, r, row["scheme"]):
            problems.append((r, "formula"))
        if row["scheme"] != ("scheme1" if r < 11 else "scheme2"):
            problems.append((r, "scheme"))
        if row["verified"] != "true":
            problems.append((r, "verified"))
    ok = rc == 0 and len(rows) == 12 and not problems
    report(
        "C6",
        ok,
        f"K=15 sweep: 12 verified rows, every load within [r/(r-1), r), scheme flips "
        f"at r=11; problems: {problems}",
    )


def test_c07_addition_grid():
    t0 = time.perf_counter()
    count = 0
    bad = []
    for k in range(3, 26):
        for r in range(2, k):
            db = build_cyclic_database(default_params(k, r), seed=0)
            run = rebalance_add(db)
            verification = verify_addition(run, 0)
            count += 1
            if not (
                verification.ok
                and run.log.load == Fraction(r * k, k + 1) == addition_load(k, r)
            ):
                bad.append((k, r))
    elapsed = time.perf_counter() - t0
    ok = count == 276 and not bad and elapsed < 60.0
    report(
        "C7",
        ok,
        f"{count} additions (K in [3..25], every r) all verified at the lower bound "
        f"rK/(K+1), {elapsed:.1f}s; {len(bad)} deviations",
    )


def structure_signature(db):
    return tuple(
        (n, tuple(sorted((index, p.n_atoms) for index, p in db.contents[n].items())))
        for n in sorted(db.contents)
    )


def test_c08_removed_node_invariance():
    bad = []
    for k, r in [(6, 3), (8, 6), (7, 4), (12, 8)]:
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=0)
        for scheme in ("scheme1", "scheme2", "uncoded"):
            signatures = set()
            loads = set()
            for removed in range(1, k + 1):
                run = rebalance_remove(db, removed, scheme)
                signatures.add(structure_signature(run.final))
                loads.add(run.report.measured)
            if len(signatures) != 1 or len(loads) != 1:
                bad.append((k, r, scheme))
    ok = not bad
    report(
        "C8",
        ok,
        "final structure and load independent of which node leaves at "
        f"(6,3), (8,6), (7,4), (12,8) under all three schedules; violations: {bad}",
    )


def test_c09_fault_injection(replay_without_broadcast):
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    clean = rebalance_remove(db, 6)

    missed_drops = []
    n_broadcasts = len(clean.log.broadcasts)
    for i in range(n_broadcasts):
        verification = verify_removal(replay_without_broadcast(db, clean, i), 0)
        if verification.ok:
            missed_drops.append(i)

    flips = 0
    missed_flips = []
    for node in sorted(clean.final.contents):
        for index, piece in clean.final.contents[node].items():
            for bit in range(piece.n_atoms * params.atom_bits):
                tampered = flip_stored_bit(clean.final, node, index, bit)
                verification = verify_removal(replace(clean, final=tampered), 0)
                localized = any(
                    f"node {node}" in msg and f"segment {index}" in msg
                    for _, msg in verification.findings
                )
                flips += 1
                if verification.ok or not localized:
                    missed_flips.append((node, index, bit))

    ok = (
        n_broadcasts == 6
        and flips == 1260
        and not missed_drops
        and not missed_flips
    )
    report(
        "C9",
        ok,
        f"all {n_broadcasts} dropped broadcasts and all {flips} single-bit flips "
        f"detected with findings naming the node and segment; "
        f"missed: {len(missed_drops)} drops, {len(missed_flips)} flips",
    )


def test_c10_byte_determinism(tmp_path):
    sweeps = []
    traces = []
    for tag in ("a", "b"):
        s = tmp_path / f"sweep-{tag}.csv"
        t = tmp_path / f"trace-{tag}.json"
        with redirect_stdout(io.StringIO()):
            rc1 = main(["sweep", "--k", "9", "--out", str(s)])
            rc2 = main(
                [
                    "remove", "--k", "7", "--r", "4", "--node", "3",
                    "--trace", str(t), "--full-trace",
                ]
            )
        assert rc1 == 0 and rc2 == 0
        sweeps.append(s.read_bytes())
        traces.append(t.read_bytes())
    json.loads(traces[0])  # trace is valid JSON on top of being stable
    ok = sweeps[0] == sweeps[1] and traces[0] == traces[1]
    report(
        "C10",
        ok,
        "sweep CSV and full removal trace are byte-identical across repeat runs",
    )

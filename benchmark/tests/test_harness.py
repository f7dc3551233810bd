"""Tests of the benchmark harness itself, on tiny-K inputs.

Run from the repository root: python -m pytest benchmark/tests
"""

import ast
import itertools
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import rebalance
from rebalance import build_cyclic_database, default_params, flip_stored_bit, rebalance_remove

BENCH_DIR = Path(harness.__file__).resolve().parent
ROOT = BENCH_DIR.parent

REMOVAL = harness.Case("remove", 6, 3, 2, "scheme1")
TINY_CASES = (
    REMOVAL,
    harness.Case("remove", 7, 5, 7, "scheme2"),
    harness.Case("remove", 5, 4, 1, "uncoded"),
    harness.Case("remove", 12, 9, 4, "auto"),
    harness.Case("add", 8, 3, 9, "addition"),
)


def test_imports_only_exported_names():
    tree = ast.parse((BENCH_DIR / "harness.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rebalance"
        for alias in node.names
    }
    assert imported and imported <= set(rebalance.__all__)


def test_workloads_are_fixed_by_the_seed():
    grid = harness.make_cases("removal_grid", 3)
    assert len(grid) == 759
    assert grid == harness.make_cases("removal_grid", 3)
    assert all(1 <= c.node <= c.k for c in grid)
    large = harness.make_cases("removal_large", 3)
    assert [(c.k, c.r, c.scheme) for c in large] == [(k, r, "auto") for k, r in harness.LARGE_PAIRS]
    additions = harness.make_cases("addition_large", 3)
    assert [(c.k, c.r, c.node) for c in additions] == [(k, r, k + 1) for k, r in harness.LARGE_PAIRS]
    seeds = list(itertools.islice(harness.content_seeds(3), 1000))
    assert len(set(seeds)) == 1000
    assert seeds == list(itertools.islice(harness.content_seeds(3), 1000))


def test_gate_counts_a_tampered_run_and_names_node_and_segment():
    content_seed = 11
    run = rebalance_remove(build_cyclic_database(default_params(6, 3), content_seed), 2, "scheme1")
    good = harness.run_once(REMOVAL, content_seed)
    assert good.ok

    tampered = flip_stored_bit(run.final, 4, 3, 0)
    verification = harness.verify_shape(REMOVAL, tampered).merged(
        harness.verify_content(REMOVAL, content_seed, tampered, run.recipes)
    )
    bad = harness.judge(REMOVAL, "scheme1", run.log, verification)
    assert not bad.ok
    assert any("node 4" in f and "segment 3" in f for f in bad.findings)

    two_runs = harness.PassResult([good, bad], [0.1, 0.1], [(0.0, 0.1), (0.1, 0.2)], 0.2)
    summary = harness.gate_summary([two_runs])
    assert summary["attempted"] == 2
    assert summary["failed"] == 1
    assert summary["failed_frac"] == 0.5
    assert any("node 4" in f and "segment 3" in f for f in summary["failures"])


def test_gate_rejects_a_load_off_the_closed_form():
    run = rebalance_remove(build_cyclic_database(default_params(6, 3), 0), 2, "scheme1")
    verification = harness.verify_shape(REMOVAL, run.final)
    outcome = harness.judge(REMOVAL, "uncoded", run.log, verification)
    assert any(f.startswith("load:") for f in outcome.findings)


def test_a_crashing_run_is_counted_not_raised():
    node_out_of_range = harness.Case("remove", 6, 3, 9, "scheme1")
    result = harness.run_pass([REMOVAL, node_out_of_range], harness.content_seeds(0))
    summary = harness.gate_summary([result])
    assert summary["failed"] == 1
    assert "exception: ParameterError" in summary["failures"][0]


def test_traced_composition_matches_the_real_pipeline():
    tracer = harness.Tracer()
    for case, content_seed in zip(TINY_CASES, harness.content_seeds(5)):
        untraced = harness.run_once(case, content_seed)
        traced = harness.run_traced(case, content_seed, tracer)
        assert untraced.ok and traced.ok
        assert traced == untraced
    run = rebalance_remove(build_cyclic_database(default_params(6, 3), 7), 2, "scheme1")
    traced = harness.run_traced(REMOVAL, 7, tracer)
    assert traced.ok
    assert traced.load == run.log.load
    assert traced.broadcasts == len(run.log.broadcasts)


def test_layer_spans_add_up_to_each_run():
    tracer = harness.Tracer()
    passes = [harness.run_pass(TINY_CASES, harness.content_seeds(1), tracer) for _ in range(2)]
    assert harness.span_problems(tracer.spans) == []
    walls = {s.run_id: s.end - s.start for s in tracer.spans if s.parent is None}
    layers = {}
    for s in tracer.spans:
        if s.parent is not None:
            layers[s.run_id] = layers.get(s.run_id, 0.0) + (s.end - s.start)
    assert len(walls) == 2 * len(TINY_CASES)
    assert all(0 <= layers[i] <= walls[i] for i in walls)

    metrics = harness.layer_metrics(tracer, len(passes))
    layer_sum = sum(metrics[f"{name}_s"] for name in harness.LAYER_SPANS)
    assert layer_sum + metrics["run.unattributed_s"] == pytest.approx(metrics["run.wall_s"], abs=1e-9)
    assert metrics["run.unattributed_s"] >= 0
    assert metrics["bus.decode_yield"] == 1.0
    assert len({p.digest for p in passes}) == 1


def test_payload_atoms_follow_the_closed_form():
    for case, content_seed in zip(TINY_CASES, harness.content_seeds(2)):
        outcome = harness.run_once(case, content_seed)
        atoms = default_params(case.k, case.r).segment_atoms
        assert outcome.payload_atoms == outcome.load * atoms


def test_speed_probe_samples_during_passes_and_stays_out_of_run_times():
    before = signal.getsignal(signal.SIGALRM)
    with harness.SpeedProbe() as probe:
        result = harness.run_pass(TINY_CASES * 40, harness.content_seeds(0), probe=probe)
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.took) == len(probe.at) >= 2
    assert probe.spent > sum(probe.took)  # a sample's wall time exceeds its geometric mean
    assert sum(result.run_s) <= result.elapsed_s
    for t, (start, end) in zip(result.run_s, result.run_spans):
        assert 0 < t <= end - start
        assert probe.scale(start, end) > 0


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", harness.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_contract_line(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _bench("--workload", workload, "--seed", "4", "--seconds", "0", "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-2])
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["failed_frac"] == 0
    assert record["environment"]["seed"] == 4


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "removal_grid", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""

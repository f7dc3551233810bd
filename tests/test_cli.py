"""Command-line behavior: output, exit codes, CSV and trace determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rebalance
from rebalance import cli
from rebalance.cli import SWEEP_COLUMNS, main, sweep_rows


def test_remove_happy_path(capsys):
    rc = main(["remove", "--k", "6", "--r", "3", "--node", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "removal: K=6 r=3 removed node 6 seed 0" in out
    assert "scheme: scheme1" in out
    assert "measured load: 2 (2.0)" in out
    assert "expected load: 2 (2.0)" in out
    assert "coded loads: scheme1 7/5, scheme2 3, threshold r>=5" in out
    assert "uncoded baseline: 3, lower bound: 3/2 (1.5)" in out
    assert "balanced=true cyclic=true replication=true content=true" in out


def test_remove_scheme2_example(capsys):
    rc = main(["remove", "--k", "8", "--r", "6", "--node", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scheme: scheme2" in out
    assert "measured load: 24/7" in out


def test_remove_forced_scheme(capsys):
    rc = main(["remove", "--k", "6", "--r", "3", "--node", "6", "--scheme", "scheme2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scheme: scheme2" in out
    assert "measured load: 18/5 (3.6)" in out


def test_remove_rejects_pair_replication(capsys):
    rc = main(["remove", "--k", "6", "--r", "2", "--node", "6"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "unsupported configuration" in err


def test_remove_rejects_bad_node(capsys):
    assert main(["remove", "--k", "6", "--r", "3", "--node", "7"]) == 2
    assert main(["remove", "--k", "6", "--r", "3", "--node", "0"]) == 2
    capsys.readouterr()


def test_add_happy_path(capsys):
    rc = main(["add", "--k", "6", "--r", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "addition: K=6 r=3 new node 7 seed 0" in out
    assert "measured load: 18/7" in out
    assert "optimal: true" in out
    assert "balanced=true cyclic=true replication=true content=true" in out


def test_add_rejects_full_replication(capsys):
    assert main(["add", "--k", "5", "--r", "5"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["remove", "--k", "6", "--r", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "loads.csv"
    rc = main(["sweep", "--k", "15", "--out", str(out)])
    assert rc == 0
    assert f"wrote 12 rows to {out}" in capsys.readouterr().out

    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 13
    rows = [dict(zip(SWEEP_COLUMNS, line.split(","))) for line in lines[1:]]
    assert [row["r"] for row in rows] == [str(r) for r in range(3, 15)]
    assert all(row["verified"] == "true" for row in rows)
    assert all(row["r_th"] == "11" for row in rows)
    # the scheme flips exactly at the threshold
    by_r = {int(row["r"]): row for row in rows}
    assert by_r[10]["scheme"] == "scheme1"
    assert by_r[11]["scheme"] == "scheme2"
    assert lines[12] == "15,14,scheme2,2,1,2.0,9.964285714285714,1.9285714285714286,14,1.0769230769230769,11,true"


def test_sweep_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--k", "9", "--out", str(a)]) == 0
    assert main(["sweep", "--k", "9", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_range_subset(tmp_path, capsys):
    out = tmp_path / "part.csv"
    rc = main(["sweep", "--k", "10", "--r-min", "4", "--r-max", "6", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 4


def test_sweep_rejects_bad_range(tmp_path, capsys):
    # every bad parameter is rejected before --out is created
    out = tmp_path / "x.csv"
    for argv in (
        ["--k", "10", "--r-min", "2"],
        ["--k", "10", "--r-max", "10"],
        ["--k", "10", "--r-min", "5", "--r-max", "4"],
        ["--k", "3"],
        ["--k", "10", "--node", "11"],
        ["--k", "10", "--t-mult", "0"],
    ):
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("parameter error: ")
        assert not out.exists()


def test_sweep_unwritable_output_runs_no_row(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "rebalance_remove", lambda *a: calls.append(a))
    path = tmp_path / "missing" / "f.csv"
    assert main(["sweep", "--k", "20", "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert calls == []


def test_sweep_rows_direct():
    rows = sweep_rows(6, 3, 5, node=2, seed=1, t_mult=1)
    assert [row["scheme"] for row in rows] == ["scheme1", "scheme1", "scheme2"]
    assert all(row["verified"] == "true" for row in rows)


def test_trace_json(tmp_path, capsys):
    trace = tmp_path / "run.json"
    rc = main(
        ["remove", "--k", "6", "--r", "3", "--node", "6", "--trace", str(trace)]
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    assert doc["operation"] == "removal"
    assert doc["n_nodes"] == 6 and doc["replication"] == 3
    assert doc["removed_node"] == 6 and doc["scheme"] == "scheme1"
    assert doc["load"] == {
        "measured": [2, 1],
        "measured_float": 2.0,
        "expected": [2, 1],
    }
    assert len(doc["broadcasts"]) == 6
    assert all("payload_hex" not in b for b in doc["broadcasts"])
    first = doc["broadcasts"][0]
    assert set(first) == {"sender", "kind", "payload_atoms", "operands"}
    assert {t["index"] for t in doc["targets"]} == {1, 2, 3, 4, 5}
    assert doc["verification"]["balanced"] is True
    assert doc["verification"]["findings"] == []


def test_full_trace_has_payload(tmp_path, capsys):
    trace = tmp_path / "full.json"
    rc = main(
        [
            "add", "--k", "6", "--r", "3",
            "--trace", str(trace), "--full-trace",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    assert doc["operation"] == "addition"
    assert doc["added_node"] == 7
    assert all("payload_hex" in b for b in doc["broadcasts"])
    assert len(doc["broadcasts"]) == 8  # six trailers plus two kept shipments


def test_trace_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(
            ["remove", "--k", "7", "--r", "4", "--node", "3", "--trace", str(path)]
        ) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_payload_not_load(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["remove", "--k", "6", "--r", "3", "--node", "6", "--seed", "1",
          "--trace", str(a), "--full-trace"])
    main(["remove", "--k", "6", "--r", "3", "--node", "6", "--seed", "2",
          "--trace", str(b), "--full-trace"])
    capsys.readouterr()
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["load"] == db["load"]
    assert da["targets"] == db["targets"]
    assert da["broadcasts"] != db["broadcasts"]  # payload bits differ


def test_segment_size_multiplier_keeps_load(capsys):
    for t_mult in ("1", "3"):
        rc = main(["remove", "--k", "6", "--r", "3", "--node", "6", "--t-mult", t_mult])
        out = capsys.readouterr().out
        assert rc == 0
        assert "measured load: 2 (2.0)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["remove", "--k", "6", "--r", "3", "--node", "6", "--trace"],
        ["add", "--k", "6", "--r", "3", "--trace"],
        ["sweep", "--k", "6", "--out"],
    ],
    ids=["remove", "add", "sweep"],
)
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "f"
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ")
    assert str(path) in err
    assert not path.exists()


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["remove", "--k", "200", "--r", "100", "--node", "7"], "rebalance_remove"),
        (["add", "--k", "200", "--r", "100"], "rebalance_add"),
    ],
    ids=["remove", "add"],
)
def test_unwritable_trace_runs_nothing(argv, engine, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, engine, lambda *a: calls.append(a))
    path = tmp_path / "missing" / "t.json"
    assert main([*argv, "--trace", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("cannot write output: ")
    assert out == ""
    assert calls == []


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["remove", "--k", "6", "--r", "3", "--node", "6"], "rebalance_remove"),
        (["add", "--k", "6", "--r", "3"], "rebalance_add"),
    ],
    ids=["remove", "add"],
)
def test_a_run_that_raises_leaves_no_trace(argv, engine, tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise rebalance.MergeFailureError("node 3 cannot source atoms [56:70] of segment 6")

    monkeypatch.setattr(cli, engine, fail)
    path = tmp_path / "t.json"
    assert main([*argv, "--trace", str(path)]) == 1
    assert capsys.readouterr().err.startswith("protocol failure: node 3 cannot source")
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["remove", "--k", "6", "--r", "2", "--node", "1", "--trace"],
        ["add", "--k", "2", "--r", "2", "--trace"],
    ],
    ids=["remove", "add"],
)
def test_bad_parameters_keep_an_existing_trace(argv, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("earlier run\n")
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr().err.startswith(("parameter error: ", "unsupported configuration: "))
    assert path.read_text() == "earlier run\n"


def test_a_trace_overwrites_an_existing_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("x" * 100_000)
    assert main(["remove", "--k", "6", "--r", "3", "--node", "6", "--trace", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["operation"] == "removal"


# sha256 of the --full-trace file, fixed when content generation became
# lane-packed; the payload bits (and so these digests) must never change
PINNED_TRACES = [
    (
        ["remove", "--k", "6", "--r", "3", "--node", "6"],
        "84c78fa511e03b1b5a19d7e0a75359c893ad27e51cc4fb18f1169ae11139c5e3",
    ),
    (
        ["add", "--k", "6", "--r", "3", "--seed", "3", "--t-mult", "2"],
        "55094da04480bbb633e4a8e2ecd6940bb5a413e35cd2a0caa7ec8e2a8c7863ff",
    ),
    (
        # 150 64-bit blocks per segment
        ["remove", "--k", "40", "--r", "30", "--node", "7", "--t-mult", "3"],
        "e738049f2518297872cf12bd5f6d832f153e16d66a236ed3b599b7eb3f89e19b",
    ),
    (
        ["remove", "--k", "12", "--r", "9", "--node", "5", "--scheme", "uncoded"],
        "8728a11e96e383eb431ea8165a08535b66a2f588e7e5ac9c6b46ac750b42aa9f",
    ),
    (
        # four of its ten class slots are zero filler
        ["remove", "--k", "9", "--r", "4", "--node", "3", "--scheme", "scheme2"],
        "b6f20e91e232d44e36f2519cdec82aa6f64939920229ed8b526b55b374b98d9d",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    PINNED_TRACES,
    ids=[
        "remove-6-3",
        "add-6-3-seed3",
        "remove-40-30",
        "remove-12-9-uncoded",
        "remove-9-4-scheme2",
    ],
)
def test_full_trace_bytes_are_pinned(argv, digest, tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main([*argv, "--trace", str(trace), "--full-trace"]) == 0
    capsys.readouterr()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


# sha256 of a removal's stdout and of a sweep's CSV; their closed-form lines
# and columns (coded loads, threshold, uncoded baseline) must never change
REMOVE_12_9_STDOUT = "a84d08f30b8fe8baf70a0b25515ed66383d42c3f43bc6ee0279c2059221134ba"
SWEEP_15_CSV = "028ab1fc5bf308d849b51273b3713675370db0c2bce34afcb004bfed133b44ef"


def test_remove_stdout_bytes_are_pinned(capsys):
    assert main(["remove", "--k", "12", "--r", "9", "--node", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REMOVE_12_9_STDOUT


def test_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "s.csv"
    assert main(["sweep", "--k", "15", "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_15_CSV


def test_optimized_interpreter_writes_the_same_trace(tmp_path, capsys):
    # python -O strips assert statements; the run must not depend on them
    argv = ["remove", "--k", "6", "--r", "3", "--node", "6", "--full-trace", "--trace"]
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    assert main([*argv, str(here)]) == 0
    capsys.readouterr()
    src = str(Path(rebalance.__file__).resolve().parents[1])
    code = "import sys; from rebalance.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, *argv, str(there)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert there.read_bytes() == here.read_bytes()


def test_module_form_runs_the_cli(capsys):
    # python -m rebalance is the rebalance command: same stdout, same exit code
    argv = ["add", "--k", "6", "--r", "3"]
    rc = main(argv)
    out = capsys.readouterr().out
    src = str(Path(rebalance.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rebalance", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (rc, out) and rc == 0, proc.stderr


def test_check_claim1(capsys):
    rc = main(["check-claim1", "--kmax", "30"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pairs checked: 378 (K in [4..30])" in out
    assert "counterexamples: 0" in out
    assert "equal-cost points: 9" in out
    assert "threshold audit: pass" in out


def test_check_claim1_rejects_small_kmax(capsys):
    assert main(["check-claim1", "--kmax", "3"]) == 2
    capsys.readouterr()


def test_sweep_row_failure_leaves_no_csv(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise rebalance.MergeFailureError("node 3 cannot source atoms [56:70] of segment 6")

    monkeypatch.setattr(cli, "rebalance_remove", fail)
    path = tmp_path / "f.csv"
    assert main(["sweep", "--k", "6", "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith("protocol failure: node 3 cannot source")
    assert not path.exists()

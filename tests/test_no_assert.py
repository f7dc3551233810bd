"""Package invariants must not rely on assert: `python -O` strips them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rebalance

PACKAGE_DIR = Path(rebalance.__file__).resolve().parent

# a removal at (6,3) with a flipped stored bit in its result, and the same run
# replayed with its first broadcast dropped; findings holds both reports' findings
FAULTS = """
from dataclasses import replace

from rebalance import (
    build_cyclic_database, default_params, deliver, drop_broadcast, flip_stored_bit,
    rebalance_remove, removal_merge, verify_change,
)
from rebalance.model import cyclic_refs

db = build_cyclic_database(default_params(6, 3), seed=0)
clean = rebalance_remove(db, 6)
flipped = replace(clean, final=flip_stored_bit(clean.final, 3, 2, 40))
log, plan = drop_broadcast(clean.log, 0), clean.plan
certificate = cyclic_refs(db.contents, db.n_nodes, db.params.replication)
received = deliver(db, log, plan)
final = removal_merge.merge(db, plan.actual, plan.recipes, received, False, certificate)
dropped = replace(clean, final=final, log=log)
findings = [verify_change(run, seed=0).findings for run in (flipped, dropped)]
"""


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_faults_are_found_alike_under_an_optimized_interpreter():
    here: dict = {}
    exec(FAULTS, here)
    assert all(here["findings"]), here["findings"]
    code = FAULTS + "import json, sys; print(json.dumps([sys.flags.optimize, findings]))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    optimize, there = json.loads(proc.stdout)
    assert optimize == 1
    assert there == json.loads(json.dumps(here["findings"]))

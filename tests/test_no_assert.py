"""Package invariants must not rely on assert: `python -O` strips them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import rebalance

PACKAGE_DIR = Path(rebalance.__file__).resolve().parent

# a removal at (6,3) with a flipped stored bit in its result; the same run
# replayed with its first broadcast dropped, whose merge fails at the node it
# starved (starved holds the error text); and the clean result with that node's
# replica cut to what it could source, its last 49 atoms, in a copy as
# flip_stored_bit copies. findings holds the flipped and short runs' findings
FAULTS = """
from dataclasses import replace

from rebalance import (
    MergeFailureError, build_cyclic_database, default_params, drop_broadcast,
    flip_stored_bit, rebalance_remove, removal_merge, verify_change,
)
from rebalance.model import cyclic_refs
from rebalance.removal_schemes import decode_groups

db = build_cyclic_database(default_params(6, 3), seed=0)
clean = rebalance_remove(db, 6)
flipped = replace(clean, final=flip_stored_bit(clean.final, 3, 2, 40))
log, plan = drop_broadcast(clean.log, 0), clean.plan
certificate = cyclic_refs(db.contents, db.n_nodes, db.params.replication)
try:
    removal_merge.merge(db, plan.actual, plan.recipes, decode_groups(db, log), certificate)
    starved = None
except MergeFailureError as exc:
    starved = str(exc)
contents = {n: dict(items) for n, items in clean.final.contents.items()}
piece = contents[2][5]
contents[2][5] = piece._replace(n_atoms=49, bits=piece.bits >> (35 * db.params.atom_bits))
short = replace(clean, final=replace(clean.final, contents=contents))
findings = [verify_change(run, seed=0).findings for run in (flipped, short)]
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
    assert here["starved"] == "node 2 cannot source atoms [0:35] of segment 5 for target 5"
    assert all(here["findings"]), here["findings"]
    # the short replica is out of balance, not only out of content
    assert "balance" in {category for category, _ in here["findings"][1]}, here["findings"]
    code = FAULTS + (
        "import json, sys; print(json.dumps([sys.flags.optimize, starved, findings]))"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    optimize, starved, there = json.loads(proc.stdout)
    assert optimize == 1
    assert starved == here["starved"]
    assert there == json.loads(json.dumps(here["findings"]))

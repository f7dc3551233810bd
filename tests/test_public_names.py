"""The package's public names: `__all__` lists each once, and each one exists."""

import ast
import inspect
from pathlib import Path

import rebalance

HARNESS = Path(__file__).resolve().parents[1] / "benchmark" / "harness.py"

# rebalance.__all__, sorted; a name joins or leaves the public surface here too
PUBLIC = [
    "Broadcast",
    "ChangePlan",
    "ChangeRun",
    "Claim1Report",
    "Database",
    "DecodeFailureError",
    "LoadReport",
    "MergeFailureError",
    "MergeRecipe",
    "ParameterError",
    "ProtocolViolationError",
    "RebalanceError",
    "SCHEME_CHOICES",
    "StoredPiece",
    "SubsegmentLabel",
    "SystemParams",
    "TransmissionLog",
    "UnsupportedConfigError",
    "VerificationReport",
    "addition_expected_layout",
    "addition_load",
    "apply_merge",
    "build_cyclic_database",
    "build_merge_recipes",
    "choose_scheme",
    "cyclic_range",
    "decode_at_node",
    "default_params",
    "deliver",
    "drop_broadcast",
    "flip_stored_bit",
    "full_removal_load",
    "load_scheme1",
    "load_scheme2",
    "make_split_plan",
    "rebalance_add",
    "rebalance_remove",
    "removal_expected_layout",
    "reorder_replica_parts",
    "run_scheme1",
    "run_scheme2",
    "run_uncoded_removal",
    "segment_content",
    "slice_atoms",
    "storage_set",
    "threshold",
    "uncoded_removal_load",
    "verify_change",
    "verify_claim1",
    "verify_cyclic_balanced",
    "verify_preservation",
]


def test_all_names_are_unique_and_resolve():
    names = rebalance.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(rebalance, n)]
    assert not missing, f"__all__ names the package does not define: {missing}"
    namespace = {}
    exec("from rebalance import *", namespace)
    assert set(names) <= set(namespace)


def test_all_is_pinned():
    assert len(PUBLIC) == 51
    assert rebalance.__all__ == PUBLIC


def test_the_benchmark_harness_imports_only_public_names():
    # read, not imported: the harness's own imports are not the package's
    tree = ast.parse(HARNESS.read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rebalance"
        for alias in node.names
    }
    assert imported, "the harness imports nothing from rebalance"
    missing = sorted(imported - set(rebalance.__all__))
    assert not missing, f"harness imports names outside __all__: {missing}"


def harness_calls():
    """(name, positional count, keywords, line) of each call in the harness to
    a name it imports from rebalance: called directly, through a module-level
    dict of such names (SCHEDULES[scheme](db, plan)), or forwarded by a
    call(label, fn, *args) helper, which calls fn with the arguments after it."""
    tree = ast.parse(HARNESS.read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rebalance"
        for alias in node.names
    }
    tables = {
        target.id: [value.id for value in stmt.value.values]
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict)
        and stmt.value.values
        and all(isinstance(v, ast.Name) and v.id in imported for v in stmt.value.values)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }

    def callees(expr):
        if isinstance(expr, ast.Name) and expr.id in imported:
            return [expr.id]
        if isinstance(expr, ast.Subscript) and isinstance(expr.value, ast.Name):
            return tables.get(expr.value.id, [])
        return []

    def arity(args, keywords):
        # None where a starred or ** argument hides the count
        if any(isinstance(a, ast.Starred) for a in args) or None in keywords:
            return None
        return len(args)

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keywords = [kw.arg for kw in node.keywords]
        for name in callees(node.func):
            calls.append((name, arity(node.args, keywords), keywords, node.lineno))
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) != "call":
            continue
        for i, arg in enumerate(node.args):
            names = callees(arg)
            rest = node.args[i + 1 :]
            for name in names:
                calls.append((name, arity(rest, []), [], node.lineno))
            if names:
                break
    return calls


def test_the_benchmark_harness_calls_bind_to_the_current_signatures():
    # the harness changes only with the benchmark, so a package signature that
    # no longer takes one of its calls must fail here, not in a benchmark run
    calls = harness_calls()
    assert ("apply_merge", 4, []) in [call[:3] for call in calls], calls
    unbound = []
    for name, positional, keywords, line in calls:
        assert positional is not None, (name, line)
        try:
            inspect.signature(getattr(rebalance, name)).bind(
                *[object()] * positional, **{kw: object() for kw in keywords}
            )
        except TypeError as exc:
            unbound.append(f"harness.py:{line} {name}: {exc}")
    assert not unbound, unbound

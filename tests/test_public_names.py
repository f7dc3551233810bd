"""The package's public names: `__all__` lists each once, and each one exists."""

import ast
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

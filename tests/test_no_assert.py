"""Package invariants must not rely on assert: `python -O` strips them."""

import ast
from pathlib import Path

import rebalance

PACKAGE_DIR = Path(rebalance.__file__).resolve().parent


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

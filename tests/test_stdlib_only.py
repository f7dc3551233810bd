"""The package declares no dependencies (pyproject.toml), so it imports only the
standard library and its own modules."""

import ast
import sys
from pathlib import Path

import rebalance

PACKAGE_DIR = Path(rebalance.__file__).resolve().parent


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert not found, f"imports outside the standard library: {found}"

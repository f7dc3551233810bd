"""The package declares no dependencies (pyproject.toml), so it imports only the
standard library and its own modules; and it leaves the process alone, so it
imports no module that tunes the collector or the allocator."""

import ast
import sys
from pathlib import Path

import rebalance

PACKAGE_DIR = Path(rebalance.__file__).resolve().parent

# gc.freeze, gc.set_threshold, ctypes' mallopt and resource.setrlimit change the
# whole process, not one run: a memory or speed gain must come from the code
PROCESS_WIDE = {"gc", "ctypes", "resource"}


def imported_modules():
    """(where, top-level module name) of every import under src/rebalance,
    function-level ones too; relative imports are the package's own."""
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno} {name}", name.partition(".")[0]


def test_package_imports_only_the_standard_library():
    found = [where for where, top in imported_modules() if top not in sys.stdlib_module_names]
    assert not found, f"imports outside the standard library: {found}"


def test_package_imports_no_process_wide_tuning():
    found = [where for where, top in imported_modules() if top in PROCESS_WIDE]
    assert not found, f"imports that tune the whole process: {found}"

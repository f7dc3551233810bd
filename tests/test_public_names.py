"""The package's public names: `__all__` lists each once, and each one exists."""

import rebalance


def test_all_names_are_unique_and_resolve():
    names = rebalance.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(rebalance, n)]
    assert not missing, f"__all__ names the package does not define: {missing}"
    namespace = {}
    exec("from rebalance import *", namespace)
    assert set(names) <= set(namespace)

"""Shared fixtures for the test suite."""

from dataclasses import replace

import pytest

from rebalance import apply_merge, deliver, drop_broadcast


@pytest.fixture
def replay_without_broadcast():
    """Replay a clean removal's delivery and merge with one broadcast dropped.

    Returns a function (db, clean, index) -> RemovalRun that reuses the clean
    run's plan and recipes and merges leniently, so every holder the missing
    broadcast starved keeps a short replica for the verifier to flag.
    """

    def replay(db, clean, index):
        log = drop_broadcast(clean.log, index)
        received = deliver(db, log, clean.plan)
        final = apply_merge(db, clean.plan, clean.recipes, received, strict=False)
        return replace(clean, final=final, log=log)

    return replay


@pytest.fixture(scope="session")
def total_stored_atoms():
    """Atoms a database stores over all nodes and replicas: a function of the database."""

    def total(db):
        return sum(p.n_atoms for items in db.contents.values() for p in items.values())

    return total

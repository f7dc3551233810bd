"""Shared fixtures for the test suite."""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from rebalance import (
    addition,
    deliver,
    drop_broadcast,
    removal_merge,
    removal_schemes,
    verify,
)
from rebalance.model import cyclic_refs, slice_atoms


@pytest.fixture
def replay_without_broadcast():
    """Replay a clean change's delivery and merge with one broadcast dropped.

    Returns a function (db, clean, index) -> ChangeRun that reuses the clean
    run's plan and merges leniently, so every holder the missing broadcast
    starved keeps a short replica for the verifier to flag. Both changes
    merge through their plan's holder labels; an addition's new node K+1
    stores nothing.
    """

    def replay(db, clean, index):
        log = drop_broadcast(clean.log, index)
        received = deliver(db, log, clean.plan)
        certificate = cyclic_refs(db.contents, db.n_nodes, db.params.replication)
        plan = clean.plan
        final = removal_merge.merge(db, plan.actual, plan.recipes, received, False, certificate)
        return replace(clean, final=final, log=log)

    return replay


@pytest.fixture(scope="session")
def total_stored_atoms():
    """Atoms a database stores over all nodes and replicas: a function of the database."""

    def total(db):
        return sum(p.n_atoms for items in db.contents.values() for p in items.values())

    return total


@pytest.fixture
def every_node_deviates(monkeypatch):
    """A context manager under which the layout certificate lists every node as
    deviating, the new node of an addition too, so both changes rebuild every
    replica by the per-holder source rule, the all-walk merge, and the verifier
    fetches every holder's piece and walks the shape item by item."""

    def all_deviate(contents, n, r):
        refs, _ = cyclic_refs(contents, n, r)
        return refs, {*contents, *range(1, n + 2)}

    @contextmanager
    def patched():
        with monkeypatch.context() as m:
            m.setattr(removal_merge, "cyclic_refs", all_deviate)
            m.setattr(removal_schemes, "cyclic_refs", all_deviate)
            m.setattr(addition, "cyclic_refs", all_deviate)
            m.setattr(verify, "cyclic_refs", all_deviate)
            yield

    return patched


@pytest.fixture
def rule_calls(monkeypatch):
    """The (target, node) of every replica the merge builds by the per-holder
    source rule, in call order."""
    calls = []
    rule = removal_merge._source_rule

    def counted(db, node, recipe, *args):
        calls.append((recipe.target, node))
        return rule(db, node, recipe, *args)

    monkeypatch.setattr(removal_merge, "_source_rule", counted)
    return calls


@pytest.fixture(scope="session")
def damage_reach():
    """The (target, node) pairs, in target and holder order, whose replica a
    merge must build by the source rule, from a plain per-holder reading of
    the rule's exceptions: the holder's node deviates from the cyclic layout,
    the target's reference piece is missing, or the holder lacks a part's
    origin and its first covering decoded piece is missing or cuts unequal to
    the reference."""

    def reach(db, actual, recipes, received):
        params = db.params
        w = params.atom_bits
        refs, deviating = cyclic_refs(db.contents, params.n_nodes, params.replication)
        out = []
        for recipe in recipes:
            whole = any(refs[origin - 1] is None for origin, _, _ in recipe.parts)
            for holder in recipe.holders:
                node = actual[holder]
                if whole or node in deviating or not all(
                    _sourced_as_the_reference(db, node, part, refs, received, w)
                    for part in recipe.parts
                ):
                    out.append((recipe.target, node))
        return out

    return reach


def _sourced_as_the_reference(db, node, part, refs, received, w):
    origin, start, stop = part
    if origin in db.contents.get(node, {}):
        return True
    want = slice_atoms(refs[origin - 1].bits, start, stop, w)
    for (got_origin, got_start, got_stop), got in received.items():
        if got_origin == origin and got_start <= start and stop <= got_stop and node in got:
            return slice_atoms(got[node], start - got_start, stop - got_start, w) == want
    return False

"""Shared fixtures for the test suite."""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from rebalance import (
    Database,
    MergeFailureError,
    StoredPiece,
    addition,
    deliver,
    drop_broadcast,
    removal_merge,
    removal_schemes,
    verify,
)
from rebalance.bus import encode
from rebalance.model import cyclic_refs, slice_atoms
from rebalance.removal_schemes import decode_groups


@pytest.fixture
def replay_without_broadcast(oracle_merge):
    """Replay a clean change's delivery and merge with one broadcast dropped.

    Returns a function (db, clean, index) -> ChangeRun that reuses the clean
    run's plan and merges leniently through the per-holder oracle, so every
    holder the missing broadcast starved keeps a short replica for the
    verifier to flag. Both changes merge through their plan's holder labels;
    an addition's new node K+1 stores nothing.
    """

    def replay(db, clean, index):
        log = drop_broadcast(clean.log, index)
        received = deliver(db, log, clean.plan)
        final = oracle_merge(db, clean.plan, clean.plan.recipes, received, strict=False)
        return replace(clean, final=final, log=log)

    return replay


def _layout(final):
    """Every (node, index, n_atoms, bits) of a database in node and key order,
    and which replicas are one object, numbered by first appearance."""
    stream, sharing, first = [], [], {}
    for node, items in final.contents.items():
        for index, piece in items.items():
            stream.append((node, index, piece.n_atoms, piece.bits))
            sharing.append(first.setdefault(id(piece), len(first)))
    return final.n_nodes, stream, sharing


@pytest.fixture(scope="session")
def plain_twin():
    """A removal's run redone as rebalance_remove does it on a damaged layout:
    encode the plan's slots whole, then stream decode_groups into the merge.

    Returns a function (db, run) -> (twin, mine): the twin's log and _layout()
    and the run's own, so a caller can assert they are equal.
    """

    def twin(db, run):
        params, plan = db.params, run.plan
        log = encode(db, plan.slots)
        certificate = cyclic_refs(db.contents, params.n_nodes, params.replication)
        groups = decode_groups(db, log)
        final = removal_merge.merge(db, plan.actual, plan.recipes, groups, certificate)
        return (log, _layout(final)), (run.log, _layout(run.final))

    return twin


@pytest.fixture
def certified_records(monkeypatch):
    """What each certified removal's loop hands _certified_pieces, in call
    order: ({decoded range: mask of its receivers' holder labels}, {decoded
    range: the piece}), taken before the assembly pops the pieces."""
    handed = []
    real = removal_schemes._certified_pieces

    def spy(params, position, recipes, decoded, refs, cuts):
        masks = {
            (origin, start, stop): mask
            for origin, got in decoded.items()
            for start, stop, (mask, _) in got
        }
        handed.append((masks, dict(cuts)))
        return real(params, position, recipes, decoded, refs, cuts)

    monkeypatch.setattr(removal_schemes, "_certified_pieces", spy)
    return handed


@pytest.fixture
def remove_with_slots(monkeypatch):
    """A function (db, removed, slots) -> ChangeRun: rebalance_remove with the
    scheme-1 plan's schedule replaced by slots, for hand-built schedules."""
    make = removal_schemes.make_removal_plan

    def run(db, removed, slots):
        plan = replace(make(db.params, removed, "scheme1"), slots=tuple(slots))
        monkeypatch.setattr(removal_schemes, "make_removal_plan", lambda *args: plan)
        return removal_schemes.rebalance_remove(db, removed)

    return run


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
def expected_rule_calls():
    """The (target, node) pairs, in target and holder order, whose replica a
    merge must build by the source rule: none on a certified input, and every
    holder of every target on any other. From a plain per-holder reading, an
    input is certified when no holder's node deviates from the cyclic layout,
    every received piece is the reference's cut of its range, and every
    holder takes each part from its own storage or from some received piece
    that covers the part and lists its node."""

    def expected(db, actual, recipes, received):
        params = db.params
        w = params.atom_bits
        refs, deviating = cyclic_refs(db.contents, params.n_nodes, params.replication)
        walk = [(recipe.target, actual[holder]) for recipe in recipes for holder in recipe.holders]
        if not deviating.isdisjoint(actual[1:]):
            return walk
        for (origin, start, stop), got in received.items():
            want = slice_atoms(refs[origin - 1].bits, start, stop, w)
            if any(bits != want for bits in got.values()):
                return walk
        for recipe in recipes:
            for holder in recipe.holders:
                node = actual[holder]
                stored = db.contents.get(node, {})
                for origin, start, stop in recipe.parts:
                    if origin not in stored and not any(
                        got_origin == origin and got_start <= start and stop <= got_stop
                        and node in got
                        for (got_origin, got_start, got_stop), got in received.items()
                    ):
                        return walk
        return []

    return expected


@pytest.fixture(scope="session")
def oracle_merge():
    """The merge one holder at a time: each holder resolves and assembles its own parts.

    Returns a function (db, plan, recipes, received, strict=True) -> Database
    of one node per recipe, K-1 after a removal and K+1 after an addition. A
    holder takes its own stored segment, else the first received piece, in
    dict order, that covers the range and lists the holder's node. A part no
    source covers raises MergeFailureError, or with strict=False is skipped,
    which leaves a short replica: the fault-injection replays use that for
    the verifier to flag, as the package's merge has no such mode.
    """

    def oracle(db, plan, recipes, received, strict=True):
        params = db.params
        w = params.atom_bits
        contents = {n: {} for n in range(1, len(recipes) + 1)}
        for recipe in recipes:
            for holder in recipe.holders:
                node = plan.actual[holder]
                bits, offset = 0, 0
                for origin, start, stop in recipe.parts:
                    src = None
                    own = db.stored(node, origin)
                    if own is not None:
                        src = (own.bits, start)
                    else:
                        for (got_origin, got_start, got_stop), got in received.items():
                            if (
                                node in got
                                and got_origin == origin
                                and got_start <= start
                                and stop <= got_stop
                            ):
                                src = (got[node], start - got_start)
                                break
                    if src is None:
                        if strict:
                            raise MergeFailureError(
                                f"node {node} cannot source atoms [{start}:{stop}] "
                                f"of segment {origin} for target {recipe.target}"
                            )
                        continue
                    at = src[1]
                    bits |= slice_atoms(src[0], at, at + stop - start, w) << (offset * w)
                    offset += stop - start
                contents[holder][recipe.target] = StoredPiece(offset, bits)
        return Database(params, len(recipes), contents)

    return oracle

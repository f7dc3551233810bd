"""Verification and fault injection: clean runs pass, every fault is flagged."""

import re

import pytest

from rebalance import (
    ParameterError,
    SystemParams,
    VerificationReport,
    addition_expected_layout,
    build_cyclic_database,
    decode_at_node,
    default_params,
    drop_broadcast,
    flip_stored_bit,
    rebalance_add,
    rebalance_remove,
    removal_expected_layout,
    reorder_replica_parts,
    verify_cyclic_balanced,
    verify_preservation,
)


def removal_setup(k=6, r=3, seed=0, removed=None, **kw):
    params = default_params(k, r)
    db = build_cyclic_database(params, seed=seed)
    run = rebalance_remove(db, removed if removed is not None else k, **kw)
    shape = SystemParams(k - 1, r, params.segment_bits * k // (k - 1))
    return params, run, shape


def test_clean_removal_verifies():
    params, run, shape = removal_setup()
    rep = verify_cyclic_balanced(run.final, shape)
    assert rep.ok and rep.is_balanced and rep.is_cyclic
    assert rep.replication_ok and rep.content_ok
    rep2 = verify_preservation(
        run.final, removal_expected_layout(run.recipes), params, seed=0
    )
    assert rep2.ok
    assert rep.merged(rep2).ok


def test_clean_addition_verifies():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=5)
    run = rebalance_add(db)
    shape = SystemParams(7, 3, params.segment_bits * 6 // 7)
    assert verify_cyclic_balanced(run.final, shape).ok
    assert verify_preservation(
        run.final, addition_expected_layout(run.plan), params, seed=5
    ).ok


def test_flipped_bit_is_localized():
    params, run, shape = removal_setup(seed=9)
    bad = flip_stored_bit(run.final, node=3, segment_index=2, bit=17)
    rep = verify_cyclic_balanced(bad, shape)
    assert not rep.ok and not rep.content_ok
    assert rep.is_balanced and rep.is_cyclic and rep.replication_ok
    assert any("segment 2" in msg and "node 3" in msg for _, msg in rep.findings)
    rep2 = verify_preservation(
        bad, removal_expected_layout(run.recipes), params, seed=9
    )
    assert any("node 3" in msg and "segment 2" in msg for _, msg in rep2.findings)


def test_every_dropped_broadcast_is_detected():
    params = default_params(6, 3)
    db = build_cyclic_database(params, seed=0)
    n_broadcasts = len(rebalance_remove(db, 6).log.broadcasts)
    assert n_broadcasts == 6
    for i in range(n_broadcasts):
        run = rebalance_remove(
            db, 6, strict=False, tamper_log=lambda log, i=i: drop_broadcast(log, i)
        )
        shape = SystemParams(5, 3, params.segment_bits * 6 // 5)
        rep = verify_cyclic_balanced(run.final, shape).merged(
            verify_preservation(
                run.final, removal_expected_layout(run.recipes), params, seed=0
            )
        )
        assert not rep.ok, f"dropped broadcast {i} went unnoticed"


# findings about a node's own stored segment: "node X segment ..." (shape)
# and "node X target segment ..." (content)
OWN_SEGMENT = re.compile(r"node (\d+) (?:target )?segment ")


@pytest.mark.parametrize("k", range(4, 13))
def test_dropped_broadcast_is_localized_to_its_decoders(k):
    # every node whose replica a dropped broadcast damages must have decoded
    # from it; with coded schedules every decoder is damaged, so shared
    # assembly can never serve one holder from another holder's sources
    for r in range(3, k):
        params = default_params(k, r)
        db = build_cyclic_database(params, seed=k * r)
        shape = SystemParams(k - 1, r, params.segment_bits * k // (k - 1))
        removed = k // 2 + 1
        for scheme in ("scheme1", "scheme2", "uncoded"):
            clean = rebalance_remove(db, removed, scheme=scheme)
            canonical = {clean.plan.to_actual(c): c for c in range(1, k)}
            expected = removal_expected_layout(clean.recipes)
            for i, b in enumerate(clean.log.broadcasts):
                addressed = {n for op in b.operands for n in op.superscript}
                decoders = {
                    canonical[n] for n in addressed if decode_at_node(db, n, b) is not None
                }
                run = rebalance_remove(
                    db,
                    removed,
                    scheme=scheme,
                    strict=False,
                    tamper_log=lambda log, i=i: drop_broadcast(log, i),
                )
                rep = verify_cyclic_balanced(run.final, shape).merged(
                    verify_preservation(run.final, expected, params, seed=k * r)
                )
                named = {
                    int(m.group(1))
                    for _, msg in rep.findings
                    if (m := OWN_SEGMENT.match(msg))
                }
                where = (k, r, scheme, i)
                if scheme == "uncoded":
                    assert named and named <= decoders, where
                else:
                    assert named == decoders, where


def test_reordered_parts_are_detected():
    params, run, shape = removal_setup(seed=4)
    # swap the parts on every holder so the replicas stay mutually identical
    bad = run.final
    for node in (4, 5, 1):
        bad = reorder_replica_parts(bad, node=node, segment_index=4)
    assert verify_cyclic_balanced(bad, shape).ok  # shape cannot see it...
    rep = verify_preservation(
        bad, removal_expected_layout(run.recipes), params, seed=4
    )
    assert not rep.ok  # ...but content can
    assert any("node 4" in msg and "segment 4" in msg for _, msg in rep.findings)


def test_wrong_expected_shape_is_reported():
    _, run, shape = removal_setup()
    off = SystemParams(shape.n_nodes + 1, shape.replication, shape.segment_bits)
    rep = verify_cyclic_balanced(run.final, off)
    assert not rep.ok and not rep.is_cyclic


def test_original_database_verifies_as_original_shape():
    params = default_params(8, 6)
    db = build_cyclic_database(params, seed=1)
    assert verify_cyclic_balanced(db, params).ok


def test_fault_hooks_validate_arguments():
    _, run, _ = removal_setup()
    with pytest.raises(ParameterError):
        flip_stored_bit(run.final, node=1, segment_index=3, bit=0)  # not stored there
    with pytest.raises(ParameterError):
        flip_stored_bit(run.final, node=1, segment_index=1, bit=10**6)
    with pytest.raises(ParameterError):
        drop_broadcast(run.log, 99)
    with pytest.raises(ParameterError):
        reorder_replica_parts(run.final, node=1, segment_index=2)  # not stored there
    # a fresh replica records a single part, nothing to swap
    db = build_cyclic_database(default_params(6, 3), seed=0)
    with pytest.raises(ParameterError):
        reorder_replica_parts(db, node=1, segment_index=1)


def test_report_merge_and_flags():
    a = VerificationReport((("balance", "x"),))
    b = VerificationReport((("content", "y"),))
    both = a.merged(b)
    assert not both.ok
    assert not both.is_balanced and not both.content_ok
    assert both.is_cyclic and both.replication_ok

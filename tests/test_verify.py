"""Verification and fault injection: clean runs pass, every fault is flagged."""

import re
from dataclasses import replace

import pytest

from rebalance import model as model_module
from rebalance import verify as verify_module
from rebalance import (
    ParameterError,
    StoredPiece,
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
    reorder_replica_parts,
    verify_change,
    verify_cyclic_balanced,
    verify_preservation,
)


def with_piece(db, node, index, piece):
    """Copy of a database with one stored item set at one node."""
    contents = {n: dict(items) for n, items in db.contents.items()}
    contents[node][index] = piece
    return replace(db, contents=contents)


def test_verify_reads_the_builds_own_content(monkeypatch):
    # every part the content check cuts is cut from an int the build stored:
    # a clean verification regenerates no content
    for k, r in ((12, 9), (40, 7)):
        db = build_cyclic_database(default_params(k, r), seed=k)
        own = {id(db.stored(i, i).bits) for i in range(1, k + 1)}
        runs = (rebalance_remove(db, 3), rebalance_add(db))
        sliced = []
        real_slice = verify_module.slice_atoms

        def recording_slice(bits, start, stop, atom_bits):
            sliced.append(bits)
            return real_slice(bits, start, stop, atom_bits)

        def no_walk(*args):
            raise AssertionError("content regenerated")

        monkeypatch.setattr(verify_module, "slice_atoms", recording_slice)
        monkeypatch.setattr(model_module, "_content_walk", no_walk)
        for run in runs:
            sliced.clear()
            assert verify_change(run, seed=k).ok
            assert sliced and all(id(bits) in own for bits in sliced), (k, r)
        monkeypatch.undo()


def change_12_9(op):
    # (12,9) sits on the scheme-2 side of the threshold, where most replicas share ints
    db = build_cyclic_database(default_params(12, 9), seed=21)
    return rebalance_remove(db, 5) if op == "remove" else rebalance_add(db)


def shared_replica(final):
    """(segment, node) of the first replica, past a segment's first holder, whose
    int an earlier holder of the segment holds too."""
    for index in range(1, final.n_nodes + 1):
        holders = sorted(n for n, items in final.contents.items() if index in items)
        seen = set()
        for node in holders:
            bits = final.stored(node, index).bits
            if id(bits) in seen:
                return index, node
            seen.add(id(bits))
    raise AssertionError("no two replicas share an int")


def removal_setup(seed=0):
    # K=6, r=3, last node removed
    db = build_cyclic_database(default_params(6, 3), seed=seed)
    return rebalance_remove(db, 6)


def test_clean_removal_verifies():
    rep = verify_change(removal_setup(), seed=0)
    assert rep.ok and rep.is_balanced and rep.is_cyclic
    assert rep.replication_ok and rep.content_ok


def test_clean_addition_verifies():
    db = build_cyclic_database(default_params(6, 3), seed=5)
    assert verify_change(rebalance_add(db), seed=5).ok


def test_flipped_bit_is_localized():
    run = removal_setup(seed=9)
    bad = flip_stored_bit(run.final, node=3, segment_index=2, bit=17)
    rep = verify_change(replace(run, final=bad), seed=9)
    assert not rep.ok and not rep.content_ok
    assert rep.is_balanced and rep.is_cyclic and rep.replication_ok
    messages = [msg for _, msg in rep.findings]
    # the shape check sees replicas disagree, the content check names the node
    assert any("segment 2 replicas differ" in msg and "node 3" in msg for msg in messages)
    assert any(msg.startswith("node 3 target segment 2 ") for msg in messages)


@pytest.mark.parametrize("op", ["remove", "add"])
def test_a_flip_in_a_shared_int_is_found_at_that_holder_only(op):
    run = change_12_9(op)
    # both checks have seen the shared int at an earlier holder by then
    index, node = shared_replica(run.final)
    bad = flip_stored_bit(run.final, node, index, 5)
    rep = verify_change(replace(run, final=bad), 21)
    assert not rep.ok and not rep.content_ok
    assert rep.is_balanced and rep.is_cyclic and rep.replication_ok
    for _, msg in rep.findings:
        assert re.search(rf"\bnode {node}\b", msg), msg
        assert re.search(rf"\bsegment {index}\b", msg), msg


@pytest.mark.parametrize("op", ["remove", "add"])
def test_an_equal_but_distinct_int_verifies(op):
    run = change_12_9(op)
    index, node = shared_replica(run.final)
    piece = run.final.stored(node, index)
    twin = (piece.bits ^ 1) ^ 1
    assert twin == piece.bits and twin is not piece.bits
    equal = with_piece(run.final, node, index, replace(piece, bits=twin))
    assert verify_change(replace(run, final=equal), 21).ok


def test_equal_replica_ints_are_compared_once_and_a_flip_stays_at_its_node():
    run = removal_setup()
    # target 2 lives on nodes 2, 3, 4: give each holder its own equal int
    equal = run.final
    for node in (2, 3, 4):
        piece = equal.stored(node, 2)
        equal = with_piece(equal, node, 2, replace(piece, bits=(piece.bits ^ 1) ^ 1))
    assert len({id(equal.stored(n, 2).bits) for n in (2, 3, 4)}) == 3
    assert verify_change(replace(run, final=equal), seed=0).ok
    bad = flip_stored_bit(equal, 3, 2, 40)
    rep = verify_change(replace(run, final=bad), seed=0)
    assert rep.findings == (
        ("content", "segment 2 replicas differ between node 2 and node 3"),
        ("content", "node 3 target segment 2 payload does not match its source atoms"),
    )


def test_a_segment_stored_outside_its_run_is_reported():
    run = removal_setup()
    # target 2 of the five survivors lives on nodes 2, 3, 4; node 5 gets a copy too
    bad = with_piece(run.final, 5, 2, run.final.stored(2, 2))
    rep = verify_change(replace(run, final=bad), seed=0)
    assert ("replication", "segment 2 stored on 4 nodes, expected 3") in rep.findings
    assert ("cyclicity", "segment 2 on nodes [2, 3, 4, 5], expected [2, 3, 4]") in rep.findings
    assert ("balance", "node 5 stores 336 bits, expected 252") in rep.findings
    assert rep.content_ok


def test_a_stray_item_is_reported():
    run = removal_setup()
    bad = with_piece(run.final, 1, "W~_1", run.final.stored(1, 1))
    rep = verify_change(replace(run, final=bad), seed=0)
    assert rep.findings == (("cyclicity", "node 1 stores stray item 'W~_1'"),)


def test_every_dropped_broadcast_is_detected(replay_without_broadcast):
    db = build_cyclic_database(default_params(6, 3), seed=0)
    clean = rebalance_remove(db, 6)
    n_broadcasts = len(clean.log.broadcasts)
    assert n_broadcasts == 6
    for i in range(n_broadcasts):
        rep = verify_change(replay_without_broadcast(db, clean, i), seed=0)
        assert not rep.ok, f"dropped broadcast {i} went unnoticed"


def test_every_dropped_addition_broadcast_is_detected(replay_without_broadcast):
    drops = 0
    for k, r in [(3, 2), (6, 3), (9, 5), (12, 9), (12, 11)]:
        db = build_cyclic_database(default_params(k, r), seed=k * r)
        clean = rebalance_add(db)
        for i, b in enumerate(clean.log.broadcasts):
            # every broadcast lists the new node K+1; a trailer belongs to the
            # new segment K+1, a shipped kept part to its own segment
            (op,) = b.operands
            segment = k + 1 if op.atom_start else op.base
            rep = verify_change(replay_without_broadcast(db, clean, i), seed=k * r)
            content = [msg for cat, msg in rep.findings if cat == "content"]
            named = rf"\bnode {k + 1}\b.*\bsegment {segment}\b"
            assert any(re.search(named, msg) for msg in content), (k, r, i, rep.findings)
            drops += 1
    assert drops == 67


@pytest.mark.parametrize("op", ["remove", "add"])
def test_the_input_database_in_place_of_the_result_fails(op):
    db = build_cyclic_database(default_params(6, 3), seed=0)
    run = rebalance_remove(db, 6) if op == "remove" else rebalance_add(db)
    assert verify_change(run, seed=0).ok
    # the node count comes from the recipes, so the K-node input is the wrong shape
    rep = verify_change(replace(run, final=db), seed=0)
    assert not rep.ok and not rep.is_cyclic


# findings about a node's own stored segment: "node X segment ..." (shape)
# and "node X target segment ..." (content)
OWN_SEGMENT = re.compile(r"node (\d+) (?:target )?segment ")


@pytest.mark.parametrize("k", range(4, 13))
def test_dropped_broadcast_is_localized_to_its_decoders(k, replay_without_broadcast):
    # every node whose replica a dropped broadcast damages must have decoded
    # from it; with coded schedules every decoder is damaged, so shared
    # assembly can never serve one holder from another holder's sources
    for r in range(3, k):
        db = build_cyclic_database(default_params(k, r), seed=k * r)
        removed = k // 2 + 1
        for scheme in ("scheme1", "scheme2", "uncoded"):
            clean = rebalance_remove(db, removed, scheme=scheme)
            canonical = {clean.plan.to_actual(c): c for c in range(1, k)}
            for i, b in enumerate(clean.log.broadcasts):
                addressed = {n for op in b.operands for n in op.superscript}
                decoders = {
                    canonical[n] for n in addressed if decode_at_node(db, n, b) is not None
                }
                run = replay_without_broadcast(db, clean, i)
                rep = verify_change(run, seed=k * r)
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
    run = removal_setup(seed=4)
    # swap the parts on every holder so the replicas stay mutually identical
    bad = run.final
    target = run.recipes[3]
    assert target.target == 4 and target.holders == (1, 4, 5)
    for node in target.holders:
        bad = reorder_replica_parts(bad, node=node, target=target)
    rep = verify_change(replace(run, final=bad), seed=4)
    assert not rep.ok
    # shape cannot see it, only the content check can
    assert rep.is_balanced and rep.is_cyclic and rep.replication_ok
    assert all("replicas differ" not in msg for _, msg in rep.findings)
    assert any("node 4" in msg and "segment 4" in msg for _, msg in rep.findings)


@pytest.mark.parametrize(
    "part",
    [(9, 0, 10), (0, 0, 10), (2, -1, 10), (2, 60, 71), (2, 10, 5)],
    ids=["origin-9", "origin-0", "negative-start", "past-the-end", "start-after-stop"],
)
def test_a_bad_expected_part_is_a_finding(part):
    run = removal_setup()
    # target 1 expects a part that is no atom range of an original segment in
    # place of its last one; its holders are not blamed, the atoms it no longer
    # expects are lost, and a flipped bit at target 2 is still found
    *kept, (lost, lost_start, lost_stop) = run.recipes[0].parts
    expected = (replace(run.recipes[0], parts=(*kept, part)), *run.recipes[1:])
    bad = flip_stored_bit(run.final, 3, 2, 40)
    rep = verify_preservation(bad, expected, run.final.params, seed=0)
    origin, start, stop = part
    assert rep.findings == (
        (
            "content",
            f"target segment 1 expects atoms [{start}:{stop}] of segment {origin}, "
            "outside segments 1..6 of 70 atoms",
        ),
        ("content", "node 3 target segment 2 payload does not match its source atoms"),
        ("content", f"origin segment {lost} atoms [{lost_start}:{lost_stop}] lost across targets"),
    )


def test_wrong_expected_shape_is_reported():
    run = removal_setup()
    # six nodes, where a removal from K=6 leaves five
    off = SystemParams(6, 3, run.final.params.segment_bits * 6 // 5)
    rep = verify_cyclic_balanced(run.final, off)
    assert not rep.ok and not rep.is_cyclic
    # the node count to reach is the number of targets: none is no layout
    with pytest.raises(ParameterError, match="^a run with no targets has no layout to check$"):
        verify_change(replace(run, recipes=()), seed=0)


def test_a_wrong_segment_size_is_reported():
    run = removal_setup()
    # five nodes and r=3 as a removal from K=6 leaves, one bit too many per segment
    right = SystemParams(5, 3, run.final.params.segment_bits * 6 // 5)
    assert verify_cyclic_balanced(run.final, right).ok
    rep = verify_cyclic_balanced(run.final, replace(right, segment_bits=85))
    assert rep.findings[:4] == (
        ("balance", "node 1 segment 1 has 84 bits, expected 85"),
        ("balance", "node 1 segment 4 has 84 bits, expected 85"),
        ("balance", "node 1 segment 5 has 84 bits, expected 85"),
        ("balance", "node 1 stores 252 bits, expected 255"),
    )
    assert len(rep.findings) == 5 * 4 and rep.is_cyclic and rep.replication_ok


def by_walk(monkeypatch, run, seed):
    """verify_change(run, seed) with both certificates refusing, so only the walk decides."""
    with monkeypatch.context() as m:
        m.setattr(verify_module, "_shape_certified", lambda *a: False)
        m.setattr(verify_module, "_content_certified", lambda *a: False)
        return verify_change(run, seed)


def clean_changes():
    """(run, seed) for every removal schedule and addition with K <= 10."""
    for k in range(3, 11):
        for r in range(2, k):
            seed = 100 * k + r
            db = build_cyclic_database(default_params(k, r), seed=seed)
            yield rebalance_add(db), seed
            if r >= 3:
                for scheme in ("scheme1", "scheme2", "uncoded"):
                    yield rebalance_remove(db, k // 2 + 1, scheme), seed


def test_clean_changes_are_certified_and_agree_with_the_walk(monkeypatch):
    accepted = []
    content_certified = verify_module._content_certified

    def record(*args):
        accepted.append(content_certified(*args))
        return accepted[-1]

    def no_walk(*args):
        raise AssertionError("the shape walk ran on a clean layout")

    n_runs = 0
    for run, seed in clean_changes():
        assert by_walk(monkeypatch, run, seed).ok
        with monkeypatch.context() as m:
            m.setattr(verify_module, "_content_certified", record)
            m.setattr(verify_module, "_shape_walk", no_walk)
            assert verify_change(run, seed).ok
        n_runs += 1
    assert n_runs == 36 + 3 * 28
    assert len(accepted) > n_runs and all(accepted)


def tampered_finals(final, targets):
    """(name, database) for damage of every kind the verifier reports, plus one
    equal-but-distinct replica, which it must accept."""
    index, node = shared_replica(final)
    piece = final.stored(node, index)
    twin = replace(piece, bits=(piece.bits ^ 1) ^ 1)
    yield "equal-but-distinct", with_piece(final, node, index, twin)
    for node, items in final.contents.items():
        for index, piece in items.items():
            yield f"flip {node}/{index}", flip_stored_bit(final, node, index, piece.n_atoms - 1)
    for target in targets:
        if len(target.parts) >= 2:
            for node in target.holders:
                name = f"reorder {node}/{target.target}"
                yield name, reorder_replica_parts(final, node, target)
    yield "stray item", with_piece(final, 1, "W~_1", final.stored(1, 1))
    yield "stray index", with_piece(final, 1, final.n_nodes + 1, final.stored(1, 1))
    contents = {n: dict(items) for n, items in final.contents.items()}
    del contents[2][2]
    yield "missing item", replace(final, contents=contents)
    # one shorter piece shared by every holder of segment 1
    w = final.params.atom_bits
    piece = final.stored(1, 1)
    short = StoredPiece(piece.n_atoms - 1, piece.bits >> w)
    contents = {n: dict(items) for n, items in final.contents.items()}
    for items in contents.values():
        if 1 in items:
            items[1] = short
    yield "shorter shared piece", replace(final, contents=contents)


@pytest.mark.parametrize("op", ["remove", "add"])
@pytest.mark.parametrize("k, r", [(6, 3), (12, 9)])
def test_tampered_layouts_get_the_walks_findings(op, k, r, monkeypatch):
    db = build_cyclic_database(default_params(k, r), seed=21)
    run = rebalance_remove(db, 5) if op == "remove" else rebalance_add(db)
    for name, final in tampered_finals(run.final, run.recipes):
        bad = replace(run, final=final)
        rep = verify_change(bad, 21)
        assert rep == by_walk(monkeypatch, bad, 21), name
        assert rep.ok == (name == "equal-but-distinct"), name


def test_dropped_broadcasts_get_the_walks_findings(replay_without_broadcast, monkeypatch):
    for k, r in [(6, 3), (9, 5), (12, 9)]:
        db = build_cyclic_database(default_params(k, r), seed=k * r)
        for scheme in ("scheme1", "scheme2", "uncoded"):
            clean = rebalance_remove(db, 2, scheme)
            for i, b in enumerate(clean.log.broadcasts):
                run = replay_without_broadcast(db, clean, i)
                rep = verify_change(run, k * r)
                # a scheme-2 filler slot carries no operand: dropping it damages nothing
                assert rep.ok == (not b.operands)
                assert rep == by_walk(monkeypatch, run, k * r), (k, r, scheme, i)


def test_original_database_verifies_as_original_shape():
    params = default_params(8, 6)
    db = build_cyclic_database(params, seed=1)
    assert verify_cyclic_balanced(db, params).ok


def test_fault_hooks_validate_arguments():
    run = removal_setup()
    with pytest.raises(ParameterError):
        flip_stored_bit(run.final, node=1, segment_index=3, bit=0)  # not stored there
    with pytest.raises(ParameterError):
        flip_stored_bit(run.final, node=1, segment_index=1, bit=10**6)
    with pytest.raises(ParameterError):
        drop_broadcast(run.log, 99)
    target = run.recipes[1]  # target 2, held by nodes 2, 3 and 4
    with pytest.raises(ParameterError, match="^node 1 does not store segment 2$"):
        reorder_replica_parts(run.final, node=1, target=target)
    # a kept segment of an addition is a single part, nothing to swap
    add = rebalance_add(build_cyclic_database(default_params(6, 3), seed=0))
    kept = addition_expected_layout(add.plan)[0]
    with pytest.raises(ParameterError, match="^segment 1 has fewer than two parts$"):
        reorder_replica_parts(add.final, node=1, target=kept)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda run: flip_stored_bit(run.final, node=4, segment_index=4, bit=0),
        lambda run: reorder_replica_parts(run.final, node=4, target=run.recipes[3]),
    ],
    ids=["flip", "reorder"],
)
def test_fault_hooks_copy_the_database(tamper):
    run = removal_setup()
    final = run.final  # a target layout: its shape differs from params
    before = {n: dict(items) for n, items in final.contents.items()}
    bad = tamper(run)
    assert bad is not final
    assert (bad.params, bad.n_nodes, bad.generation, bad.segment_atoms) == (
        final.params, 5, "target", 84
    )
    # the input keeps every piece object; the copy differs at (4, 4) only
    assert final.contents == before
    assert {n: set(items) for n, items in bad.contents.items()} == {
        n: set(items) for n, items in before.items()
    }
    assert all(
        final.contents[n][i] is piece for n, items in before.items() for i, piece in items.items()
    )
    changed = {
        (n, i) for n, items in bad.contents.items() for i, piece in items.items()
        if piece is not before[n][i]
    }
    assert changed == {(4, 4)}
    assert bad.contents[4][4].bits != final.contents[4][4].bits


def test_report_merge_and_flags():
    a = VerificationReport((("balance", "x"),))
    b = VerificationReport((("content", "y"),))
    both = a.merged(b)
    assert not both.ok
    assert not both.is_balanced and not both.content_ok
    assert both.is_cyclic and both.replication_ok

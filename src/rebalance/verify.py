"""Independent checks of a rebalanced database.

verify_cyclic_balanced checks shape: right nodes, equal per-node storage,
every segment on exactly its run of consecutive nodes, replicas bit-identical.

verify_preservation checks meaning: every target segment's payload equals the
concatenation of the original atoms it is supposed to carry (taken from the
content generator, never from engine bookkeeping: model.database_content
holds the latest build's immutable ints and walks afresh for any other), and
the targets together cover every original atom exactly once.

Each check first makes one certified pass from model.cyclic_refs, which
verify_change computes once for the two. With no node deviating, the shape
pass needs only the references' sizes. The content pass takes the whole run
at once: the parts tile every original atom exactly once, each target's
holders are its window by this module's own arithmetic (never the code that
built the recipes), and each reference equals the generator cuts it should
carry. Any miss runs the walk, item by item; the walk alone produces
findings, so their text and order never depend on a pass.

Findings name the offending node and segment, so a single suppressed
broadcast or flipped bit is traceable. verify_change runs both checks on
either membership change, against the targets of its run record: as many
nodes as targets, holding the same total storage. The fault hooks at the
bottom produce tampered copies for exercising that; a tampered piece is a
StoredPiece._replace copy at one node, so the other holders keep theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .bus import TransmissionLog
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
    SystemParams,
    cyclic_refs,
    database_content,
    slice_atoms,
    storage_set,
)
from .removal_merge import ChangeRun, MergeRecipe

Finding = tuple[str, str]  # (category, message)


@dataclass(frozen=True)
class VerificationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings

    def _clean(self, category: str) -> bool:
        return all(cat != category for cat, _ in self.findings)

    @property
    def is_balanced(self) -> bool:
        return self._clean("balance")

    @property
    def is_cyclic(self) -> bool:
        return self._clean("cyclicity")

    @property
    def replication_ok(self) -> bool:
        return self._clean("replication")

    @property
    def content_ok(self) -> bool:
        return self._clean("content")

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.findings + other.findings)


# cyclic_refs' (refs, deviating) for the node count and replication under check
Certificate = tuple[list[StoredPiece | None], set[int]]


def verify_cyclic_balanced(db: Database, expected: SystemParams) -> VerificationReport:
    """Shape check against an expected (node count, replication, segment bits)."""
    certificate = cyclic_refs(db.contents, expected.n_nodes, expected.replication)
    return _check_shape(db, expected, certificate)


def _check_shape(
    db: Database, expected: SystemParams, certificate: Certificate
) -> VerificationReport:
    if _shape_certified(db, expected, certificate):
        return VerificationReport(())
    return _shape_walk(db, expected)


def _shape_certified(db: Database, expected: SystemParams, certificate: Certificate) -> bool:
    """True when the certificate has no node deviating (so no ref is missing)
    and every segment has the expected size: every walk check follows."""
    refs, deviating = certificate
    w, seg_bits = db.params.atom_bits, expected.segment_bits
    return not deviating and all(ref.n_atoms * w == seg_bits for ref in refs)


def _shape_walk(db: Database, expected: SystemParams) -> VerificationReport:
    """The shape check item by item; the one source of shape findings."""
    n, r, seg_bits = expected.n_nodes, expected.replication, expected.segment_bits
    w = db.params.atom_bits
    findings: list[Finding] = []

    nodes = set(db.contents)
    if nodes != set(range(1, n + 1)):
        findings.append(("cyclicity", f"node set {sorted(nodes)} is not 1..{n}"))

    holders: dict[int, list[int]] = {}
    for node in sorted(nodes):
        items = db.contents[node]
        total_bits = 0
        for index, piece in items.items():
            if not isinstance(index, int):
                findings.append(("cyclicity", f"node {node} stores stray item {index!r}"))
                continue
            holders.setdefault(index, []).append(node)
            total_bits += piece.n_atoms * w
            if piece.n_atoms * w != seg_bits:
                findings.append(
                    (
                        "balance",
                        f"node {node} segment {index} has {piece.n_atoms * w} bits, "
                        f"expected {seg_bits}",
                    )
                )
        if total_bits != r * seg_bits:
            findings.append(
                ("balance", f"node {node} stores {total_bits} bits, expected {r * seg_bits}")
            )

    if set(holders) != set(range(1, n + 1)):
        findings.append(
            ("cyclicity", f"segment set {sorted(holders)} is not 1..{n}")
        )
    for index in sorted(holders):
        where = holders[index]  # ascending node order
        if len(where) != r:
            findings.append(
                ("replication", f"segment {index} stored on {len(where)} nodes, expected {r}")
            )
        want = storage_set(index, n, r) if 1 <= index <= n else frozenset()
        if set(where) != want:
            findings.append(
                (
                    "cyclicity",
                    f"segment {index} on nodes {where}, expected {sorted(want)}",
                )
            )
        first = where[0]
        reference = db.contents[first][index].bits
        for node in where:
            if db.contents[node][index].bits != reference:
                differ = f"segment {index} replicas differ between node {first} and node {node}"
                findings.append(("content", differ))
    return VerificationReport(tuple(findings))


def removal_expected_layout(recipes: tuple[MergeRecipe, ...]) -> tuple[MergeRecipe, ...]:
    """A removal's targets are its merge recipes, returned unchanged.

    Kept so that callers can treat removal and addition alike; the benchmark
    harness (benchmark/harness.py) calls it.
    """
    return recipes


def verify_preservation(
    final: Database,
    expected: tuple[MergeRecipe, ...],
    params: SystemParams,
    seed: int,
) -> VerificationReport:
    """Content check: every target holds exactly its original atoms, all atoms kept."""
    certificate = cyclic_refs(final.contents, len(expected), params.replication)
    return _check_content(final, expected, params, seed, certificate)


def _check_content(
    final: Database,
    expected: tuple[MergeRecipe, ...],
    params: SystemParams,
    seed: int,
    certificate: Certificate,
) -> VerificationReport:
    """verify_preservation, given cyclic_refs(final.contents, len(expected),
    params.replication): the certified pass, else the walk, target by target
    and holder by holder, then the coverage scan."""
    w = params.atom_bits
    # read once: both are properties, and the loops below ask per part
    n_origins, seg_atoms = params.n_nodes, params.segment_atoms
    # the latest build's own ints when final came from it, else one fresh walk
    content = database_content(seed, n_origins, seg_atoms * w)
    if _content_certified(expected, params, content, certificate):
        return VerificationReport(())
    # the walk: the one source of findings, so the pass never changes them
    findings: list[Finding] = []
    coverage: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, n_origins + 1)}
    for tgt in expected:
        want = offset = 0
        reported = len(findings)
        for origin, start, stop in tgt.parts:
            if origin not in coverage or not 0 <= start <= stop <= seg_atoms:
                part = f"atoms [{start}:{stop}] of segment {origin}"
                where = f"outside segments 1..{n_origins} of {seg_atoms} atoms"
                findings.append(("content", f"target segment {tgt.target} expects {part}, {where}"))
                continue
            cut = slice_atoms(content[origin - 1], start, stop, w)
            want = want | cut << offset if offset else cut
            offset += (stop - start) * w
            coverage[origin].append((start, stop))
        if len(findings) > reported:  # a bad part: no payload to compare the replicas with
            continue
        for node in tgt.holders:
            piece = final.stored(node, tgt.target)
            if piece is None:
                findings.append(
                    ("content", f"node {node} is missing target segment {tgt.target}")
                )
            elif piece.n_atoms * w != offset or piece.bits != want:
                payload = f"node {node} target segment {tgt.target} payload"
                findings.append(("content", f"{payload} does not match its source atoms"))

    for origin, spans in coverage.items():
        cursor = 0
        # an empty span at the end closes the origin: atoms short of it are lost
        for start, stop in [*sorted(spans), (seg_atoms, seg_atoms)]:
            if start != cursor:
                gap = f"origin segment {origin} atoms [{cursor}:{start}]"
                how = "duplicated" if start < cursor else "lost"
                findings.append(("content", f"{gap} {how} across targets"))
            cursor = max(cursor, stop)
    return VerificationReport(tuple(findings))


def _content_certified(
    expected: tuple[MergeRecipe, ...],
    params: SystemParams,
    content: tuple[int, ...],
    certificate: Certificate,
) -> bool:
    """True when one pass shows the run clean, so the walk would find nothing.

    Sorted, the parts tile every origin's atoms exactly once, which also puts
    each in bounds; the certificate names no deviating node; the targets are
    1..n in order; each target's holders are its window, nodes t..t+r-1
    wrapped into 1..n, ascending; and each target's reference has the
    expected size and equals its generator cuts concatenated. A certified
    node stores exactly its window of references, so every holder's piece
    equals the reference it is checked through.
    """
    refs, deviating = certificate
    n, r, w = len(expected), params.replication, params.atom_bits
    n_origins, seg_atoms = params.n_nodes, params.segment_atoms
    # each origin from atom 0 to seg_atoms, each part starting where the last
    # stopped and stopping no earlier, the origins 1..n_origins in turn
    at_origin, cursor = 1, 0
    for origin, start, stop in sorted(chain.from_iterable(tgt.parts for tgt in expected)):
        if origin != at_origin or start != cursor:
            if not (origin == at_origin + 1 and start == 0 and cursor == seg_atoms):
                return False
            at_origin = origin
        if stop < start:
            return False
        cursor = stop
    if deviating or at_origin != n_origins or cursor != seg_atoms:
        return False
    nodes = tuple(range(1, n + 1))
    for t, (target, holders, parts) in enumerate(expected, 1):
        wrapped = t + r - 1 - n  # window nodes past n, which wrap to 1..wrapped
        if wrapped <= 0:
            in_window = holders == nodes[t - 1 : t - 1 + r]
        else:
            in_window = holders[:wrapped] == nodes[:wrapped] and holders[wrapped:] == nodes[t - 1 :]
        if target != t or not in_window:
            return False
        # the cuts concatenated in turn, as the walk does
        want = offset = 0
        for origin, start, stop in parts:
            cut = slice_atoms(content[origin - 1], start, stop, w)
            want = want | cut << offset if offset else cut
            offset += (stop - start) * w
        ref = refs[t - 1]
        if ref.n_atoms * w != offset or ref.bits != want:
            return False
    return True


def verify_change(run: ChangeRun, seed: int) -> VerificationReport:
    """Shape and content check of a removal or an addition; seed is the one the
    database was built with.

    The targets are run.recipes and the node count to reach is their number,
    never taken from engine state. run.final is the database under check; its
    params, the original build's, fix atom size and total storage.
    """
    final, targets = run.final, run.recipes
    if not targets:
        raise ParameterError("a run with no targets has no layout to check")
    params = final.params
    n_nodes = len(targets)
    shape = SystemParams(
        n_nodes, params.replication, params.segment_bits * params.n_nodes // n_nodes
    )
    # both checks certify the same layout: n_nodes nodes at the build's replication
    certificate = cyclic_refs(final.contents, n_nodes, params.replication)
    return _check_shape(final, shape, certificate).merged(
        _check_content(final, targets, params, seed, certificate)
    )


def drop_broadcast(log: TransmissionLog, index: int) -> TransmissionLog:
    """Tampered copy of a log with one broadcast suppressed."""
    if not 0 <= index < len(log.broadcasts):
        raise ParameterError(f"broadcast index {index} outside the log")
    return TransmissionLog(log.params, log.broadcasts[:index] + log.broadcasts[index + 1 :])


def flip_stored_bit(db: Database, node: int, segment_index: int, bit: int) -> Database:
    """Tampered copy of a database with one stored bit inverted at one node."""
    piece = db.stored(node, segment_index)
    if piece is None:
        raise ParameterError(f"node {node} does not store segment {segment_index}")
    width = piece.n_atoms * db.params.atom_bits
    if not 0 <= bit < width:
        raise ParameterError(f"bit {bit} outside [0, {width})")
    contents = {n: dict(items) for n, items in db.contents.items()}
    contents[node][segment_index] = piece._replace(bits=piece.bits ^ (1 << bit))
    return replace(db, contents=contents)


def reorder_replica_parts(db: Database, node: int, target: MergeRecipe) -> Database:
    """Tampered copy with the first two parts of one node's replica of a target swapped."""
    piece = db.stored(node, target.target)
    if piece is None:
        raise ParameterError(f"node {node} does not store segment {target.target}")
    if len(target.parts) < 2:
        raise ParameterError(f"segment {target.target} has fewer than two parts")
    w = db.params.atom_bits
    a, b = (stop - start for _, start, stop in target.parts[:2])
    first = slice_atoms(piece.bits, 0, a, w)
    second = slice_atoms(piece.bits, a, a + b, w)
    rest = piece.bits >> ((a + b) * w)
    swapped = second | (first << (b * w)) | (rest << ((a + b) * w))
    contents = {n: dict(items) for n, items in db.contents.items()}
    contents[node][target.target] = piece._replace(bits=swapped)
    return replace(db, contents=contents)

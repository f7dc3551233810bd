"""Independent checks of a rebalanced database.

verify_cyclic_balanced checks shape: right nodes, equal per-node storage,
every segment on exactly its run of consecutive nodes, replicas bit-identical.

verify_preservation checks meaning: every target segment's payload equals the
concatenation of the original atoms it is supposed to carry (taken from the
content generator, never from engine bookkeeping: model.database_content
holds the latest build's immutable ints and walks afresh for any other), and
the targets together cover every original atom exactly once.

Each check first tries a certificate that accepts a clean layout, where a
segment's replicas are one shared piece, with C-level list compares per node
(shape) or target (content). Only if it fails does the walk run, item by
item; the walk alone produces findings, so their text and order never depend
on the certificate.

Findings name the offending node and segment, so a single suppressed
broadcast or flipped bit is traceable. verify_change runs both checks on
either membership change, against the targets of its run record: as many
nodes as targets, holding the same total storage. The fault hooks at the
bottom produce tampered copies for exercising that.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

from .bus import TransmissionLog
from .errors import ParameterError
from .model import (
    Database,
    StoredPiece,
    SystemParams,
    concat_bits,
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


def verify_cyclic_balanced(db: Database, expected: SystemParams) -> VerificationReport:
    """Shape check against an expected (node count, replication, segment bits)."""
    if _shape_certified(db, expected):
        return VerificationReport(())
    return _shape_walk(db, expected)


def _shape_certified(db: Database, expected: SystemParams) -> bool:
    """True when the layout is cyclic (cyclic_refs) and every segment has the
    expected size: every walk check follows."""
    refs = cyclic_refs(db.contents, expected.n_nodes, expected.replication)
    w, seg_bits = db.params.atom_bits, expected.segment_bits
    return refs is not None and all(ref.n_atoms * w == seg_bits for ref in refs)


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
    w = params.atom_bits
    # the latest build's own ints when final came from it, else one fresh walk
    content = database_content(seed, params.n_nodes, params.segment_atoms * w)
    findings: list[Finding] = []

    coverage: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, params.n_nodes + 1)}
    for tgt in expected:
        cuts: list[int] = []
        widths: list[int] = []
        reported = len(findings)
        for origin, start, stop in tgt.parts:
            if origin not in coverage or not 0 <= start <= stop <= params.segment_atoms:
                part = f"atoms [{start}:{stop}] of segment {origin}"
                where = f"outside segments 1..{params.n_nodes} of {params.segment_atoms} atoms"
                findings.append(("content", f"target segment {tgt.target} expects {part}, {where}"))
                continue
            cuts.append(slice_atoms(content[origin - 1], start, stop, w))
            widths.append((stop - start) * w)
            coverage[origin].append((start, stop))
        if len(findings) > reported:  # a bad part: no payload to compare the replicas with
            continue
        n_atoms = sum(widths) // w
        want = concat_bits(cuts, widths)
        # each holder's piece, None where its node or the item is missing
        node_items = map(final.contents.get, tgt.holders, repeat({}))
        pieces = list(map(dict.get, node_items, repeat(tgt.target)))
        if _content_certified(pieces, n_atoms, want):
            continue
        for node, piece in zip(tgt.holders, pieces):
            if piece is None:
                findings.append(
                    ("content", f"node {node} is missing target segment {tgt.target}")
                )
            elif piece.n_atoms != n_atoms or piece.bits != want:
                payload = f"node {node} target segment {tgt.target} payload"
                findings.append(("content", f"{payload} does not match its source atoms"))

    for origin in sorted(coverage):
        spans = sorted(coverage[origin])
        cursor = 0
        for start, stop in spans:
            if start != cursor:
                findings.append(
                    (
                        "content",
                        f"origin segment {origin} atoms [{cursor}:{start}] "
                        f"{'duplicated' if start < cursor else 'lost'} across targets",
                    )
                )
            cursor = max(cursor, stop)
        if cursor != params.segment_atoms:
            findings.append(
                (
                    "content",
                    f"origin segment {origin} atoms [{cursor}:{params.segment_atoms}] "
                    f"lost across targets",
                )
            )
    return VerificationReport(tuple(findings))


def _content_certified(pieces: list[StoredPiece | None], n_atoms: int, bits: int) -> bool:
    """True when every piece equals the first, which has the expected size and
    payload; count takes identity first, so shared pieces cost no compare."""
    first = pieces[0] if pieces else None
    same = first is not None and pieces.count(first) == len(pieces)
    return same and first.n_atoms == n_atoms and first.bits == bits


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
    return verify_cyclic_balanced(final, shape).merged(
        verify_preservation(final, targets, params, seed)
    )


def drop_broadcast(log: TransmissionLog, index: int) -> TransmissionLog:
    """Tampered copy of a log with one broadcast suppressed."""
    if not 0 <= index < len(log.broadcasts):
        raise ParameterError(f"broadcast index {index} outside the log")
    kept = [b for i, b in enumerate(log.broadcasts) if i != index]
    return TransmissionLog(params=log.params, broadcasts=kept)


def flip_stored_bit(db: Database, node: int, segment_index: int, bit: int) -> Database:
    """Tampered copy of a database with one stored bit inverted."""
    piece = db.stored(node, segment_index)
    if piece is None:
        raise ParameterError(f"node {node} does not store segment {segment_index}")
    width = piece.n_atoms * db.params.atom_bits
    if not 0 <= bit < width:
        raise ParameterError(f"bit {bit} outside [0, {width})")
    contents = {n: dict(items) for n, items in db.contents.items()}
    contents[node][segment_index] = replace(piece, bits=piece.bits ^ (1 << bit))
    return replace(db, contents=contents)


def reorder_replica_parts(db: Database, node: int, target: MergeRecipe) -> Database:
    """Tampered copy with the first two parts of one replica of a target swapped."""
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
    contents[node][target.target] = replace(piece, bits=swapped)
    return replace(db, contents=contents)

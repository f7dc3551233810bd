"""Core data model: parameters, cyclic index arithmetic, labels, databases.

A database stores N equal-size segments over N nodes so that segment i is
replicated on the r cyclically consecutive nodes starting at node i. Segment
payloads are deterministic functions of (seed, segment index), generated in
counter mode, so any component can recompute expected content independently.

Bit layout convention: a segment of n atoms is a Python int whose bits are
LSB-first, atom o occupying bit offsets [o * atom_bits, (o + 1) * atom_bits).
Concatenation "A | B" therefore places A at the low end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ParameterError, UnsupportedConfigError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEGMENT_SALT = 0xD1342543DE82EF95


@dataclass(frozen=True)
class SystemParams:
    """Parameters of a replicated cyclic store: node count, replication, segment bits."""

    n_nodes: int
    replication: int
    segment_bits: int

    def validate(self) -> None:
        """Range and divisibility checks for building a fresh database.

        Derived databases (after a node change) keep the original atom size, so
        their shapes are described by plain SystemParams instances without
        calling validate.
        """
        k, r, t = self.n_nodes, self.replication, self.segment_bits
        if k < 3:
            raise ParameterError(f"need at least 3 nodes, got {k}")
        if not 2 <= r <= k - 1:
            raise ParameterError(f"replication {r} outside [2, {k - 1}]")
        if t < 1:
            raise ParameterError(f"segment size {t} must be positive")
        if t % (2 * (k * k - 1)) != 0:
            raise ParameterError(
                f"segment size {t} not divisible by 2*(K^2-1) = {2 * (k * k - 1)}"
            )

    def require_removal_support(self) -> None:
        # the removal protocol needs r >= 3: with r = 2 the split pieces
        # cannot be paired into decodable broadcasts
        if self.replication == 2:
            raise UnsupportedConfigError(
                "node removal requires replication >= 3; "
                "replication 2 has no coded removal protocol"
            )

    @property
    def atom_bits(self) -> int:
        return self.segment_bits // (2 * (self.n_nodes**2 - 1))

    @property
    def segment_atoms(self) -> int:
        # 2*(K-1)*(K+1) atoms per segment
        return 2 * (self.n_nodes - 1) * (self.n_nodes + 1)

    @property
    def half_unit_atoms(self) -> int:
        # split piece sizes are integer multiples of T / (2*(K-1))
        return self.n_nodes + 1


def default_params(n_nodes: int, replication: int, t_mult: int = 1) -> SystemParams:
    """Smallest valid segment size (one bit per atom), scaled by t_mult."""
    if t_mult < 1:
        raise ParameterError(f"t_mult {t_mult} must be >= 1")
    return SystemParams(n_nodes, replication, 2 * (n_nodes**2 - 1) * t_mult)


def box_plus(i: int, j: int, modulus: int) -> int:
    """Wrapping sum on node labels [1..modulus]: i + j, minus modulus if above."""
    _check_label_arg(i, modulus)
    _check_label_arg(j, modulus)
    s = i + j
    return s - modulus if s > modulus else s


def box_minus(i: int, j: int, modulus: int) -> int:
    """Wrapping difference on node labels [1..modulus]: i - j, plus modulus if at or below zero."""
    _check_label_arg(i, modulus)
    _check_label_arg(j, modulus)
    d = i - j
    return d + modulus if d <= 0 else d


def _check_label_arg(v: int, modulus: int) -> None:
    if not 1 <= v <= modulus:
        raise ParameterError(f"label {v} outside [1, {modulus}]")


def cyclic_range(start: int, count: int, modulus: int) -> tuple[int, ...]:
    """count consecutive labels starting at start, wrapping within [1..modulus]."""
    if not 1 <= start <= modulus:
        raise ParameterError(f"label {start} outside [1, {modulus}]")
    if not 0 <= count <= modulus:
        raise ParameterError(f"count {count} outside [0, {modulus}]")
    return tuple((start - 1 + o) % modulus + 1 for o in range(count))


def storage_set(index: int, n_nodes: int, replication: int) -> frozenset[int]:
    """Nodes holding segment index: the replication consecutive nodes from index."""
    return frozenset(cyclic_range(index, replication, n_nodes))


def relabel_for_removed_node(label: int, removed: int, n_nodes: int) -> int:
    """Map a label from the canonical remove-the-last-node frame to the actual frame.

    The protocol is specified for removing node n_nodes; removing node
    `removed` instead shifts every label so the removed node plays the last
    node's role. Identity when removed == n_nodes.
    """
    if removed == n_nodes:
        _check_label_arg(label, n_nodes)
        return label
    return box_minus(label, n_nodes - removed, n_nodes)


@dataclass(frozen=True)
class SegmentLabel:
    """A whole segment: W_index in the original layout or the rebuilt one."""

    index: int
    generation: str = "original"  # "original" | "target"

    def describe(self) -> str:
        return f"W~_{self.index}" if self.generation == "target" else f"W_{self.index}"


@dataclass(frozen=True)
class SubsegmentLabel:
    """A contiguous piece of an original segment.

    superscript is the sorted set of nodes the piece is addressed to (the
    nodes that must end up knowing it). The atom range pins the piece
    physically; two pieces of one segment can share a superscript, so identity
    is (base index, atom range), never the superscript.
    """

    base: SegmentLabel
    superscript: tuple[int, ...]
    atom_start: int
    atom_stop: int

    @property
    def size_atoms(self) -> int:
        return self.atom_stop - self.atom_start

    def describe(self) -> str:
        sup = ",".join(str(n) for n in self.superscript)
        return f"{self.base.describe()}^{{{sup}}}[{self.atom_start}:{self.atom_stop}]"


Label = SegmentLabel | SubsegmentLabel


@dataclass(frozen=True)
class Atom:
    """Unit of content accounting: one atom of one original segment."""

    origin_segment: int
    offset: int
    payload: int


def _mix64(x: int) -> int:
    # splitmix64 finalizer: full-period 64-bit mixing
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@lru_cache(maxsize=4096)
def segment_content(seed: int, index: int, n_bits: int) -> int:
    """Deterministic pseudo-random payload of segment `index`, LSB-first."""
    state = (seed * _GOLDEN + index * _SEGMENT_SALT) & _M64
    n_blocks = (n_bits + 63) // 64
    buf = b"".join(
        _mix64(state + blk * _GOLDEN).to_bytes(8, "little") for blk in range(n_blocks)
    )
    return int.from_bytes(buf, "little") & ((1 << n_bits) - 1)


def atom_payload(seed: int, origin_segment: int, offset: int, atom_bits: int, segment_atoms: int) -> Atom:
    """Content oracle for a single atom; pure in (seed, origin, offset)."""
    seg = segment_content(seed, origin_segment, segment_atoms * atom_bits)
    payload = (seg >> (offset * atom_bits)) & ((1 << atom_bits) - 1)
    return Atom(origin_segment, offset, payload)


def slice_atoms(bits: int, start: int, stop: int, atom_bits: int) -> int:
    """Extract atoms [start, stop) from an LSB-first payload."""
    width = (stop - start) * atom_bits
    return (bits >> (start * atom_bits)) & ((1 << width) - 1)


# provenance entry: (origin segment index, atom start, atom stop)
AtomRange = tuple[int, int, int]


@dataclass(frozen=True)
class StoredPiece:
    """One stored item at a node: its label, size, payload, and atom origins."""

    label: Label
    n_atoms: int
    bits: int
    provenance: tuple[AtomRange, ...]


@dataclass
class Database:
    """Snapshot of what every node stores.

    params are always those of the original build (they fix the atom size and
    the load unit); n_nodes and segment_atoms describe the current layout,
    which differs from params after a rebalance.
    """

    params: SystemParams
    seed: int
    n_nodes: int
    generation: str
    segment_atoms: int
    contents: dict[int, dict[Label, StoredPiece]] = field(default_factory=dict)

    def stored(self, node: int, label: Label) -> StoredPiece | None:
        return self.contents.get(node, {}).get(label)

    def segment_bits_at(self, node: int, index: int) -> int | None:
        piece = self.stored(node, SegmentLabel(index, self.generation))
        return piece.bits if piece else None

    def total_stored_atoms(self) -> int:
        return sum(p.n_atoms for items in self.contents.values() for p in items.values())


def build_cyclic_database(params: SystemParams, seed: int = 0) -> Database:
    """Fresh database: segment i on nodes i..i+r-1 (cyclic), content from the generator."""
    params.validate()
    k, r = params.n_nodes, params.replication
    n_atoms = params.segment_atoms
    n_bits = n_atoms * params.atom_bits
    contents: dict[int, dict[Label, StoredPiece]] = {n: {} for n in range(1, k + 1)}
    for i in range(1, k + 1):
        piece = StoredPiece(
            label=SegmentLabel(i),
            n_atoms=n_atoms,
            bits=segment_content(seed, i, n_bits),
            provenance=((i, 0, n_atoms),),
        )
        for node in storage_set(i, k, r):
            contents[node][piece.label] = piece
    # keep each node's segments in ascending index order for stable iteration
    ordered = {
        n: dict(sorted(items.items(), key=lambda kv: kv[0].index))
        for n, items in contents.items()
    }
    return Database(
        params=params,
        seed=seed,
        n_nodes=k,
        generation="original",
        segment_atoms=n_atoms,
        contents=ordered,
    )

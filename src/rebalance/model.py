"""Core data model: parameters, cyclic index arithmetic, labels, databases.

A database stores N equal-size segments over N nodes so that segment i is
replicated on the r cyclically consecutive nodes starting at node i. Storage
is keyed by plain segment indices; labels name pieces on the bus, not stored
items. Segment payloads are deterministic functions of (seed, segment index),
generated in counter mode, so any component can recompute expected content
independently.
The stream is splitmix64: block b of a segment is the finalizer applied to
state + b * golden. It is evaluated lane-packed, all blocks of a segment at
once in 128-bit lanes of one int (even blocks, a gap lane, odd blocks), which
gives the same bits as a per-block loop at a fraction of the interpreter work.
A segment's state is the previous segment's plus a fixed salt, so a build
generates its N segments in one walk, stepping one lane-packed counter by one
add per segment, and keeps them as the one cached database content that its
verifier reads back.

Bit layout convention: a segment of n atoms is a Python int whose bits are
LSB-first, atom o occupying bit offsets [o * atom_bits, (o + 1) * atom_bits).
Concatenation "A | B" therefore places A at the low end.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import is_
from typing import NamedTuple

from .errors import ParameterError, UnsupportedConfigError

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEGMENT_SALT = 0xD1342543DE82EF95
# the most content bits, K * segment_bits, a fresh database may hold: 128 MiB
# of distinct payload, over eight times that of remove --k 400, so a mistyped
# size is rejected before any content is generated
MAX_CONTENT_BITS = 1 << 30


@dataclass(frozen=True)
class SystemParams:
    """Parameters of a replicated cyclic store: node count, replication, segment bits."""

    n_nodes: int
    replication: int
    segment_bits: int

    def validate(self) -> None:
        """Range, divisibility and size checks for building a fresh database.

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
        if k * t > MAX_CONTENT_BITS:
            raise ParameterError(
                f"content of K*T = {k * t} bits is over the bound of {MAX_CONTENT_BITS} bits"
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


def cyclic_range(start: int, count: int, modulus: int) -> tuple[int, ...]:
    """count consecutive labels starting at start, wrapping within [1..modulus]."""
    if not 1 <= start <= modulus:
        raise ParameterError(f"label {start} outside [1, {modulus}]")
    if not 0 <= count <= modulus:
        raise ParameterError(f"count {count} outside [0, {modulus}]")
    # tuples from ranges are allocated at their final size; tuple(generator)
    # guesses a size and shrinks, which strands tuples on CPython's free lists
    stop = start + count
    if stop <= modulus + 1:
        return tuple(range(start, stop))
    return tuple(range(start, modulus + 1)) + tuple(range(1, stop - modulus))


def cyclic_mask(start: int, count: int, modulus: int) -> int:
    """cyclic_range(start, count, modulus) as an int with bit x set for each
    label x; unchecked, for hot loops."""
    stop = start + count
    if stop <= modulus + 1:
        return (1 << stop) - (1 << start)
    return ((1 << modulus + 1) - (1 << start)) | ((1 << stop - modulus) - 2)


def sorted_cyclic_range(start: int, count: int, modulus: int) -> tuple[int, ...]:
    """The labels of cyclic_range(start, count, modulus) in ascending order,
    built from its spans without a sort; unchecked, for hot loops."""
    stop = start + count
    if stop <= modulus + 1:
        return tuple(range(start, stop))
    return tuple(range(1, stop - modulus)) + tuple(range(start, modulus + 1))


def storage_set(index: int, n_nodes: int, replication: int) -> frozenset[int]:
    """Nodes holding segment index: the replication consecutive nodes from index."""
    return frozenset(cyclic_range(index, replication, n_nodes))


class SubsegmentLabel(NamedTuple):
    """A contiguous piece of an original segment.

    superscript is the sorted set of nodes the piece is addressed to (the
    nodes that must end up knowing it). The atom range pins the piece
    physically; two pieces of one segment can share a superscript, so identity
    is (base index, atom range), never the superscript.
    """

    base: int  # original segment index
    superscript: tuple[int, ...]
    atom_start: int
    atom_stop: int

    @property
    def size_atoms(self) -> int:
        return self.atom_stop - self.atom_start

    def describe(self) -> str:
        sup = ",".join(str(n) for n in self.superscript)
        return f"W_{self.base}^{{{sup}}}[{self.atom_start}:{self.atom_stop}]"


@lru_cache(maxsize=32)
def _lane_constants(n_bits: int) -> tuple[int, ...]:
    """Per-size constants for an n_bits segment's 128-bit lanes: (ones, ramp,
    low-64 mask, odd shift, segment step, block mask, low-33 mask, truncation mask)."""
    n_blocks = (n_bits + 63) // 64
    h = (n_blocks + 1) // 2
    one = b"\x01" + bytes(15)
    # lanes: even blocks, an all-zero gap lane, odd blocks
    ones = int.from_bytes(one * h + bytes(16) + one * (n_blocks // 2), "little")
    steps = [((b * _GOLDEN) & _M64).to_bytes(16, "little") for b in range(n_blocks)]
    ramp = int.from_bytes(b"".join([*steps[::2], bytes(16), *steps[1::2]]), "little")
    low33 = int.from_bytes(b"\xff\xff\xff\xff\x01\x00\x00\x00" * n_blocks, "little")
    # the salt is below 2^64, so its product with ones carries into no lane
    step = ones * _SEGMENT_SALT
    blocks = (1 << 64 * n_blocks) - 1
    return ones, ramp, ones * _M64, 128 * h + 64, step, blocks, low33, (1 << n_bits) - 1


def _content_walk(seed: int, first: int, count: int, n_bits: int) -> list[int]:
    """Payloads of segments first..first+count-1, stepping one lane-packed counter.

    64-bit block b of segment i is the splitmix64 finalizer of state_i + b *
    golden (mod 2^64), state_i = seed * golden + i * salt. All blocks of a
    segment are mixed at once, each in the low half of a 128-bit lane of one
    int: even blocks 0, 2, ... in lanes 0..h-1 (h = ceil(n_blocks / 2)), an
    all-zero gap lane, then odd blocks 1, 3, .... Segment i's counter lanes are
    segment i-1's plus the salt, so one add steps the counter from one segment
    to the next. The lane mask clears each lane's high half after every step
    that could spill into it (a carry, a product, or the bits `>>` pulls down
    from the next lane).

    Before the finalizer's last xor-shift the blocks are packed: even block 2j
    is at bit 128j, within the block mask, and one shift past the gap puts odd
    block 2j+1 at 128j+64. The packed int is half as wide as the lanes, and the
    low-33 mask keeps the last xor-shift inside each 64-bit block. The
    truncation to n_bits drops the last block's tail.
    """
    ones, ramp, mask, shift, step, blocks, low33, trunc = _lane_constants(n_bits)
    # the counter of segment first - 1; the loop steps before it mixes
    c = (((seed * _GOLDEN + (first - 1) * _SEGMENT_SALT) & _M64) * ones + ramp) & mask
    out = []
    for _ in range(count):
        c = (c + step) & mask
        x = (((c ^ (c >> 30)) & mask) * 0xBF58476D1CE4E5B9) & mask
        x = (((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB) & mask
        x = (x & blocks) | (x >> shift)
        out.append((x ^ ((x >> 31) & low33)) & trunc)
    return out


def segment_content(seed: int, index: int, n_bits: int) -> int:
    """Deterministic pseudo-random payload of segment `index`, LSB-first.

    Uncached: the content of a whole database comes from database_content,
    which generates its segments in one walk and keeps the latest build.
    """
    return _content_walk(seed, index, 1, n_bits)[0]


@lru_cache(maxsize=1)
def database_content(seed: int, n: int, n_bits: int) -> tuple[int, ...]:
    """Payloads of segments 1..n, entry i-1 being segment_content(seed, i, n_bits).

    The one cached content: build_cyclic_database fills it, so the verifier of
    the latest build indexes the very ints the build stored, and checking an
    older database runs one fresh walk in its place.
    """
    return tuple(_content_walk(seed, 1, n, n_bits))


# masks of the widths cut lately, keyed by width, at most 32: a cut at K=240
# costs several times less with its mask built once. A plain dict, because an
# lru_cache hit costs more than building a mask of a few hundred bits; it is a
# memo of a pure function, so clearing it, or a race on it, changes no result
_MASKS: dict[int, int] = {}


def _new_mask(width: int) -> int:
    if len(_MASKS) >= 32:
        _MASKS.clear()
    mask = _MASKS[width] = (1 << width) - 1
    return mask


def slice_atoms(bits: int, start: int, stop: int, atom_bits: int) -> int:
    """Extract atoms [start, stop) from an LSB-first payload; the whole payload is
    returned as it is, not copied, since it shifts and masks only when needed."""
    width = (stop - start) * atom_bits
    if start:
        bits >>= start * atom_bits
    if bits >= 0 and bits.bit_length() <= width:
        return bits
    try:
        return bits & _MASKS[width]
    except KeyError:
        return bits & _new_mask(width)


def concat_bits(parts: list[int], widths: list[int]) -> int:
    """parts[0] | parts[1] << widths[0] | parts[2] << (widths[0] + widths[1]) ...

    Adjacent parts are merged pairwise while more than eight remain, so a bit
    is copied about log2(len(parts)) times, not once per later part as when
    one int takes every part in turn; the last few are taken in turn, which
    costs less interpreter work for a target of two or three parts.
    """
    while len(parts) > 8:
        merged = [lo | (hi << w) for lo, hi, w in zip(parts[::2], parts[1::2], widths[::2])]
        merged_widths = [a + b for a, b in zip(widths[::2], widths[1::2])]
        if len(parts) % 2:
            merged.append(parts[-1])
            merged_widths.append(widths[-1])
        parts, widths = merged, merged_widths
    if not parts:
        return 0
    bits, offset = parts[0], widths[0]
    for part, width in zip(parts[1:], widths[1:]):
        bits |= part << offset
        offset += width
    return bits


class StoredPiece(NamedTuple):
    """One stored segment at a node: its size and payload. A named tuple, so it
    equals and hashes as (n_atoms, bits); the fault hooks tamper by _replace."""

    n_atoms: int
    bits: int


@dataclass
class Database:
    """Snapshot of what every node stores.

    contents maps node -> segment index -> stored segment, both plain ints.
    params are always those of the original build (they fix the atom size and
    the load unit); n_nodes is the current node count, which differs from
    params after a rebalance. Total storage never changes, so the layout's
    generation and segment size follow from the two.
    """

    params: SystemParams
    n_nodes: int
    contents: dict[int, dict[int, StoredPiece]] = field(default_factory=dict)

    @property
    def generation(self) -> str:
        # "original" for a fresh build, "target" after a rebalance
        return "original" if self.n_nodes == self.params.n_nodes else "target"

    @property
    def segment_atoms(self) -> int:
        return self.params.segment_atoms * self.params.n_nodes // self.n_nodes

    def stored(self, node: int, index: int) -> StoredPiece | None:
        return self.contents.get(node, _NOTHING).get(index)


# empty node contents for lookups at a node that stores nothing; never written
_NOTHING: dict[int, StoredPiece] = {}


def cyclic_layout(pieces: list[StoredPiece], r: int) -> dict[int, dict[int, StoredPiece]]:
    """Contents of n = len(pieces) nodes holding segment i's piece pieces[i-1] on
    nodes i..i+r-1 (cyclic), 1 <= r <= n: node m stores segments m-r+1..m, in
    ascending index order, each one the same piece object at all its holders.

    The windows are built by C-level dict copies, not by one insert per (node,
    segment). Node m > r's window is node m-1's copy less segment m-r plus
    segment m. A node m <= r joins a head, segments 1..m, grown by one segment
    per node, with a tail, segments n-r+m+1..n, shrunk by one. A copy keeps
    its source's hash table; once the table's spare slots are used up, the next
    insert grows it to three times its entries. A window whose table outgrew
    that of a dict built one insert at a time is rebuilt that way, so no node
    holds more than a per-window dict(zip(...)) would.
    """
    n = len(pieces)
    if not 1 <= r <= n:
        raise ParameterError(f"replication {r} outside [1, {n}]")
    fresh = sys.getsizeof(dict(zip(range(r), pieces)))
    head: dict[int, StoredPiece] = {}
    tail = dict(zip(range(n - r + 1, n + 1), pieces[n - r :]))
    contents: dict[int, dict[int, StoredPiece]] = {}
    for m in range(1, n + 1):
        if m <= r:
            head[m] = pieces[m - 1]
            del tail[n - r + m]
            node = head | tail
        else:
            node = node.copy()
            del node[m - r]
            node[m] = pieces[m - 1]
        if sys.getsizeof(node) > fresh:
            node = dict(node.items())
        contents[m] = node
    return contents


def cyclic_refs(
    contents: dict[int, dict[int, StoredPiece]], n: int, r: int
) -> tuple[list[StoredPiece | None], set[int]]:
    """(refs, deviating): the one certificate of the cyclic layout of n nodes.

    refs[i-1] is node i's piece of segment i, the reference every other
    holder of segment i is compared with, or None where node i lacks it.
    deviating is the set of nodes that do not store exactly their window of r
    refs (node m: segments m-r+1..m, cyclic), plus every node outside 1..n; a
    missing ref puts every node of its window there. The layout is certified
    when deviating is empty. Node i's own piece is the reference, so damage
    to it lists the other r-1 holders of segment i, not node i.

    Replicas need only be equal, not shared. One window dict, slid one
    segment per node, is compared with each node's contents by one dict ==,
    which checks the length and then each key's value, identity first, so
    shared replicas cost no payload compare and the order a node stores its
    window in does not matter.
    """
    segments = range(1, n + 1)
    refs = [contents.get(i, _NOTHING).get(i) for i in segments]
    deviating = contents.keys() - segments
    if not 1 <= r <= n:
        return refs, deviating.union(segments)
    # by identity: `None in refs` would compare each piece with None
    if any(map(is_, refs, repeat(None))):
        for i in segments:
            if refs[i - 1] is None:
                deviating.update(cyclic_range(i, r, n))
    # node 0's window, segments n-r+1..n; node m's drops segment m-r (cyclic)
    # and adds segment m
    window = dict(zip(range(n - r + 1, n + 1), refs[n - r :]))
    for m in segments:
        del window[m - r if m > r else n - r + m]
        window[m] = refs[m - 1]
        if contents.get(m) != window:
            deviating.add(m)
    return refs, deviating


def build_cyclic_database(params: SystemParams, seed: int = 0) -> Database:
    """Fresh database: segment i on nodes i..i+r-1 (cyclic), content from the generator."""
    params.validate()
    n_atoms = params.segment_atoms
    n_bits = n_atoms * params.atom_bits
    # the cache holds one database's content: drop the last build's before this
    # one is generated, so the two are never held at once
    database_content.cache_clear()
    pieces = [
        StoredPiece(n_atoms, bits) for bits in database_content(seed, params.n_nodes, n_bits)
    ]
    return Database(params, params.n_nodes, cyclic_layout(pieces, params.replication))

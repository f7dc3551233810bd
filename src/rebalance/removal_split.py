"""Segment splitting for node removal.

When a node leaves, the r segments it held must be spread over the K-1
survivors in cyclic layout with segment size K/(K-1) * T. Each affected
segment is cut into contiguous pieces; a piece's superscript names the
survivors that must learn it. Piece sizes are integer multiples of the half
unit T / (2*(K-1)), which is K+1 atoms.

The cutting rules are written for the canonical case "last node removed".
Removing node m instead relabels every node and segment index by the cyclic
shift that maps m onto the last position. make_split_plan computes that map
once, and each piece is built straight in actual labels through it.

Piece identity is physical: (base segment, atom range). At replication K-1
the two pieces of a corner segment can carry the same superscript, so nothing
may address pieces by superscript alone; consumers pick pieces by role:
SplitPlan.opening and SplitPlan.closing name the two pieces that make up
each regrown target, and the corners' broadcast batches hold the rest.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ParameterError
from .model import (
    SubsegmentLabel,
    SystemParams,
    cyclic_range,
    relabel_for_removed_node,
)


@dataclass(frozen=True)
class CornerSplit:
    """Split of one of the two outermost affected segments.

    big covers most of the segment and stays addressed to a single survivor.
    tiny (present only when K-r is odd) is one half unit; pairs are two half
    units each, addressed to runs of min(r, j) survivors.
    """

    big: SubsegmentLabel
    tiny: SubsegmentLabel | None
    pairs: tuple[SubsegmentLabel, ...]

    def listed(self) -> tuple[SubsegmentLabel, ...]:
        out = [self.big]
        if self.tiny is not None:
            out.append(self.tiny)
        out.extend(self.pairs)
        return tuple(out)

    def broadcast_batch(self) -> tuple[SubsegmentLabel, ...]:
        # everything except big is transmitted uncoded by the corner's sender
        return self.listed()[1:]


@dataclass(frozen=True)
class SplitPlan:
    """All pieces for one removal, labeled in the actual (unshifted) frame.

    middles[i-1] holds the two pieces of canonical segment K-r+1+i for
    i in [1..r-2], order (first, second) = (leading atoms, trailing atoms).
    low_corner splits canonical segment K-r+1, high_corner canonical K.
    """

    params: SystemParams
    removed: int
    middles: tuple[tuple[SubsegmentLabel, SubsegmentLabel], ...]
    low_corner: CornerSplit
    high_corner: CornerSplit

    @property
    def pair_count(self) -> int:
        return len(self.low_corner.pairs)

    def to_actual(self, canonical: int) -> int:
        """Map a canonical node or segment label to the actual frame."""
        return relabel_for_removed_node(canonical, self.removed, self.params.n_nodes)

    def opening(self, s: int) -> SubsegmentLabel:
        """Piece of canonical segment s that opens target s, for s in [K-r+1, K-1].

        The low corner's big piece for s = K-r+1, else middle s's first piece.
        """
        k, r = self.params.n_nodes, self.params.replication
        if not k - r + 1 <= s <= k - 1:
            raise ParameterError(f"opening segment {s} outside [{k - r + 1}, {k - 1}]")
        return self.low_corner.big if s == k - r + 1 else self.middles[s - (k - r + 2)][0]

    def closing(self, s: int) -> SubsegmentLabel:
        """Piece of canonical segment s that closes target s-1, for s in [K-r+2, K].

        The high corner's big piece for s = K (physically the leading atoms of
        W_K), else middle s's second piece.
        """
        k, r = self.params.n_nodes, self.params.replication
        if not k - r + 2 <= s <= k:
            raise ParameterError(f"closing segment {s} outside [{k - r + 2}, {k}]")
        return self.high_corner.big if s == k else self.middles[s - (k - r + 2)][1]

    def all_pieces(self) -> tuple[SubsegmentLabel, ...]:
        out = list(self.low_corner.listed())
        for first, second in self.middles:
            out.extend((first, second))
        out.extend(self.high_corner.listed())
        return tuple(out)


def _desc_cyclic_range(start: int, count: int, modulus: int) -> tuple[int, ...]:
    # count consecutive labels walking downward from start, wrapping in [1..modulus]
    return tuple([(start - 1 - o) % modulus + 1 for o in range(count)])


def _piece(
    actual: Sequence[int],
    base: int,
    superscript: tuple[int, ...],
    start_hu: int,
    size_hu: int,
    hu: int,
) -> SubsegmentLabel:
    # base and superscript are canonical labels; actual[c] is c's actual label
    return SubsegmentLabel(
        base=actual[base],
        superscript=tuple(sorted([actual[s] for s in superscript])),
        atom_start=start_hu * hu,
        atom_stop=(start_hu + size_hu) * hu,
    )


def split_middle(
    i: int, params: SystemParams, actual: Sequence[int]
) -> tuple[SubsegmentLabel, SubsegmentLabel]:
    """Two pieces of canonical middle segment K-r+1+i, for i in [1..r-2],
    labelled through actual (actual[c] is canonical label c's actual label).

    The piece listed first, addressed to survivor i+1, takes the leading
    K+r-2i-2 half units; the piece for survivor i+K-r takes the trailing
    K-r+2i half units.
    """
    k, r = params.n_nodes, params.replication
    if not 1 <= i <= r - 2:
        raise ParameterError(f"middle index {i} outside [1, {r - 2}]")
    hu = params.half_unit_atoms
    base = k - r + 1 + i
    first_hu = k + r - 2 * i - 2
    first = _piece(actual, base, (i + 1,), 0, first_hu, hu)
    second = _piece(actual, base, (i + k - r,), first_hu, k - r + 2 * i, hu)
    return first, second


def split_corners(params: SystemParams, actual: Sequence[int]) -> tuple[CornerSplit, CornerSplit]:
    """Splits of canonical segments K-r+1 (low) and K (high), labelled
    through actual as in split_middle.

    Listing order fixes the atom layout: big first, then tiny when K-r is
    odd, then pairs j = 1..p with p = floor((K-r)/2). The two corners mirror
    each other: the low corner walks superscripts upward from the survivors
    just after the gap, the high corner walks downward from those before it.
    """
    k, r = params.n_nodes, params.replication
    hu = params.half_unit_atoms
    gap = k - r
    p = gap // 2
    odd = gap % 2 == 1

    def build(base: int, big_sup: tuple[int, ...], tiny_sup: tuple[int, ...] | None,
              pair_sup: list[tuple[int, ...]]) -> CornerSplit:
        cursor = 0
        big = _piece(actual, base, big_sup, cursor, k + r - 2, hu)
        cursor += k + r - 2
        tiny = None
        if tiny_sup is not None:
            tiny = _piece(actual, base, tiny_sup, cursor, 1, hu)
            cursor += 1
        pairs = []
        for sup in pair_sup:
            pairs.append(_piece(actual, base, sup, cursor, 2, hu))
            cursor += 2
        return CornerSplit(big, tiny, tuple(pairs))

    low_tiny = cyclic_range(gap - p, min(r, p + 1), k - 1) if odd else None
    low_pairs = [cyclic_range(gap + 1 - j, min(r, j), k - 1) for j in range(1, p + 1)]
    low = build(k - r + 1, (1,), low_tiny, low_pairs)

    high_tiny = _desc_cyclic_range(r + p, min(r, p + 1), k - 1) if odd else None
    high_pairs = [_desc_cyclic_range(r - 1 + j, min(r, j), k - 1) for j in range(1, p + 1)]
    high = build(k, (k - 1,), high_tiny, high_pairs)
    return low, high


def make_split_plan(params: SystemParams, removed: int) -> SplitPlan:
    """Full piece layout for removing node `removed`, in actual labels."""
    params.validate()
    params.require_removal_support()
    k, r = params.n_nodes, params.replication
    if not 1 <= removed <= k:
        raise ParameterError(f"removed node {removed} outside [1, {k}]")

    # canonical label c -> actual label, for c in 1..k; index 0 is unused
    actual = [0] + [relabel_for_removed_node(c, removed, k) for c in range(1, k + 1)]
    middles = tuple([split_middle(i, params, actual) for i in range(1, r - 1)])
    low, high = split_corners(params, actual)
    return SplitPlan(
        params=params, removed=removed, middles=middles, low_corner=low, high_corner=high
    )

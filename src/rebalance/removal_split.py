"""Segment splitting for node removal.

When a node leaves, the r segments it held must be spread over the K-1
survivors in cyclic layout with segment size K/(K-1) * T. Each affected
segment is cut into contiguous pieces; a piece's superscript names the
survivors that must learn it. Piece sizes are integer multiples of the half
unit T / (2*(K-1)), which is K+1 atoms.

The cutting rules are written for the canonical case "last node removed".
Removing node m instead relabels every node and segment index by the cyclic
shift that maps m onto the last position. make_split_plan computes that map
once, and each piece is built straight in actual labels through it: a
superscript is a run of canonical survivors that never wraps, so its sorted
actual labels are at most two ranges (actual_survivors).

Piece identity is physical: (base segment, atom range). At replication K-1
the two pieces of a corner segment can carry the same superscript, so nothing
may address pieces by superscript alone; consumers pick pieces by role:
SplitPlan.openings and SplitPlan.closings list the two pieces that make up
each regrown target, and the corners' broadcast batches hold the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        return (self.big, *self.broadcast_batch())

    def broadcast_batch(self) -> tuple[SubsegmentLabel, ...]:
        # everything except big is transmitted uncoded by the corner's sender
        return self.pairs if self.tiny is None else (self.tiny, *self.pairs)


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

    def to_actual(self, canonical: int) -> int:
        """Map a canonical node or segment label to the actual frame."""
        return relabel_for_removed_node(canonical, self.removed, self.params.n_nodes)

    @cached_property
    def openings(self) -> tuple[SubsegmentLabel, ...]:
        """The pieces of canonical segments K-r+1..K-1 that open targets K-r+1..K-1:
        the low corner's big piece, then each middle's first piece."""
        return (self.low_corner.big, *[first for first, _ in self.middles])

    @cached_property
    def closings(self) -> tuple[SubsegmentLabel, ...]:
        """The pieces of canonical segments K-r+2..K that close targets K-r+1..K-1:
        each middle's second piece, then the high corner's big piece (physically
        the leading atoms of W_K)."""
        return (*[second for _, second in self.middles], self.high_corner.big)

    def opening(self, s: int) -> SubsegmentLabel:
        """Piece of canonical segment s that opens target s, for s in [K-r+1, K-1]."""
        k, r = self.params.n_nodes, self.params.replication
        if not k - r + 1 <= s <= k - 1:
            raise ParameterError(f"opening segment {s} outside [{k - r + 1}, {k - 1}]")
        return self.openings[s - (k - r + 1)]

    def closing(self, s: int) -> SubsegmentLabel:
        """Piece of canonical segment s that closes target s-1, for s in [K-r+2, K]."""
        k, r = self.params.n_nodes, self.params.replication
        if not k - r + 2 <= s <= k:
            raise ParameterError(f"closing segment {s} outside [{k - r + 2}, {k}]")
        return self.closings[s - (k - r + 2)]

    def all_pieces(self) -> tuple[SubsegmentLabel, ...]:
        middles = [piece for pair in self.middles for piece in pair]
        return (*self.low_corner.listed(), *middles, *self.high_corner.listed())


def actual_survivors(lo: int, hi: int, removed: int, n: int) -> tuple[int, ...]:
    """Sorted actual labels of canonical survivors lo..hi-1, for
    1 <= lo <= hi <= n; unchecked, for the planner's loops.

    Canonical c maps to c + removed for c <= n - removed and to
    c - (n - removed) above, so the run splits into at most two ranges.
    """
    d = n - removed
    if hi <= d + 1:
        return tuple(range(lo + removed, hi + removed))
    if lo > d:
        return tuple(range(lo - d, hi - d))
    return tuple(range(1, hi - d)) + tuple(range(lo + removed, n + 1))


def make_split_plan(params: SystemParams, removed: int) -> SplitPlan:
    """Full piece layout for removing node `removed`, in actual labels.

    Piece sizes are in half units (hu atoms). Middle K-r+1+i gives its leading
    K+r-2i-2 half units to survivor i+1 and its trailing K-r+2i to survivor
    i+K-r. Each corner lists big (K+r-2 half units, to survivor 1 for the low
    corner and K-1 for the high one), then tiny when K-r is odd, then pairs
    j = 1..p with p = floor((K-r)/2). The corners mirror each other: the low
    corner's superscripts run upward from the survivors just after the gap,
    the high corner's downward from those before it. No superscript wraps.
    """
    params.validate()
    params.require_removal_support()
    k, r = params.n_nodes, params.replication
    if not 1 <= removed <= k:
        raise ParameterError(f"removed node {removed} outside [1, {k}]")

    hu = params.half_unit_atoms
    gap = k - r
    p = gap // 2
    # canonical label c -> actual label, for c in 1..k; index 0 is unused
    actual = (0, *cyclic_range(removed % k + 1, k, k))
    middles = []
    for i in range(1, r - 1):
        base = actual[gap + 1 + i]
        cut = (k + r - 2 * i - 2) * hu
        middles.append((
            SubsegmentLabel(base, (actual[i + 1],), 0, cut),
            SubsegmentLabel(base, (actual[i + gap],), cut, params.segment_atoms),
        ))
    low, high = actual[gap + 1], actual[k]
    start = (k + r - 2) * hu
    low_big = SubsegmentLabel(low, (actual[1],), 0, start)
    high_big = SubsegmentLabel(high, (actual[k - 1],), 0, start)
    low_tiny = high_tiny = None
    if gap % 2:
        # survivors gap-p.. upward and r+p.. downward, min(r, p+1) of each
        count = min(r, p + 1)
        stop = start + hu
        low_sup = actual_survivors(gap - p, gap - p + count, removed, k)
        low_tiny = SubsegmentLabel(low, low_sup, start, stop)
        high_sup = actual_survivors(r + p + 1 - count, r + p + 1, removed, k)
        high_tiny = SubsegmentLabel(high, high_sup, start, stop)
        start = stop
    low_pairs = []
    high_pairs = []
    for j in range(1, p + 1):
        # survivors gap+1-j.. upward and r-1+j.. downward, min(r, j) of each
        count = min(r, j)
        stop = start + 2 * hu
        low_sup = actual_survivors(gap + 1 - j, gap + 1 - j + count, removed, k)
        low_pairs.append(SubsegmentLabel(low, low_sup, start, stop))
        high_sup = actual_survivors(r + j - count, r + j, removed, k)
        high_pairs.append(SubsegmentLabel(high, high_sup, start, stop))
        start = stop
    return SplitPlan(
        params,
        removed,
        tuple(middles),
        CornerSplit(low_big, low_tiny, tuple(low_pairs)),
        CornerSplit(high_big, high_tiny, tuple(high_pairs)),
    )

"""Segment splitting for node removal.

When a node leaves, the r segments it held must be spread over the K-1
survivors in cyclic layout with segment size K/(K-1) * T. Each affected
segment is cut into contiguous pieces; a piece's superscript names the
survivors that must learn it. Piece sizes are integer multiples of the half
unit T / (2*(K-1)), which is K+1 atoms.

The cutting rules are written for the canonical case "last node removed".
Removing node m instead relabels every node and segment index by the cyclic
shift that maps m onto the last position. make_split_plan computes that map
once, keeps it as SplitPlan.actual, and builds each piece straight in actual
labels through it: a superscript is a run of canonical survivors that never
wraps, so its sorted actual labels are at most two ranges (actual_survivors).

Piece identity is physical: (base segment, atom range). At replication K-1
the two pieces of a corner segment can carry the same superscript, so nothing
may address pieces by superscript alone; consumers pick pieces by role:
SplitPlan.openings and SplitPlan.closings list the two pieces that make up
each regrown target, and the corners' broadcast batches hold the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError
from .model import SubsegmentLabel, SystemParams, cyclic_range


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

    def broadcast_batch(self) -> tuple[SubsegmentLabel, ...]:
        # everything except big is transmitted uncoded by the corner's sender
        return self.pairs if self.tiny is None else (self.tiny, *self.pairs)


@dataclass(frozen=True)
class SplitPlan:
    """All pieces for one removal, labeled in the actual (unshifted) frame.

    actual[c] is the actual label of canonical node or segment c, for c in
    1..K, with actual[K] the removed node (index 0 unused). openings are the
    pieces of canonical segments K-r+1..K-1 that open targets K-r+1..K-1: the
    low corner's big piece, then each middle segment's leading piece.
    closings are the pieces of canonical segments K-r+2..K that close them:
    each middle segment's trailing piece, then the high corner's big piece
    (physically the leading atoms of W_K). low_corner splits canonical
    segment K-r+1, high_corner canonical K.
    """

    params: SystemParams
    actual: tuple[int, ...]
    openings: tuple[SubsegmentLabel, ...]
    closings: tuple[SubsegmentLabel, ...]
    low_corner: CornerSplit
    high_corner: CornerSplit

    def all_pieces(self) -> tuple[SubsegmentLabel, ...]:
        """Every piece: each corner's big piece and batch around the middle
        segments' (leading, trailing) pairs, in canonical segment order."""
        low, high = self.low_corner, self.high_corner
        middles = [piece for pair in zip(self.openings[1:], self.closings) for piece in pair]
        return (low.big, *low.broadcast_batch(), *middles, high.big, *high.broadcast_batch())


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
    low, high = actual[gap + 1], actual[k]
    start = (k + r - 2) * hu
    openings = [SubsegmentLabel(low, (actual[1],), 0, start)]
    closings = []
    for i in range(1, r - 1):
        base = actual[gap + 1 + i]
        cut = (k + r - 2 * i - 2) * hu
        openings.append(SubsegmentLabel(base, (actual[i + 1],), 0, cut))
        closings.append(SubsegmentLabel(base, (actual[i + gap],), cut, params.segment_atoms))
    closings.append(SubsegmentLabel(high, (actual[k - 1],), 0, start))
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
        actual,
        tuple(openings),
        tuple(closings),
        CornerSplit(openings[0], low_tiny, tuple(low_pairs)),
        CornerSplit(closings[-1], high_tiny, tuple(high_pairs)),
    )

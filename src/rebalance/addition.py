"""Node addition: shrink every segment and build the new node's segment.

Each of the K segments gives up its trailing T/(K+1) atoms; those small
parts, broadcast by their first holder and concatenated in segment order,
form the new segment stored on the new node K+1 and on nodes 1..r-1. The
kept leading parts stay in place except where the cyclic layout over K+1
nodes now points at the new node: segments K-r+2..K ship their kept part to
it, and nodes 1..r-1 each discard one kept part they no longer need.

Total traffic is rK/(K+1) segments, which meets the lower bound exactly, so
no coding is needed anywhere.

The layout is certified once, then built per segment, not per replica. When
cyclic_refs finds every old holder of W_i storing node i's piece (the piece
both broadcasts of W_i were cut from), each kept part is cut once, the new
segment is assembled once from the broadcast trailers, and cyclic_layout
places each of the K+1 pieces at all its r holders as one shared object.
Any other input, such as a missing or damaged replica, goes through the walk,
replica by replica: it cuts each kept part and each trailer once per distinct
stored int, so holders of one stored piece share one cut, and the new node
shares the sender's kept piece when the kept part it received equals it.
Trailers are interned by value with the broadcast small parts, so holders of
the new segment whose sources agree share one assembled piece. Only the walk
raises MergeFailureError, naming the node that lacks a segment it must keep.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analytics
from .analytics import LoadReport
from .bus import TransmissionLog, broadcast_uncoded
from .errors import MergeFailureError, ParameterError
from .model import (
    Database,
    StoredPiece,
    SubsegmentLabel,
    SystemParams,
    cyclic_layout,
    cyclic_range,
    cyclic_refs,
    slice_atoms,
)


@dataclass(frozen=True)
class AdditionPlan:
    """Cut points and movements for one node addition."""

    params: SystemParams
    kept: tuple[SubsegmentLabel, ...]  # per segment: leading K/(K+1), stays replicated
    small: tuple[SubsegmentLabel, ...]  # per segment: trailing 1/(K+1), broadcast
    shipped: tuple[int, ...]  # segments whose kept part also goes to the new node


def make_addition_plan(params: SystemParams) -> AdditionPlan:
    params.validate()
    k, r = params.n_nodes, params.replication
    seg_atoms = params.segment_atoms
    kept_atoms = seg_atoms * k // (k + 1)
    # superscripts are built once and shared: a shipped kept part goes to the new
    # node, and a small part to the new node plus the old nodes that precede
    # segment i, which are nodes 1..r-1 for every segment i >= r
    to_new = (k + 1,)
    wide = (*range(1, r), k + 1)
    kept = []
    small = []
    for i in range(1, k + 1):
        kept.append(
            SubsegmentLabel(
                base=i,
                superscript=to_new if i >= k - r + 2 else (),
                atom_start=0,
                atom_stop=kept_atoms,
            )
        )
        small.append(
            SubsegmentLabel(
                base=i,
                superscript=wide if i >= r else (*range(1, i), k + 1),
                atom_start=kept_atoms,
                atom_stop=seg_atoms,
            )
        )
    return AdditionPlan(
        params=params,
        kept=tuple(kept),
        small=tuple(small),
        shipped=tuple(range(k - r + 2, k + 1)),
    )


@dataclass
class AdditionRun:
    """Everything produced by one addition run."""

    final: Database
    log: TransmissionLog
    report: LoadReport
    plan: AdditionPlan


def rebalance_add(db: Database) -> AdditionRun:
    """Run the full addition pipeline and return the K+1 node database."""
    if db.generation != "original":
        raise ParameterError("addition runs on an original-layout database")
    params = db.params
    k, r = params.n_nodes, params.replication
    w = params.atom_bits
    plan = make_addition_plan(params)
    log = TransmissionLog(params)

    # small parts, interned by value with the trailers the walk cuts locally
    interned: dict[int, int] = {}
    small_payload: dict[int, int] = {}
    for i in range(1, k + 1):
        b = broadcast_uncoded(db, i, plan.small[i - 1])
        log.emit(b)
        small_payload[i] = interned.setdefault(b.payload, b.payload)
    kept_payload: dict[int, int] = {}
    for i in plan.shipped:
        b = broadcast_uncoded(db, i, plan.kept[i - 1])
        log.emit(b)
        kept_payload[i] = b.payload

    refs = cyclic_refs(db.contents, k, r)
    if refs is None:
        contents = _layout_by_walk(db, plan, small_payload, kept_payload, interned)
    else:
        # every holder of W_i holds a piece equal to node i's, which both
        # broadcasts of W_i were cut from: cut each kept part once, assemble the
        # new segment once from the broadcast trailers, share each piece
        kept_atoms, small_atoms = plan.kept[0].size_atoms, plan.small[0].size_atoms
        # one mask for all K cuts: building it costs several times the & itself
        mask = (1 << kept_atoms * w) - 1
        pieces = [StoredPiece(kept_atoms, p.bits & mask) for p in refs]
        new_bits = _concatenate(list(small_payload.values()), small_atoms * w)
        pieces.append(StoredPiece(k * small_atoms, new_bits))
        contents = cyclic_layout(pieces, r)

    report = analytics.addition_report(params, log.load)
    return AdditionRun(final=Database(params, k + 1, contents), log=log, report=report, plan=plan)


def _concatenate(parts: list[int], width: int) -> int:
    # parts of width bits each, the first at the low end and taken as it is
    bits = parts[0]
    for i in range(1, len(parts)):
        bits |= parts[i] << (i * width)
    return bits


def _layout_by_walk(
    db: Database,
    plan: AdditionPlan,
    small_payload: dict[int, int],
    kept_payload: dict[int, int],
    interned: dict[int, int],
) -> dict[int, dict[int, StoredPiece]]:
    """The K+1 node contents, replica by replica, for a layout cyclic_refs does not
    certify; the one source of MergeFailureError."""
    k, r = plan.params.n_nodes, plan.params.replication
    w = plan.params.atom_bits
    kept_atoms = plan.kept[0].size_atoms
    small_atoms = plan.small[0].size_atoms
    contents: dict[int, dict[int, StoredPiece]] = {n: {} for n in range(1, k + 2)}
    for i in range(1, k + 1):
        # the kept part is cut once per distinct stored int and shared
        cut: dict[int, StoredPiece] = {}
        for node in cyclic_range(i, r, k + 1):
            if node == k + 1:
                # share the sender's kept piece (node i, cut first) if the payload equals it
                sent = contents[i][i]
                if sent.bits != kept_payload[i]:
                    sent = StoredPiece(kept_atoms, kept_payload[i])
                contents[node][i] = sent
                continue
            piece = db.stored(node, i)
            # every old node in the new layout of W_i already held W_i
            if piece is None:
                raise MergeFailureError(
                    f"node {node} does not hold segment {i} to keep its leading part"
                )
            kept = cut.get(id(piece.bits))
            if kept is None:
                bits = slice_atoms(piece.bits, 0, kept_atoms, w)
                kept = cut[id(piece.bits)] = StoredPiece(kept_atoms, bits)
            contents[node][i] = kept

    # each holder of the new segment takes trailer i from its own W_i, else
    # from the bus; trailers are cut once per stored int and interned with the
    # broadcast ones, so holders whose sources agree share one assembled piece
    trailer: dict[int, int] = {}
    assembled: dict[tuple[int, ...], StoredPiece] = {}
    for node in cyclic_range(k + 1, r, k + 1):
        own = db.contents.get(node, {})
        parts = []
        for i in range(1, k + 1):
            piece = own.get(i)
            if piece is None:
                parts.append(small_payload[i])
                continue
            # stored ints stay alive in db throughout, so ids cannot be reused
            part = trailer.get(id(piece.bits))
            if part is None:
                part = slice_atoms(piece.bits, kept_atoms, kept_atoms + small_atoms, w)
                part = trailer[id(piece.bits)] = interned.setdefault(part, part)
            parts.append(part)
        key = tuple(map(id, parts))
        new = assembled.get(key)
        if new is None:
            bits = _concatenate(parts, small_atoms * w)
            new = assembled[key] = StoredPiece(k * small_atoms, bits)
        contents[node][k + 1] = new
    return contents

"""Command-line front end.

Four commands: `remove` and `add` run one rebalancing scenario end to end and
verify it; `sweep` runs every replication factor for one cluster size and
writes the loads as CSV; `check-claim1` audits the scheme-selection threshold
by brute force. Exit codes: 0 success, 1 verification or audit failure,
2 bad parameters, unsupported configuration or an unwritable output path.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, TextIO

from . import analytics
from .addition import rebalance_add
from .errors import ParameterError, RebalanceError, UnsupportedConfigError
from .model import build_cyclic_database, default_params
from .removal_merge import ChangeRun
from .removal_schemes import SCHEME_CHOICES, rebalance_remove
from .verify import VerificationReport, verify_change


def _fmt(x: Fraction) -> str:
    return f"{x} ({float(x)})"


def _print_verification(v: VerificationReport) -> None:
    print(
        "verification: "
        f"balanced={str(v.is_balanced).lower()} "
        f"cyclic={str(v.is_cyclic).lower()} "
        f"replication={str(v.replication_ok).lower()} "
        f"content={str(v.content_ok).lower()}"
    )
    for category, message in v.findings:
        print(f"  finding [{category}]: {message}")


def _label_json(label) -> dict:
    return {
        "base": label.base,
        "superscript": list(label.superscript),
        "atom_start": label.atom_start,
        "atom_stop": label.atom_stop,
    }


@contextmanager
def _output(path: str | None, newline: str) -> Iterator[TextIO | None]:
    """Open an output file before the work, so an unwritable path fails fast. Appending
    keeps an existing file as it was until the writer truncates it; a file the work
    created is removed if the work ends in a package error."""
    if not path:
        yield None
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8", newline=newline) as f:
            yield f
    except RebalanceError:
        if not existed:
            os.remove(path)
        raise


def _write_trace(f: TextIO, payload: dict) -> None:
    f.truncate(0)
    f.write(json.dumps(payload, indent=2, sort_keys=True))
    f.write("\n")


def _trace_common(
    args: argparse.Namespace, run: ChangeRun, verification: VerificationReport
) -> dict:
    """Trace fields shared by removal and addition: parameters, load, traffic,
    targets, verdict."""
    rep = run.report
    broadcasts = []
    for b in run.log.broadcasts:
        entry = {
            "sender": b.sender,
            "kind": b.kind,
            "payload_atoms": b.payload_atoms,
            "operands": [_label_json(op) for op in b.operands],
        }
        if args.full_trace:
            entry["payload_hex"] = format(b.payload, "x")
        broadcasts.append(entry)
    return {
        "n_nodes": args.k,
        "replication": args.r,
        "segment_bits": rep.params.segment_bits,
        "seed": args.seed,
        "load": {
            "measured": [rep.measured.numerator, rep.measured.denominator],
            "measured_float": float(rep.measured),
            "expected": [rep.expected.numerator, rep.expected.denominator],
        },
        "broadcasts": broadcasts,
        "targets": [
            {"index": t.target, "holders": list(t.holders), "parts": [list(p) for p in t.parts]}
            for t in run.recipes
        ],
        "verification": {
            "balanced": verification.is_balanced,
            "cyclic": verification.is_cyclic,
            "replication": verification.replication_ok,
            "content": verification.content_ok,
            "findings": [list(f) for f in verification.findings],
        },
    }


def _cmd_remove(args: argparse.Namespace) -> int:
    with _output(args.trace, "\n") as trace:
        db = build_cyclic_database(default_params(args.k, args.r, args.t_mult), args.seed)
        run = rebalance_remove(db, args.node, args.scheme)
        verification = verify_change(run, args.seed)
        rep = run.report

        print(f"removal: K={args.k} r={args.r} removed node {args.node} seed {args.seed}")
        print(f"scheme: {rep.scheme}")
        print(f"measured load: {_fmt(rep.measured)}")
        print(f"expected load: {_fmt(rep.expected)}")
        k, r = args.k, args.r
        print(
            f"coded loads: scheme1 {analytics.load_scheme1(k, r)}, "
            f"scheme2 {analytics.load_scheme2(k, r)}, threshold r>={analytics.threshold(k)}"
        )
        uncoded = analytics.uncoded_removal_load(k, r)
        print(f"uncoded baseline: {uncoded}, lower bound: {_fmt(rep.lower_bound)}")
        _print_verification(verification)

        if trace is not None:
            payload = _trace_common(args, run, verification)
            payload.update(operation="removal", removed_node=args.node, scheme=rep.scheme)
            _write_trace(trace, payload)

        return 0 if verification.ok and rep.matches_formula else 1


def _cmd_add(args: argparse.Namespace) -> int:
    with _output(args.trace, "\n") as trace:
        db = build_cyclic_database(default_params(args.k, args.r, args.t_mult), args.seed)
        run = rebalance_add(db)
        verification = verify_change(run, args.seed)
        rep = run.report

        print(f"addition: K={args.k} r={args.r} new node {args.k + 1} seed {args.seed}")
        print(f"measured load: {_fmt(rep.measured)}")
        print(f"lower bound: {_fmt(rep.lower_bound)}")
        print(f"optimal: {str(rep.measured == rep.lower_bound).lower()}")
        _print_verification(verification)

        if trace is not None:
            payload = _trace_common(args, run, verification)
            payload.update(operation="addition", added_node=args.k + 1)
            _write_trace(trace, payload)

        return 0 if verification.ok and rep.matches_formula else 1


SWEEP_COLUMNS = (
    "K",
    "r",
    "scheme",
    "load_num",
    "load_den",
    "load_float",
    "L1_float",
    "L2_float",
    "L_u",
    "lower_bound_float",
    "r_th",
    "verified",
)


def _check_sweep(k: int, r_min: int, r_max: int, node: int, t_mult: int) -> None:
    """Raise the ParameterError the first sweep row would raise, before any row runs."""
    if k < 4:
        raise ParameterError(f"sweep needs at least 4 nodes, got {k}")
    if not 3 <= r_min <= r_max <= k - 1:
        raise ParameterError(f"replication range [{r_min}, {r_max}] outside [3, {k - 1}]")
    default_params(k, r_min, t_mult)
    if not 1 <= node <= k:
        raise ParameterError(f"removed node {node} outside [1, {k}]")


def sweep_rows(
    k: int,
    r_min: int,
    r_max: int,
    node: int,
    seed: int,
    t_mult: int,
) -> list[dict]:
    """Execute and verify one removal per replication factor; return CSV rows."""
    _check_sweep(k, r_min, r_max, node, t_mult)
    rows = []
    for r in range(r_min, r_max + 1):
        params = default_params(k, r, t_mult)
        db = build_cyclic_database(params, seed)
        run = rebalance_remove(db, node, "auto")
        verification = verify_change(run, seed)
        rep = run.report
        ok = verification.ok and rep.matches_formula
        rows.append(
            {
                "K": k,
                "r": r,
                "scheme": rep.scheme,
                "load_num": rep.measured.numerator,
                "load_den": rep.measured.denominator,
                "load_float": float(rep.measured),
                "L1_float": float(analytics.load_scheme1(k, r)),
                "L2_float": float(analytics.load_scheme2(k, r)),
                "L_u": analytics.uncoded_removal_load(k, r),
                "lower_bound_float": float(rep.lower_bound),
                "r_th": analytics.threshold(k),
                "verified": "true" if ok else "false",
            }
        )
    return rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    k = args.k
    r_min = args.r_min if args.r_min is not None else 3
    r_max = args.r_max if args.r_max is not None else k - 1
    node = args.node if args.node is not None else k
    # fail on bad parameters or an unwritable --out before any row runs
    _check_sweep(k, r_min, r_max, node, args.t_mult)
    with _output(args.out, "") as f:
        rows = sweep_rows(k, r_min, r_max, node, args.seed, args.t_mult)
        f.truncate(0)
        writer = csv.DictWriter(f, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    bad = [row for row in rows if row["verified"] != "true"]
    print(f"wrote {len(rows)} rows to {args.out}")
    if bad:
        print(f"{len(bad)} rows failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_check_claim1(args: argparse.Namespace) -> int:
    report = analytics.verify_claim1(args.kmax)
    print(f"pairs checked: {report.pairs_checked} (K in [4..{report.k_max}])")
    print(f"counterexamples: {len(report.counterexamples)}")
    for k, r in report.counterexamples:
        print(f"  threshold predicate fails at K={k} r={r}")
    if report.ties:
        print(
            f"equal-cost points: {len(report.ties)} "
            "(scheme 1 preferred at each; expected family K=3m+1, r=2m+1)"
        )
    if report.unexpected_ties:
        for k, r in report.unexpected_ties:
            print(f"  unexpected equal-cost point at K={k} r={r}")
    if report.crossing_failures:
        for k in report.crossing_failures:
            print(f"  crossover bracketing failed at K={k}")
    print(f"threshold audit: {'pass' if report.ok else 'fail'}")
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebalance",
        description="Simulate and verify coded rebalancing of cyclic replicated storage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_node: bool) -> None:
        p.add_argument("--k", type=int, required=True, help="number of nodes before the change")
        p.add_argument("--r", type=int, required=True, help="replication factor")
        if with_node:
            p.add_argument("--node", type=int, required=True, help="node to remove")
        p.add_argument("--seed", type=int, default=0, help="content generator seed")
        p.add_argument(
            "--t-mult",
            type=int,
            default=1,
            dest="t_mult",
            help="segment size multiplier over the smallest valid size",
        )
        p.add_argument("--trace", help="write a JSON trace of the run to this path")
        p.add_argument(
            "--full-trace",
            action="store_true",
            dest="full_trace",
            help="include payload bits in the trace",
        )

    p_remove = sub.add_parser("remove", help="remove one node and rebalance")
    common(p_remove, with_node=True)
    p_remove.add_argument(
        "--scheme",
        choices=SCHEME_CHOICES,
        default="auto",
        help="broadcast schedule; auto picks the cheaper coded one",
    )
    p_remove.set_defaults(func=_cmd_remove)

    p_add = sub.add_parser("add", help="add one node and rebalance")
    common(p_add, with_node=False)
    p_add.set_defaults(func=_cmd_add)

    p_sweep = sub.add_parser("sweep", help="run every replication factor, write loads as CSV")
    p_sweep.add_argument("--k", type=int, required=True, help="number of nodes before removal")
    p_sweep.add_argument("--r-min", type=int, default=None, dest="r_min")
    p_sweep.add_argument("--r-max", type=int, default=None, dest="r_max")
    p_sweep.add_argument("--node", type=int, default=None, help="node to remove (default: K)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--t-mult", type=int, default=1, dest="t_mult")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_claim = sub.add_parser("check-claim1", help="audit the scheme-selection threshold")
    p_claim.add_argument("--kmax", type=int, required=True, help="largest cluster size to check")
    p_claim.set_defaults(func=_cmd_check_claim1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedConfigError as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except RebalanceError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

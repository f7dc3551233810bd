"""Outside-in benchmark harness for the rebalance package.

A run does what `rebalance remove` or `rebalance add` does: build the cyclic
database from a content seed, rebalance it, and verify the result the way the
CLI does. The harness only calls names exported in `rebalance.__all__`, so the
package's internals may change freely underneath it.

Two ways to execute a run:

- `run_once` calls the real pipeline (`rebalance_remove` / `rebalance_add`);
  untraced passes use it for every end-to-end number.
- `run_traced` calls the same stages `rebalance_remove` calls, in the same
  order, and records one span per stage; it yields the per-layer numbers.

Every run passes through `judge`, the correctness gate: zero verifier
findings, and a measured load equal to the closed form as an exact Fraction.
Failures and exceptions become failed outcomes; nothing here is an `assert`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
import random
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from rebalance import (
    Database,
    SystemParams,
    TransmissionLog,
    VerificationReport,
    addition_expected_layout,
    addition_load,
    apply_merge,
    build_cyclic_database,
    build_merge_recipes,
    choose_scheme,
    default_params,
    deliver,
    full_removal_load,
    make_split_plan,
    rebalance_add,
    rebalance_remove,
    removal_expected_layout,
    run_scheme1,
    run_scheme2,
    run_uncoded_removal,
    verify_cyclic_balanced,
    verify_preservation,
)

WORKLOADS = ("removal_grid", "removal_large", "addition_large")
GRID_SCHEMES = ("scheme1", "scheme2", "uncoded")
# (K, r) of removal_large and addition_large: removals use both schedules, on
# either side of the threshold r_th(240) = 161; an odd count of distinct costs
# puts the median and the 90th percentile of run time inside one pair's runs
LARGE_PAIRS = ((240, 30), (240, 120), (240, 160), (240, 200), (300, 150))
# tiny-K stand-ins for the benchmark's own tests; r_th(12) = 9
SMOKE_GRID_KMAX = 6
SMOKE_LARGE_PAIRS = ((12, 4), (12, 9))

SCHEDULES = {"scheme1": run_scheme1, "scheme2": run_scheme2, "uncoded": run_uncoded_removal}

# layer spans recorded inside each traced run, in pipeline order
LAYER_SPANS = (
    "model.build",
    "removal_split.plan",
    "removal_schemes.encode",
    "removal_schemes.deliver",
    "removal_merge.recipes",
    "removal_merge.merge",
    "addition.add",
    "verify.shape",
    "verify.content",
    "analytics.report",
)
# per-pass counts taken at the layer boundaries of traced runs
PASS_COUNTS = (
    "removal_split.pieces",
    "bus.broadcasts",
    "bus.payload_atoms",
    "bus.decodes",
    "bus.decode_attempts",
    "removal_merge.replicas_assembled",
)
RSS_RISES = ("removal_merge.rss_rise_mb", "addition.rss_rise_mb")


@dataclass(frozen=True)
class Case:
    """One run's inputs apart from the content seed."""

    op: str  # "remove" | "add"
    k: int
    r: int
    node: int  # node removed, or K+1 for an addition
    scheme: str  # removal schedule as passed to rebalance_remove; "addition" for adds


def make_cases(workload: str, seed: int, smoke: bool = False) -> tuple[Case, ...]:
    """The fixed list of runs that makes one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "removal_grid":
        kmax = SMOKE_GRID_KMAX if smoke else 25
        cases = []
        for k in range(4, kmax + 1):
            for r in range(3, k):
                node = rng.randint(1, k)
                cases.extend(Case("remove", k, r, node, s) for s in GRID_SCHEMES)
        return tuple(cases)
    pairs = SMOKE_LARGE_PAIRS if smoke else LARGE_PAIRS
    if workload == "removal_large":
        return tuple(Case("remove", k, r, rng.randint(1, k), "auto") for k, r in pairs)
    if workload == "addition_large":
        return tuple(Case("add", k, r, k + 1, "addition") for k, r in pairs)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def content_seeds(seed: int):
    """Endless stream of per-run content seeds derived from the workload seed.

    A fresh seed per run keeps segment_content's cache from serving one run
    from an earlier one, as it would never do for separate CLI invocations.
    """
    rng = random.Random(f"content:{seed}")
    while True:
        yield rng.getrandbits(63)


def executed_scheme(case: Case) -> str:
    if case.op == "add":
        return "addition"
    return choose_scheme(case.k, case.r) if case.scheme == "auto" else case.scheme


def maxrss_mb() -> float:
    """High-water resident memory of this process in MB (10**6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports ru_maxrss in KiB, macOS in bytes
    return (peak if sys.platform == "darwin" else peak * 1024) / 1e6


@dataclass(frozen=True)
class Outcome:
    """What the gate saw of one run; findings is empty when the run passed."""

    case: Case
    scheme: str
    load: Fraction | None
    broadcasts: int
    payload_atoms: int
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def target_shape(case: Case, params: SystemParams) -> SystemParams:
    """Layout the CLI verifies against: K-1 or K+1 nodes, same total storage."""
    k_new = case.k - 1 if case.op == "remove" else case.k + 1
    return SystemParams(k_new, case.r, params.segment_bits * case.k // k_new)


def verify_shape(case: Case, final: Database) -> VerificationReport:
    return verify_cyclic_balanced(final, target_shape(case, final.params))


def verify_content(case: Case, content_seed: int, final: Database, source) -> VerificationReport:
    """Content check; source is the run's merge recipes (removal) or plan (addition)."""
    layout = removal_expected_layout(source) if case.op == "remove" else addition_expected_layout(source)
    return verify_preservation(final, layout, final.params, content_seed)


def judge(case: Case, scheme: str, log: TransmissionLog, verification: VerificationReport) -> Outcome:
    """The correctness gate for one run."""
    if case.op == "add":
        expected = addition_load(case.k, case.r)
    else:
        expected = full_removal_load(case.k, case.r, scheme)
    findings = [f"{category}: {message}" for category, message in verification.findings]
    if log.load != expected:
        findings.append(f"load: measured {log.load}, closed form {expected}")
    if log.total_payload_atoms != expected * log.params.segment_atoms:
        findings.append(
            f"bus: {log.total_payload_atoms} payload atoms, closed form "
            f"{expected * log.params.segment_atoms}"
        )
    return Outcome(
        case, scheme, log.load, len(log.broadcasts), log.total_payload_atoms, tuple(findings)
    )


def crashed(case: Case, exc: Exception) -> Outcome:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    message = f"exception: {type(exc).__name__}: {exc} at {where.filename}:{where.lineno}"
    return Outcome(case, case.scheme, None, 0, 0, (message,))


def run_once(case: Case, content_seed: int) -> Outcome:
    """One untraced run through the package's own pipeline, then the gate."""
    db = build_cyclic_database(default_params(case.k, case.r), content_seed)
    if case.op == "remove":
        run = rebalance_remove(db, case.node, case.scheme)
        source = run.recipes
    else:
        run = rebalance_add(db)
        source = run.plan
    verification = verify_shape(case, run.final).merged(
        verify_content(case, content_seed, run.final, source)
    )
    return judge(case, executed_scheme(case), run.log, verification)


@dataclass(frozen=True)
class Span:
    run_id: int
    name: str
    start: float
    end: float
    parent: str | None  # "run" for a layer span, None for the run span itself


@dataclass
class Tracer:
    """Spans and counters of the traced passes, kept in memory until the end."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    runs: int = 0

    def call(self, run_id: int, name: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans.append(Span(run_id, name, start, perf_counter(), "run"))
        return out


def run_traced(case: Case, content_seed: int, tracer: Tracer) -> Outcome:
    """One run composed stage by stage as rebalance_remove composes it, with spans."""
    run_id = tracer.runs
    tracer.runs += 1
    start = perf_counter()
    try:
        return _traced_stages(case, content_seed, tracer, run_id)
    finally:
        tracer.spans.append(Span(run_id, "run", start, perf_counter(), None))


def _traced_stages(case: Case, content_seed: int, tracer: Tracer, run_id: int) -> Outcome:
    def call(name, fn, *args):
        return tracer.call(run_id, name, fn, *args)

    counts = tracer.counts
    params = default_params(case.k, case.r)
    db = call("model.build", build_cyclic_database, params, content_seed)
    counts["model.content_bits"] += case.k * params.segment_bits
    scheme = executed_scheme(case)
    if case.op == "remove":
        plan = call("removal_split.plan", make_split_plan, params, case.node)
        log = call("removal_schemes.encode", SCHEDULES[scheme], db, plan)
        received = call("removal_schemes.deliver", deliver, db, log, plan)
        recipes = call("removal_merge.recipes", build_merge_recipes, params, plan)
        rss = maxrss_mb()
        final = call("removal_merge.merge", apply_merge, db, plan, recipes, received)
        counts["removal_merge.rss_rise_mb"] += maxrss_mb() - rss
        counts["removal_split.pieces"] += len(plan.all_pieces())
        counts["bus.decodes"] += sum(len(got) for got in received.values())
        counts["bus.decode_attempts"] += sum(
            len({n for op in b.operands for n in op.superscript}) for b in log.broadcasts
        )
        counts["removal_merge.replicas_assembled"] += sum(len(rec.holders) for rec in recipes)
        source = recipes
    else:
        rss = maxrss_mb()
        run = call("addition.add", rebalance_add, db)
        counts["addition.rss_rise_mb"] += maxrss_mb() - rss
        final, log, source = run.final, run.log, run.plan
    counts["bus.broadcasts"] += len(log.broadcasts)
    counts["bus.payload_atoms"] += log.total_payload_atoms
    shape = call("verify.shape", verify_shape, case, final)
    content = call("verify.content", verify_content, case, content_seed, final, source)
    return call("analytics.report", judge, case, scheme, log, shape.merged(content))


# Shared hosts drift in CPU speed by a third within seconds, far more than the
# regressions the benchmark must catch. SpeedProbe times fixed loops that do
# not touch the package from a timer signal throughout the untraced passes;
# each run's time is then scaled to the speed at which a sample takes
# REFERENCE_S, using the samples taken during the run, widened to at least
# LOCAL_WINDOW_S.
SPEED_INTERVAL_S = 0.1
LOCAL_WINDOW_S = 1.0
REFERENCE_S = 0.0005  # about the median sample on a 2-vCPU Xeon at 2.1 GHz, CPython 3.11
_BIG = (1 << 160_000) - 987_654_321


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def speed_sample() -> float:
    """Geometric mean of the times of three fixed loops, one per kind of work the
    package does: interpreter arithmetic (content generation), small-object
    churn (planning and bookkeeping) and big-int shifts (merge and verify).
    The mix tracks the host's drift on every workload better than any one loop.
    """
    start = perf_counter()
    x = 0
    for i in range(10_000):
        x += i * i
    arithmetic = perf_counter() - start
    start = perf_counter()
    seen = {}
    for i in range(1_000):
        pair = _Pair(i, i + 1)
        seen[pair] = {pair.a, pair.b}
    objects = perf_counter() - start
    start = perf_counter()
    big = _BIG
    for _ in range(20):
        big = ((big >> 3) ^ (big << 5)) & _BIG
    bigint = perf_counter() - start
    return (arithmetic * objects * bigint) ** (1 / 3)


class SpeedProbe:
    """Samples the host's current speed from SIGALRM while the passes run."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter when each sample ended
        self.took: list[float] = []  # each sample's speed_sample()
        self.spent = 0.0  # wall time of all samples, taken out of the run timings

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        self.took.append(speed_sample())
        end = perf_counter()
        self.at.append(end)
        self.spent += end - start

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # so that even a pass shorter than the interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_INTERVAL_S, SPEED_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to seconds at the reference speed."""
        pad = max(0.0, (LOCAL_WINDOW_S - (end - start)) / 2)
        local = self.took[bisect_left(self.at, start - pad):bisect_right(self.at, end + pad)]
        return REFERENCE_S / statistics.median(local or self.took)


@dataclass
class PassResult:
    """One sweep over a workload's cases."""

    outcomes: list[Outcome]
    run_s: list[float]  # each run's seconds, speed samples taken out
    run_spans: list[tuple[float, float]]  # perf_counter at each run's start and end
    elapsed_s: float  # the whole pass, speed samples taken out

    @property
    def verified(self) -> int:
        return sum(o.ok for o in self.outcomes)

    @property
    def runs_per_s(self) -> float:
        return self.verified / self.elapsed_s

    @property
    def digest(self) -> str:
        """Hash of what no optimisation may change; payload bits stay out."""
        h = hashlib.sha256()
        for o in self.outcomes:
            c = o.case
            load = (o.load.numerator, o.load.denominator) if o.load is not None else None
            h.update(repr((c.k, c.r, c.node, o.scheme, load, o.broadcasts, o.payload_atoms)).encode())
        return h.hexdigest()


def run_pass(cases, seeds, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> PassResult:
    """Closed loop over the cases: one run at a time, each timed end to end."""
    outcomes: list[Outcome] = []
    run_s: list[float] = []
    run_spans: list[tuple[float, float]] = []

    def spent() -> float:
        return probe.spent if probe else 0.0

    pass_spent = spent()
    pass_start = perf_counter()
    for case in cases:
        content_seed = next(seeds)
        run_spent = spent()
        start = perf_counter()
        try:
            if tracer is None:
                outcome = run_once(case, content_seed)
            else:
                outcome = run_traced(case, content_seed, tracer)
        except Exception as exc:  # a crashed run is a failed run, not a crashed benchmark
            outcome = crashed(case, exc)
        end = perf_counter()
        run_s.append(end - start - (spent() - run_spent))
        run_spans.append((start, end))
        outcomes.append(outcome)
    elapsed = perf_counter() - pass_start - (spent() - pass_spent)
    return PassResult(outcomes, run_s, run_spans, elapsed)


def run_passes(cases, seeds, seconds: float, tracer: Tracer | None = None,
               probe: SpeedProbe | None = None) -> list[PassResult]:
    """Whole passes until `seconds` have passed; always at least one."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(cases, seeds, tracer, probe))
    return passes


def end_to_end(passes: list[PassResult], probe: SpeedProbe) -> tuple[dict, dict]:
    """Run rate and run-time percentiles at the reference speed, and as measured."""
    run_s, scaled_s, rates, scaled_rates = [], [], [], []
    for p in passes:
        scaled = [t * probe.scale(*span) for t, span in zip(p.run_s, p.run_spans)]
        run_s += p.run_s
        scaled_s += scaled
        rates.append(p.runs_per_s)
        scaled_rates.append(p.runs_per_s * sum(p.run_s) / sum(scaled))

    def summary(rates, times):
        return {
            "runs_per_s": statistics.median(rates),
            "run_ms_p50": statistics.median(times) * 1e3,
            "run_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        }

    return summary(scaled_rates, scaled_s), summary(rates, run_s)


def gate_summary(passes: list[PassResult]) -> dict:
    """Failures counted against runs attempted, and the distinct pass digests."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if not o.ok]
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_frac": len(failed) / len(outcomes),
        "pass_digests": sorted({p.digest for p in passes}),
        "failures": [f"{o.case}: {finding}" for o in failed for finding in o.findings][:20],
    }


def span_problems(spans: list[Span]) -> list[str]:
    """Layer spans of each run must lie inside its run span, one after another."""
    by_run: dict[int, list[Span]] = {}
    runs: dict[int, Span] = {}
    for s in spans:
        if s.parent is None:
            runs[s.run_id] = s
        else:
            by_run.setdefault(s.run_id, []).append(s)
    problems = []
    for run_id, run in runs.items():
        cursor = run.start
        for s in by_run.get(run_id, []):
            if s.start < cursor or s.end > run.end:
                problems.append(f"run {run_id}: span {s.name} overlaps or leaves its run")
            cursor = s.end
    return problems


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass layer seconds and counts, plus run.unattributed_s.

    Layer seconds plus run.unattributed_s add up to run.wall_s exactly.
    The rss rises are totals over all traced passes: the high-water mark only
    grows, so they measure how much of the process peak arose inside a stage.
    """
    seconds = Counter()
    wall = 0.0
    for s in tracer.spans:
        if s.parent is None:
            wall += s.end - s.start
        else:
            seconds[s.name] += s.end - s.start
    out = {f"{name}_s": seconds[name] / n_passes for name in LAYER_SPANS}
    out["run.wall_s"] = wall / n_passes
    out["run.unattributed_s"] = (wall - sum(seconds.values())) / n_passes
    out.update({name: tracer.counts[name] / n_passes for name in PASS_COUNTS})
    out.update({name: tracer.counts[name] for name in RSS_RISES})
    out["model.content_mbit"] = tracer.counts["model.content_bits"] / 1e6 / n_passes
    attempts = tracer.counts["bus.decode_attempts"]
    out["bus.decode_yield"] = tracer.counts["bus.decodes"] / attempts if attempts else 0.0
    return out

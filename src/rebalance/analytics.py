"""Closed-form communication loads and the scheme-selection threshold.

All loads are exact rationals in units of one segment (T bits). The two coded
removal variants cost

    scheme 1:  (K*(r-1) + ceil((r^2 - 2r) / 2)) / (2*(K-1))
    scheme 2:  (K-r)*(2r-1) / (K-1)

in coded traffic, plus a shared (K-r)/(K-1) of uncoded corner pieces. Scheme 1
wins for small r, scheme 2 from r_th = ceil((2K+2)/3) on. The two coded costs
are equal exactly when K = 3m+1 and r = 2m+1; everywhere else the preference
is strict. verify_claim1 brute-forces all of this over a K range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, RebalanceError
from .model import SystemParams


def _check_removal_pair(k: int, r: int) -> None:
    if k < 4:
        raise ParameterError(f"removal analysis needs at least 4 nodes, got {k}")
    if not 3 <= r <= k - 1:
        raise ParameterError(f"replication {r} outside [3, {k - 1}]")


def load_scheme1(k: int, r: int) -> Fraction:
    """Coded traffic of the pairwise-XOR removal scheme, in segments."""
    _check_removal_pair(k, r)
    val = Fraction(k * (r - 1) + (r * r - 2 * r + 1) // 2, 2 * (k - 1))
    # the single closed form must agree with the two parity derivations
    if r % 2 == 1:
        alt = Fraction(r - 1, 2 * (k - 1)) * (k + Fraction(r - 1, 2))
    else:
        alt = Fraction((r - 2) * k + (r - 2) * r // 2 + k, 2 * (k - 1))
    if val != alt:
        raise RebalanceError(
            f"scheme 1 closed form {val} disagrees with its parity derivation {alt} "
            f"at K={k}, r={r}"
        )
    return val


def load_scheme2(k: int, r: int) -> Fraction:
    """Coded traffic of the strided-XOR removal scheme, in segments."""
    _check_removal_pair(k, r)
    return Fraction((k - r) * (2 * r - 1), k - 1)


def corner_overhead(k: int, r: int) -> Fraction:
    """Uncoded corner-piece traffic shared by both coded schemes."""
    _check_removal_pair(k, r)
    return Fraction(k - r, k - 1)


def full_removal_load(k: int, r: int, scheme: str) -> Fraction:
    """Total bus traffic of one coded removal variant, in segments."""
    if scheme == "scheme1":
        return corner_overhead(k, r) + load_scheme1(k, r)
    if scheme == "scheme2":
        return corner_overhead(k, r) + load_scheme2(k, r)
    if scheme == "uncoded":
        return uncoded_removal_load(k, r)
    raise ParameterError(f"unknown scheme {scheme!r}")


def uncoded_removal_load(k: int, r: int) -> Fraction:
    """Baseline: each of the r affected segments retransmitted whole."""
    _check_removal_pair(k, r)
    return Fraction(r)


def removal_lower_bound(k: int, r: int) -> Fraction:
    """Information-theoretic floor r/(r-1) for any removal protocol."""
    _check_removal_pair(k, r)
    return Fraction(r, r - 1)


def threshold(k: int) -> int:
    """Smallest replication at which the strided scheme is preferred."""
    if k < 4:
        raise ParameterError(f"threshold needs at least 4 nodes, got {k}")
    return (2 * k + 4) // 3  # ceil((2K+2)/3)


def choose_scheme(k: int, r: int) -> str:
    """Cheaper coded variant; ties go to scheme 1 (checked first)."""
    return "scheme1" if load_scheme1(k, r) <= load_scheme2(k, r) else "scheme2"


def addition_load(k: int, r: int) -> Fraction:
    """Traffic of the node-addition protocol: exactly its lower bound rK/(K+1)."""
    if not 2 <= r <= k - 1:
        raise ParameterError(f"replication {r} outside [2, {k - 1}]")
    return Fraction(r * k, k + 1)


@dataclass(frozen=True)
class LoadReport:
    """Measured load of one rebalancing run, with its closed forms derived on read."""

    params: SystemParams
    scheme: str  # "scheme1" | "scheme2" | "uncoded" | "addition"
    measured: Fraction

    @property
    def expected(self) -> Fraction:
        """Closed form for the executed variant."""
        k, r = self.params.n_nodes, self.params.replication
        if self.scheme == "addition":
            return addition_load(k, r)
        return full_removal_load(k, r, self.scheme)

    @property
    def lower_bound(self) -> Fraction:
        """Floor for any protocol of this change; an addition meets its own."""
        k, r = self.params.n_nodes, self.params.replication
        if self.scheme == "addition":
            return addition_load(k, r)
        return removal_lower_bound(k, r)

    @property
    def matches_formula(self) -> bool:
        return self.measured == self.expected


@dataclass(frozen=True)
class Claim1Report:
    """Brute-force audit of the scheme-selection threshold over K in [4..k_max]."""

    k_max: int
    pairs_checked: int
    counterexamples: tuple[tuple[int, int], ...]  # threshold predicate failures
    ties: tuple[tuple[int, int], ...]  # (K, r) with equal coded loads
    unexpected_ties: tuple[tuple[int, int], ...]  # ties outside {(3m+1, 2m+1)}
    crossing_failures: tuple[int, ...]  # K where the root bracketing failed

    @property
    def ok(self) -> bool:
        return not (self.counterexamples or self.unexpected_ties or self.crossing_failures)


def verify_claim1(k_max: int) -> Claim1Report:
    """Check that the cheaper scheme switches exactly at the threshold.

    For every (K, r) the predicate is: r < r_th implies scheme 1 is no worse,
    r >= r_th implies scheme 2 is no worse. Equality happens only on the
    known tie family K = 3m+1, r = 2m+1 (where the threshold exceeds r and
    scheme 1 is selected). The crossing structure is audited per K in exact
    arithmetic: the even-r and odd-r cost gaps change sign across the
    continuous crossover points, whose ceilings reduce to the threshold.
    """
    if k_max < 4:
        raise ParameterError(f"k_max {k_max} must be >= 4")
    counterexamples: list[tuple[int, int]] = []
    ties: list[tuple[int, int]] = []
    unexpected: list[tuple[int, int]] = []
    crossing_failures: list[int] = []
    pairs = 0
    for k in range(4, k_max + 1):
        r_th = threshold(k)
        if not _crossing_ok(k, r_th):
            crossing_failures.append(k)
        for r in range(3, k):
            pairs += 1
            l1 = load_scheme1(k, r)
            l2 = load_scheme2(k, r)
            ok = l1 <= l2 if r < r_th else l2 <= l1
            if not ok:
                counterexamples.append((k, r))
            if l1 == l2:
                ties.append((k, r))
                if not (k % 3 == 1 and 3 * r == 2 * k + 1):
                    unexpected.append((k, r))
    return Claim1Report(
        k_max=k_max,
        pairs_checked=pairs,
        counterexamples=tuple(counterexamples),
        ties=tuple(ties),
        unexpected_ties=tuple(unexpected),
        crossing_failures=tuple(crossing_failures),
    )


def _gap_even_form(k: int, r: int) -> Fraction:
    # even-r scheme-1 cost minus scheme-2 cost, as polynomials in r
    l1e = Fraction((r - 2) * (2 * k + r) + 2 * k, 4 * (k - 1))
    l2 = Fraction((k - r) * (2 * r - 1), k - 1)
    return l1e - l2


def _gap_odd_form(k: int, r: int) -> Fraction:
    l1o = Fraction((r - 1) * (2 * k + r - 1), 4 * (k - 1))
    l2 = Fraction((k - r) * (2 * r - 1), k - 1)
    return l1o - l2


def _crossing_ok(k: int, r_th: int) -> bool:
    """Exact-arithmetic audit of where the cost curves cross.

    The even-r gap has its positive root at (K+1+sqrt(K^2+1))/3, irrational
    for every K, so its floor is (2K+1)//3 and its ceiling is the threshold.
    The odd-r gap has its positive root at (2K+1)/3. Sign checks at the
    bracketing integers pin both without ever materializing the square root.
    """
    floor_even_root = (2 * k + 1) // 3  # floor((K+1+isqrt(K^2+1))/3) with isqrt = K
    if floor_even_root + 1 != r_th:
        return False
    if not (_gap_even_form(k, floor_even_root) < 0 < _gap_even_form(k, floor_even_root + 1)):
        return False
    odd_root_is_integer = (2 * k + 1) % 3 == 0
    floor_odd_root = (2 * k + 1) // 3
    lo = _gap_odd_form(k, floor_odd_root)
    hi = _gap_odd_form(k, floor_odd_root + 1)
    if odd_root_is_integer:
        return lo == 0 and hi > 0
    return lo < 0 < hi

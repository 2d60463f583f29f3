"""Two-boundary hitting probabilities and the total return probability.

For a walk started at k between absorbing levels a < b, the chance of
reaching a before b is a ratio of partial sums of the odds-ratio
products:

    P_k(a, b) = sum_{j=k}^{b-1} rho_{a+1}...rho_j
                ------------------------------------
                1 + sum_{j=a+1}^{b-1} rho_{a+1}...rho_j

Both sums are read off one slice of the global ``ProductSeries`` table:
each inner product is exp(log_prod[j] - log_prod[a]).  The terms are
shifted by the window's largest log product instead, since any common
offset cancels between numerator and denominator; the largest term is
then 1 and none overflows.  The denominator is the j < k terms added to
the numerator, so the ratio cannot exceed 1 and each entry of [a, b) is
summed once.

Letting b grow to infinity turns the same ratio into the probability of
ever returning to the origin from site 1: S/(1+S) with S the full series
of products, which is 1 exactly when the series diverges (the recurrent
case).  ``return_prob`` reports that limit with a proven enclosure of
the truncated remainder in the transient case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import is_recurrent
from .errors import RangeError
from .series import ProductSeries, _escape_mass
from .walk import ConstantWalk, log_rho_array, rho, signed_drift_array

__all__ = [
    "HittingQuery",
    "hit_before",
    "ReturnProbability",
    "return_prob",
]


@dataclass(frozen=True)
class HittingQuery:
    """Levels for a two-boundary first-passage question: start k, targets a < b."""

    a: int
    k: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a <= self.k <= self.b and self.a < self.b):
            raise RangeError(
                f"need 0 <= a <= k <= b with a < b, got a={self.a}, k={self.k}, b={self.b}")


# Longest piece of a window that ``hit_before`` shifts and exponentiates at once.
_SUM_LEAF = 1 << 16


def hit_before(series: ProductSeries, q: HittingQuery) -> float:
    """Probability that the walk hits level ``q.a`` before ``q.b`` from ``q.k``.

    Boundary starts are exact: 1.0 at ``k == a``, 0.0 at ``k == b``.
    Requires the series to cover index ``b - 1``.

    Exact for the driftless walk, whose products are all 1: the correctly
    rounded (b - k)/(b - a).  Otherwise the rounding of the table's
    ``log_prod`` entries, which grows with depth, sets the accuracy.

    Raises:
        RangeError: if ``b - 1 > series.n_max``.
    """
    if q.k == q.a:
        return 1.0
    if q.k == q.b:
        return 0.0
    if q.b - 1 > series.n_max:
        raise RangeError(f"query needs products up to {q.b - 1}, table stops at {series.n_max}")
    log_prod = series.log_prod
    top = log_prod[q.a : q.b].max()
    buf = np.empty(min(_SUM_LEAF, q.b - q.a))

    def shifted_sum(lo: int, hi: int) -> float:
        """sum(exp(log_prod[lo:hi] - top)), one piece of ``buf`` at a time."""
        pieces = []
        for i in range(lo, hi, _SUM_LEAF):
            t = buf[: min(_SUM_LEAF, hi - i)]
            np.exp(np.subtract(log_prod[i : i + len(t)], top, out=t), out=t)
            pieces.append(t.sum())
        return math.fsum(pieces)

    num = shifted_sum(q.k, q.b)
    return num / (shifted_sum(q.a, q.k) + num)


@dataclass(frozen=True)
class ReturnProbability:
    """Return probability P(hit 0 | start 1) with a truncation bracket.

    value is the midpoint of [lower, upper].  All three coincide where the
    answer is exact: 1 for recurrent walks, and rho = (1-p)/p for transient
    constant walks, whose geometric remainder is summed in closed form.
    method records how the bracket was obtained: "exact-recurrent",
    "geometric-tail" for constant drift, or "integral-bound" for the
    proven two-sided bound on a perturbed walk's remainder.
    """

    value: float
    lower: float
    upper: float
    n_terms: int
    method: str


def _log_tail_bounds(series: ProductSeries) -> tuple[float, float]:
    """Logs of a lower and an upper bound on T = sum_{j>N} P_j, N = ``series.n_max``.

    Sites N+1..M, M = max(N, i0), share i0's odds ratio rho_f < 1: a
    geometric sum.  Past M the drift lam is F' for F(x) = log x + ... +
    log_{k-1} x + beta log_k x, beta = |b| > 1, and integral comparison
    (Knopp, *Infinite Series*, §14; the README's ``return`` paragraph) gives
    P_M e^(F(M) - E) I <= sum_{j>M} P_j <= P_M e^(F(M+1)) I, with
    I = (log_{k-1}(M+1))^(1-beta)/(beta - 1) and E = M lam_M^3/(24(1 - lam_M^2/4)).
    """
    spec, n = series.spec, series.n_max
    beta, m = abs(spec.b), max(n, spec.i0)
    log_rho_f = float(log_rho_array(spec, np.array([1]))[0])
    lam = 4.0 * abs(float(signed_drift_array(spec, np.array([m]))[0]))
    f = []  # F(M), F(M+1)
    for x in (m, m + 1):
        total, level = 0.0, float(x)
        for _ in range(spec.k - 1):
            level = math.log(level)
            total += level
        f.append(total + beta * math.log(level))
    # log P_M + log I, with level = log_{k-1}(M+1) from the last pass.
    log_pi = (float(series.log_prod[n]) + (m - n) * log_rho_f
              + (1.0 - beta) * math.log(level) - math.log(beta - 1.0))
    lo = log_pi + f[0] - m * lam**3 / (24.0 * (1.0 - lam * lam / 4.0))
    hi = log_pi + f[1]
    if m > n:  # sites N+1..M: P_N rho_f (1 - rho_f^(M-N)) / (1 - rho_f)
        head = float(series.log_prod[n]) + log_rho_f + math.log(
            math.expm1((m - n) * log_rho_f) / math.expm1(log_rho_f))
        lo, hi = np.logaddexp(head, lo), np.logaddexp(head, hi)
    return float(lo), float(hi)


def return_prob(series: ProductSeries) -> ReturnProbability:
    """Probability of ever hitting the origin from site 1, with bracket.

    Recurrent walks (by the closed-form classification) return exactly 1.
    Transient constant walks return rho = (1-p)/p, the sum of the whole
    geometric series S/(1+S), as one number: the remainder past the table
    is exact, so the bracket has no width to report.  Transient perturbed
    walks get [1 - 1/(S_N + T_lo), 1 - 1/(S_N + T_hi)] for the partial sum
    S_N over the whole table (N = ``series.n_max`` >= 1) and the bounds on
    the rest from ``_log_tail_bounds``, widened by the tables' 2 ulp on
    log S_N and then by one ulp at each end for the last rounding.  The
    width is reported, not judged: ``lmax return`` holds it to ``--tolerance``.
    """
    n = series.n_max
    if is_recurrent(series.spec):
        return ReturnProbability(1.0, 1.0, 1.0, n, "exact-recurrent")
    if isinstance(series.spec, ConstantWalk):
        r = rho(series.spec, 1)  # (1 - p)/p, with 1 - p exact for p > 1/2
        return ReturnProbability(r, r, r, n, "geometric-tail")
    # S/(1+S) = 1 - exp(-log(1+S)), stable for both tiny and huge S.
    log_s = float(series.log_prefix_sum[n])
    slack = 2.0 * math.ulp(log_s)
    log_lo, log_hi = _log_tail_bounds(series)
    lower = _escape_mass(float(np.logaddexp(log_s - slack, log_lo)), complement=True)
    upper = _escape_mass(float(np.logaddexp(log_s + slack, log_hi)), complement=True)
    lower, upper = math.nextafter(lower, 0.0), math.nextafter(upper, 1.0)
    return ReturnProbability(0.5 * (lower + upper), lower, upper, n, "integral-bound")

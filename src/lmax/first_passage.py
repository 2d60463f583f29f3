"""Two-boundary hitting probabilities and the total return probability.

For a walk started at k between absorbing levels a < b, the chance of
reaching a before b is a ratio of partial sums of the odds-ratio
products:

    P_k(a, b) = sum_{j=k}^{b-1} rho_{a+1}...rho_j
                ------------------------------------
                1 + sum_{j=a+1}^{b-1} rho_{a+1}...rho_j

Both sums are evaluated as log-sum-exp over slices of the global
``ProductSeries`` table: each inner product is exp(log_prod[j] -
log_prod[a]), and the common -log_prod[a] offset cancels between
numerator and denominator, so the slices are used as they are.  The
denominator reuses the numerator: it is the log-sum-exp of the j < k
terms log-added to the numerator's, so the ratio cannot exceed 1 and each
entry of [a, b) is summed once.

Letting b grow to infinity turns the same ratio into the probability of
ever returning to the origin from site 1: S/(1+S) with S the full series
of products, which is 1 exactly when the series diverges (the recurrent
case).  ``return_prob`` reports that limit with an explicit truncation
bracket in the transient case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import ShapeTarget, log_shape, resolve_shape
from .classify import is_recurrent
from .errors import RangeError
from .series import ProductSeries, _escape_mass
from .walk import ConstantWalk, iterated_log, rho

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
        if not (0 <= self.a <= self.k <= self.b):
            raise RangeError(f"need 0 <= a <= k <= b, got a={self.a}, k={self.k}, b={self.b}")


# Longest piece that ``_logsumexp`` shifts and exponentiates at once.
_SUM_LEAF = 1 << 16


def _pairwise(leaf, lo: int, hi: int):
    """Sum of ``leaf(i, j)`` over pieces of [lo, hi), split where numpy's pairwise sum splits.

    ``np.sum`` of a float64 array halves it (the first half rounded down to
    a multiple of 8) until a piece has at most 128 entries; a piece of up
    to ``_SUM_LEAF`` entries is summed by ``np.sum`` itself, so the result
    is ``np.sum`` of the whole bit for bit, without the whole in memory.
    """
    n = hi - lo
    if n <= _SUM_LEAF:
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise(leaf, lo, lo + half) + _pairwise(leaf, lo + half, hi)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite, non-empty 1-D array.

    Follows ``scipy.special.logsumexp`` (1.17) step for step, so results
    are bitwise equal: the maximal entries are split out of the shifted
    sum, which is scaled by their count m before ``log1p``.  The shifted
    terms are made and summed one piece of at most ``_SUM_LEAF`` entries at
    a time (``_pairwise``), so the scratch does not grow with the slice.
    """
    a_max = a.max()
    m = 0

    def leaf(lo: int, hi: int):
        nonlocal m
        t = a[lo:hi] - a_max
        at_max = t == 0  # a - a_max is 0 only where a == a_max
        m += int(np.count_nonzero(at_max))
        np.exp(t, out=t)
        t[at_max] = 0.0
        return t.sum()

    s = _pairwise(leaf, 0, len(a))
    if s != 0:
        s /= m
    return float(np.log1p(s) + np.log(m) + a_max)


def hit_before(series: ProductSeries, q: HittingQuery) -> float:
    """Probability that the walk hits level ``q.a`` before ``q.b`` from ``q.k``.

    Boundary starts are exact: 1.0 at ``k == a``, 0.0 at ``k == b``.
    Requires the series to cover index ``b - 1``.

    Raises:
        RangeError: if ``b - 1 > series.n_max``.
    """
    if q.k == q.a:
        return 1.0
    if q.k == q.b:
        return 0.0
    if q.b - 1 > series.n_max:
        raise RangeError(f"query needs products up to {q.b - 1}, table stops at {series.n_max}")
    # Numerator: j in [k, b); denominator: 1 + sum over j in (a, b), where
    # the leading 1 is the j = a term exp(log_prod[a] - log_prod[a]).  The
    # denominator adds the j in [a, k) terms to the numerator, so it is never
    # smaller and the ratio is at most 1.
    log_num = _logsumexp(series.log_prod[q.k : q.b])
    log_den = float(np.logaddexp(_logsumexp(series.log_prod[q.a : q.k]), log_num))
    return math.exp(log_num - log_den)


@dataclass(frozen=True)
class ReturnProbability:
    """Return probability P(hit 0 | start 1) with a truncation bracket.

    value is the midpoint of [lower, upper].  All three coincide where the
    answer is exact: 1 for recurrent walks, and rho = (1-p)/p for transient
    constant walks, whose geometric remainder is summed in closed form.
    method records how the bracket was obtained: "exact-recurrent",
    "geometric-tail" for constant drift, or "shape-tail" for the fitted
    asymptotic tail.
    """

    value: float
    lower: float
    upper: float
    n_terms: int
    method: str


def _log_tail_estimate(series: ProductSeries) -> float:
    """log of an integral tail bound for a convergent perturbed product series.

    The products decay like c * shape(n) with shape a product of
    iterated-log powers whose deepest exponent beta exceeds 1; the sum
    beyond n_max is estimated by the integral
    c * (log_{depth} n_max)^(1-beta) / (beta - 1), with c fitted at n_max.
    """
    n = series.n_max
    shape = resolve_shape(series.spec, ShapeTarget.PRODUCT)
    deepest = max(d for d, _ in shape.factors)
    beta = next(e for d, e in shape.factors if d == deepest)
    log_c = float(series.log_prod[n]) - log_shape(shape, n)
    return log_c + (1.0 - beta) * math.log(iterated_log(deepest, float(n))) - math.log(beta - 1.0)


def return_prob(series: ProductSeries) -> ReturnProbability:
    """Probability of ever hitting the origin from site 1, with bracket.

    Recurrent walks (by the closed-form classification) return exactly 1.
    Transient constant walks return rho = (1-p)/p, the sum of the whole
    geometric series S/(1+S), as one number: the remainder past the table
    is exact, so the bracket has no width to report.  Transient perturbed
    walks get [S_N/(1+S_N), (S_N+T)/(1+S_N+T)] where S_N is the partial
    sum over the whole table (N = ``series.n_max``) and T the tail
    estimate, a documented heuristic, not a proven enclosure, since T uses
    a constant fitted at n_max.  The width is reported, not judged:
    ``lmax return`` holds it to ``--tolerance``.

    Raises:
        DomainError: if a shape-tail table stops below the shape's ``n_min_valid``.
    """
    n = series.n_max
    if is_recurrent(series.spec):
        return ReturnProbability(1.0, 1.0, 1.0, n, "exact-recurrent")
    if isinstance(series.spec, ConstantWalk):
        r = rho(series.spec, 1)  # (1 - p)/p, with 1 - p exact for p > 1/2
        return ReturnProbability(r, r, r, n, "geometric-tail")
    # S/(1+S) = 1 - exp(-log(1+S)), stable for both tiny and huge S.
    log_one_plus_s = float(series.log_prefix_sum[n])
    lower = _escape_mass(log_one_plus_s, complement=True)
    log_tail = _log_tail_estimate(series)
    upper = _escape_mass(float(np.logaddexp(log_one_plus_s, log_tail)), complement=True)
    return ReturnProbability(0.5 * (lower + upper), lower, upper, n, "shape-tail")

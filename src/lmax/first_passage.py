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

"""Two-boundary hitting probabilities and the total return probability.

For a walk started at k between absorbing levels a < b, the chance of
reaching a before b is a ratio of partial sums of the odds-ratio
products:

    P_k(a, b) = sum_{j=k}^{b-1} rho_{a+1}...rho_j
                ------------------------------------
                1 + sum_{j=a+1}^{b-1} rho_{a+1}...rho_j

For a constant walk both sums are geometric in r = e^L and the ratio is
Feller's gambler's ruin, (r^(k-a) - r^(b-a))/(1 - r^(b-a)) (*An
Introduction to Probability Theory*, vol. 1, §XIV.2), evaluated from
``expm1`` with no table entry read.  For a perturbed walk both sums are
read off one slice of the global ``ProductSeries`` table: each inner
product is exp(log_prod[j] - log_prod[a]).  The terms are shifted by the
window's largest log product instead, since any common offset cancels
between numerator and denominator; the largest term is then 1 and none
overflows.  The denominator is the j < k terms added to the numerator,
so the ratio cannot exceed 1 and each entry of [a, b) is summed once.

Letting b grow to infinity turns the same ratio into the probability of
ever returning to the origin from site 1: S/(1+S) with S the full series
of products, which is 1 exactly when the series diverges (the recurrent
case).  ``return_prob`` reports that limit with a proven enclosure of
the truncated remainder in the transient case: each end is evaluated
once in 40-digit ``decimal`` and its nearest double stepped one ulp
outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import _on_threads
from .classify import is_recurrent
from .constant import _hit_constant
from .errors import RangeError
from .series import ProductSeries, _exp
from .spec import HittingQuery
from .walk import ConstantWalk, rho, signed_drift_array

__all__ = [
    "HittingQuery",
    "hit_before",
    "ReturnProbability",
    "return_prob",
]


# Longest piece of a window that ``hit_before`` sums at once.
_SUM_LEAF = 1 << 16
# numpy's pairwise ``sum`` adds up to this many terms in one loop; a longer
# piece it splits in two at the top (``_halves``).
_PAIRWISE_LEAF = 128


def _halves(lo: int, hi: int) -> list[slice]:
    """Entries lo..hi - 1 as numpy's pairwise ``sum`` splits them at the top: one slice or two.

    For n = hi - lo > 128 the halves meet at n2 = n//2 - (n//2) % 8, and
    ``sum`` of the whole is ``sum`` of the first half plus ``sum`` of the
    second, bit for bit, for terms that are not -0.0.
    """
    n = hi - lo
    if n <= _PAIRWISE_LEAF:
        return [slice(lo, hi)]
    n2 = n // 2 - (n // 2) % 8
    return [slice(lo, lo + n2), slice(lo + n2, hi)]


def hit_before(series: ProductSeries, q: HittingQuery) -> float:
    """Probability that the walk hits level ``q.a`` before ``q.b`` from ``q.k``.

    Boundary starts are exact: 1.0 at ``k == a``, 0.0 at ``k == b``.
    Requires the series to cover index ``b - 1``.

    A constant walk reads no table entry: its two sums are geometric, and
    the closed form (``_hit_constant``) lies within 4 ulp of the exact
    ratio at the tables' rounded L at any depth; the driftless walk gets
    the correctly rounded (b - k)/(b - a).  A perturbed walk sums its
    window of the table (``ProductSeries.at``), whose ``log_prod``
    rounding, which grows with depth, sets the accuracy.  Each side of
    ``k`` is cut into pieces of ``_SUM_LEAF`` entries, each piece into the
    two halves numpy's pairwise ``sum`` makes (``_halves``).  A window
    longer than one piece takes its largest log, then its shifted and
    exponentiated halves, on two threads, each with a buffer of half a
    piece; the caller adds each piece's halves as ``sum`` does and takes
    ``math.fsum`` of each side's pieces.  So the bits do not depend on the
    threads, and the scratch is that of one piece on one thread.

    Raises:
        RangeError: if ``b - 1 > series.n_max``.
    """
    if q.k == q.a:
        return 1.0
    if q.k == q.b:
        return 0.0
    if q.b - 1 > series.n_max:
        raise RangeError(f"query needs products up to {q.b - 1}, table stops at {series.n_max}")
    if isinstance(series.spec, ConstantWalk):
        return _hit_constant(series.spec.p, q)
    log_prod = series.at(range(q.a, q.b))[0]  # entries a .. b - 1: a slice of a held table
    m, w = q.k - q.a, q.b - q.a
    pieces = [(side, _halves(i, min(i + _SUM_LEAF, hi)))
              for side, (lo, hi) in enumerate(((0, m), (m, w))) for i in range(lo, hi, _SUM_LEAF)]
    parts = [h for _, halves in pieces for h in halves]
    items, workers = range(len(parts)), 2 if w > _SUM_LEAF else 1
    tops, sums = np.empty(len(parts)), np.empty(len(parts))

    def part_max(j: int) -> None:
        tops[j] = log_prod[parts[j]].max()

    def shifted_sum(j: int, buf: np.ndarray) -> None:
        """sum(exp(log_prod[part] - top)) of part j, through this thread's buffer."""
        t = buf[: parts[j].stop - parts[j].start]
        np.subtract(log_prod[parts[j]], top, out=t)
        sums[j] = _exp(t, t).sum()

    _on_threads(part_max, items, workers)
    top = tops.max()
    longest = max(h.stop - h.start for h in parts)
    _on_threads(shifted_sum, items, workers, lambda: (np.empty(longest),))
    part_sums, side_sums = iter(sums), ([], [])
    for side, halves in pieces:
        first = next(part_sums)
        side_sums[side].append(first + next(part_sums) if len(halves) == 2 else first)
    num = math.fsum(side_sums[1])
    return num / (math.fsum(side_sums[0]) + num)


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


def _bracket(series: ProductSeries) -> tuple[float, float]:
    """``1 - 1/(S_N + T)`` for a lower and an upper bound on T = sum_{j>N} P_j.

    N = ``series.n_max``.  Sites N+1..M, M = max(N, i0), share i0's odds
    ratio rho_f < 1: a geometric sum.  Past M the drift lam is F' for
    F(x) = log x + ... + log_{k-1} x + beta log_k x, beta = |b| > 1, and
    integral comparison (Knopp, *Infinite Series*, §14; the README's
    ``return`` paragraph) gives
    P_M e^(F(M) - E) I <= sum_{j>M} P_j <= P_M e^(F(M+1)) I, with
    I = (log_{k-1}(M+1))^(1-beta)/(beta - 1) and E = M lam_M^3/(24(1 - lam_M^2/4)).

    Each end is evaluated in 40-digit ``decimal`` from the three table
    doubles log S_N, log P_N and log rho_f, the table's log P_1 (site 1 <=
    i0), each taken as within 2 ulp and moved 2 ulp toward that end, which
    rises with all three; the double drift lam_M is taken as it is.  T's main term is
    summed in logs and exponentiated once, so no power of a deep level
    overflows.  Each 40-digit operation errs by 5e-40 of its result; the
    logs summed into log T stay below 1e18 in size (|b| and the sites are
    below 2^53), and the differences exp(log S_N) - 1, 1 - rho_f and
    1 - lam^2/4 lose at most 17 digits, as S_N - 1 >= rho_f, 1 - rho_f and
    1 - lam^2/4 all exceed 5e-17 (lam is a double below 2, i0 <= 2^53).
    So each end is exact to far better than half an ulp, and one
    ``math.nextafter`` step past its rounding to the nearest double
    contains it.
    """
    import decimal  # only transient perturbed walks pay for this import

    spec, n = series.spec, series.n_max
    beta, m = abs(spec.b), max(n, spec.i0)
    lam = 4.0 * abs(float(signed_drift_array(spec, range(m, m + 1))[0]))
    log_p, log_s = series.at([1, n])
    table = (float(log_s[1]), float(log_p[1]), float(log_p[0]))
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
        D, b = decimal.Decimal, decimal.Decimal(beta)

        def levels(x: int) -> tuple[decimal.Decimal, decimal.Decimal]:
            """log x + ... + log_{k-1} x and log_{k-1} x."""
            total, level = D(0), D(x)
            for _ in range(spec.k - 1):
                level = level.ln()
                total += level
            return total, level

        at_m, past_m = levels(m), levels(m + 1)
        log_i = (1 - b) * past_m[1].ln() - (b - 1).ln()

        def end(toward: float) -> float:
            log_s, log_p, log_r = (D(x) + D(math.copysign(2.0 * math.ulp(x), toward))
                                   for x in table)
            # F(M) less E at the lower end, F(M+1) at the upper.
            total, level = at_m if toward < 0 else past_m
            log_t = log_p + (m - n) * log_r + total + b * level.ln() + log_i
            if toward < 0:
                lm = D(lam)
                log_t -= m * lm ** 3 / (24 * (1 - lm * lm / 4))
            t = log_t.exp()
            if m > n:  # sites N+1..M: P_N rho_f (1 - rho_f^(M-N)) / (1 - rho_f)
                r = log_r.exp()
                t += log_p.exp() * r * (1 - ((m - n) * log_r).exp()) / (1 - r)
            s1 = log_s.exp() - 1 + t  # S - 1
            return math.nextafter(float(s1 / (s1 + 1)), toward)

        return end(-math.inf), end(math.inf)


def return_prob(series: ProductSeries) -> ReturnProbability:
    """Probability of ever hitting the origin from site 1, with bracket.

    Recurrent walks (by the closed-form classification) return exactly 1.
    Transient constant walks return rho = (1-p)/p, the sum of the whole
    geometric series S/(1+S), as one number: the remainder past the table
    is exact, so the bracket has no width to report.  Transient perturbed
    walks get [1 - 1/(S_N + T_lo), 1 - 1/(S_N + T_hi)] for the partial sum
    S_N over the whole table (N = ``series.n_max`` >= 1) and the bounds
    T_lo, T_hi on the rest, each end evaluated once in 40 digits from the
    table's logs widened by their 2 ulp and rounded outward (``_bracket``).
    The width is reported, not judged: ``lmax return`` holds it to
    ``--tolerance``.
    """
    n = series.n_max
    if is_recurrent(series.spec):
        return ReturnProbability(1.0, 1.0, 1.0, n, "exact-recurrent")
    if isinstance(series.spec, ConstantWalk):
        r = rho(series.spec, 1)  # (1 - p)/p, with 1 - p exact for p > 1/2
        return ReturnProbability(r, r, r, n, "geometric-tail")
    lower, upper = _bracket(series)
    return ReturnProbability(0.5 * (lower + upper), lower, upper, n, "integral-bound")

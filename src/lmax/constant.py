"""A constant walk's closed forms, in scalar arithmetic: no table and no numpy.

A constant walk has one odds ratio r = (1 - p)/p = e^L.  Its products and
prefix sums are geometric (Feller, *An Introduction to Probability
Theory*, vol. 1, §XIV.2), so ``series`` fills its tables from L and the
first prefix sums rounded once here, and ``first_passage`` answers a
hitting query from L alone (``_hit_constant``), reading no entry.  Both
are exported from those modules too.
"""

from __future__ import annotations

import functools
import math

from .spec import HittingQuery

__all__ = ["log_odds"]


def log_odds(p: float) -> float:
    """``L = log((1 - p)/p)``, correctly rounded for every double ``p`` in (0, 1).

    Evaluated in 40-digit decimal arithmetic from the exact value of ``p``:
    in doubles, ``p - 1/2`` drops the low digits of a small ``p``, and
    ``1 - p`` those of ``L`` for ``p`` near 1/2.
    """
    return _constant_logs(p, 0)[0]


def _constant_logs(p: float, n: int) -> tuple[float, float, float, list]:
    """``L``, ``expm1(|L|)``, its log and ``[log S_1, ..., log S_n]`` of a constant walk.

    Each is rounded once from 40-digit decimal arithmetic.  ``expm1(|L|)``
    is max(r, 1/r) - 1 for r = (1 - p)/p: from the rounded ``L`` it would
    carry |L| times L's rounding error (3.5 ulp at p = 1 - 2^-53).  Its log
    stays finite where it overflows (p below 1/DBL_MAX).
    """
    import decimal  # only constant walks pay for this import

    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(p)
        r = (1 - x) / x
        logs, term, total = [], r, 1 + r
        for _ in range(n):
            logs.append(float(total.ln()))
            term *= r
            total += term
        m1 = max(r, 1 / r) - 1
        return float(r.ln()), float(m1), float(m1.ln()), logs


@functools.lru_cache(maxsize=64)
def _split_log_odds(p: float) -> tuple[float, float, float]:
    """``L = log_odds(p)``, the double the tables take, and its Veltkamp split (hi, lo).

    hi + lo = L exactly, and hi has at most 26 significant bits, so m hi is
    exact for every integer m < 2^27 (Dekker 1971).
    """
    L = log_odds(p)
    c = 134217729.0 * L  # 2^27 + 1
    hi = c - (c - L)
    return L, hi, L - hi


def _hit_constant(p: float, q: HittingQuery) -> float:
    """Feller's gambler's ruin at r = e^L: (r^(k-a) - r^(b-a))/(1 - r^(b-a)).

    With m = k - a, u = b - k and A = expm1(uL), it is A/expm1(-(b-a)L) for
    L > 0 and A/(A - expm1(-mL)) for L < 0, where the two terms of the
    denominator share a sign.  expm1(-mL) is taken from the split of L as
    expm1(-m hi) + exp(-m hi) expm1(-m lo): a rounded product mL would pass
    half an ulp of m|L| into it as a relative error m|L| times larger.
    Past e^700 that overflows, and the ratio is r^m (-A) = exp(m hi)
    exp(m lo) (-A).  Each expm1 argument rounded is negative, where a
    relative error of the argument passes to the result damped.  Boundary
    starts are exact, as in ``hit_before``: 1.0 at k = a and 0.0 at k = b,
    where the ratio would be -0.0.
    """
    if q.k == q.a:
        return 1.0
    if q.k == q.b:
        return 0.0
    L, hi, lo = _split_log_odds(p)
    m, u = q.k - q.a, q.b - q.k
    if L == 0.0:
        return u / (q.b - q.a)
    a = math.expm1(-u * abs(L))
    if L > 0.0:
        return a / math.expm1(-(q.b - q.a) * L)
    if -m * hi > 700.0:
        return math.exp(m * hi) * (math.exp(m * lo) * -a)
    e = math.exp(-m * hi)
    return a / (a - (math.expm1(-m * hi) + e * math.expm1(-m * lo)))

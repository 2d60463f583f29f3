"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's log-space pipeline:
hitting probabilities come from a direct linear-algebra solve of the
harmonic system, pmf values from closed forms evaluated in high
precision, series sums from naive high-precision accumulation.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from lmax import step_up_prob


def hit_probs_banded(spec, a: int, b: int) -> np.ndarray:
    """Solve P_k = p_k P_{k+1} + q_k P_{k-1}, P_a = 1, P_b = 0 directly.

    Returns the vector P_a..P_b from a dense solve of the tridiagonal
    system; only sensible for small b (the acceptance suite uses b <= 12).
    """
    m = b - a + 1
    mat = np.zeros((m, m))
    rhs = np.zeros(m)
    mat[0, 0] = mat[m - 1, m - 1] = 1.0
    rhs[0] = 1.0
    for idx in range(1, m - 1):
        pk = step_up_prob(spec, a + idx)
        mat[idx, idx - 1] = 1.0 - pk
        mat[idx, idx] = -1.0
        mat[idx, idx + 1] = pk
    return np.linalg.solve(mat, rhs)


def geometric_pmf(p: float, n: int) -> mp.mpf:
    """Closed-form P(M=n, D<inf) for constant drift, any rho != 1.

    From geometric partial sums: (1-rho)^2 rho^n / ((1-rho^n)(1-rho^(n+1))).
    Evaluated in 50-digit arithmetic so the oracle's own rounding is nil.
    """
    with mp.workdps(50):
        rho = (1 - mp.mpf(p)) / mp.mpf(p)
        return (1 - rho) ** 2 * rho**n / ((1 - rho**n) * (1 - rho ** (n + 1)))


def symmetric_pmf(n: int) -> float:
    """P(M=n, D<inf) = 1/(n(n+1)) for the driftless walk."""
    return 1.0 / (n * (n + 1.0))


def telescoping_pmf(n: int) -> float:
    """Exact pmf for the depth-1 "minus" walk with b=1.

    There rho_i = (2i+1)/(2i-1), the products telescope to 2n+1, the
    prefix sums to (n+1)^2, and the pmf collapses to 1/n^2 - 1/(n+1)^2.
    """
    return 1.0 / n**2 - 1.0 / (n + 1.0) ** 2


def closed_masses(kind: str, n: int, p: float = 0.5) -> tuple[float, float]:
    """(P(M <= n, D < inf), 1/S_n) from S_n in closed form, in 40 digits.

    S_n = 1 + sum_{j<=n} rho_1...rho_j, so the running mass of M is
    1 - 1/S_n and the escape mass (reach n+1 before 0) is 1/S_n.  ``kind``
    is "symmetric" (S_n = n + 1), "telescoping" (the depth-1 "minus" walk
    with b=1, S_n = (n+1)^2) or "geometric" (constant p != 1/2,
    S_n = (rho^(n+1) - 1)/(rho - 1)).  Both are rounded once, at the end.
    """
    with mp.workdps(40):
        if kind == "symmetric":
            s = mp.mpf(n + 1)
        elif kind == "telescoping":
            s = mp.mpf(n + 1) ** 2
        else:
            rho = (1 - mp.mpf(p)) / mp.mpf(p)
            s = (rho ** (n + 1) - 1) / (rho - 1)
        return float(1 - 1 / s), float(1 / s)


def brute_prefix_sum(rhos) -> mp.mpf:
    """1 + sum of running products, summed naively in 50-digit arithmetic."""
    with mp.workdps(50):
        total = mp.mpf(1)
        prod = mp.mpf(1)
        for r in rhos:
            prod *= mp.mpf(r)
            total += prod
        return total


def hit_prob_from_drifts(deltas, a: int, k: int, b: int) -> mp.mpf:
    """P_k(a, b) from the ratio of product sums, in 50-digit arithmetic.

    ``deltas[i - 1]`` is the double delta_i (``signed_drift_array``) for
    sites i = 1..b-1; each rho_i = (1 - 2 delta_i)/(1 + 2 delta_i) is formed
    from it in 50 digits, so the only rounding is in the walk's own drifts.
    """
    with mp.workdps(50):
        prods = [mp.mpf(1)]  # prods[j - a] = rho_{a+1} ... rho_j
        for d in deltas[a : b - 1]:
            d = mp.mpf(float(d))
            prods.append(prods[-1] * (1 - 2 * d) / (1 + 2 * d))
        return mp.fsum(prods[k - a :]) / mp.fsum(prods)


def depth1_log_tables(spec, n: int) -> tuple[mp.mpf, mp.mpf]:
    """50-digit (log P_n, log S_n) of a depth-1 walk (k = 1) at any n, in closed form.

    rho_i = (i - beta)/(i + beta), beta = b/2 on "plus" and -b/2 on "minus",
    frozen at rho_f below i0.  P_n is a Gamma ratio and S_n telescopes:
    with c = rho_f^(i0-1) Gamma(i0+beta)/Gamma(i0-beta),

        P_n = c Gamma(n+1-beta)/Gamma(n+1+beta)                    (n >= i0 - 1)
        S_n = A - c/(2 beta - 1) Gamma(n+2-beta)/Gamma(n+1+beta),
        A   = sum_{m<i0} rho_f^m + rho_f^(i0-1) (i0-beta)/(2 beta - 1),

    and at beta = 1/2 the sum is harmonic: S_n = sum_{m<i0} rho_f^m +
    rho_f^(i0-1)(i0 - 1/2)(psi(n + 3/2) - psi(i0 + 1/2)).  The rho_i are the
    exact rationals, not the library's double drifts.
    """
    with mp.workdps(50):
        beta = mp.mpf(spec.b) / 2 * (1 if spec.sign == "plus" else -1)
        i0 = spec.i0
        rf = (i0 - beta) / (i0 + beta)
        if n < i0 - 1:
            return n * mp.log(rf), mp.log(mp.fsum(rf**m for m in range(n + 1)))
        head = mp.fsum(rf**m for m in range(i0))
        log_c = (i0 - 1) * mp.log(rf) + mp.loggamma(i0 + beta) - mp.loggamma(i0 - beta)
        log_p = log_c + mp.loggamma(n + 1 - beta) - mp.loggamma(n + 1 + beta)
        if beta == mp.mpf(1) / 2:
            s = head + rf ** (i0 - 1) * (i0 - beta) * (mp.digamma(n + 1.5) - mp.digamma(i0 + 0.5))
        else:
            tail = mp.exp(log_c + mp.loggamma(n + 2 - beta) - mp.loggamma(n + 1 + beta))
            s = head + (rf ** (i0 - 1) * (i0 - beta) - tail) / (2 * beta - 1)
        return log_p, mp.log(s)


def geometric_log_tables(p: float, n: int) -> tuple[mp.mpf, mp.mpf]:
    """50-digit (log P_n, log S_n) of the constant walk: P_n = r^n, S_n = sum_{j<=n} r^j."""
    with mp.workdps(50):
        r = (1 - mp.mpf(p)) / mp.mpf(p)
        s = n + 1 if r == 1 else (r ** (n + 1) - 1) / (r - 1)
        return n * mp.log(r), mp.log(s)


def drift_log_tables(spec, n_max: int, rows) -> dict:
    """40-digit {n: (log P_n, log S_n)} at ``rows`` of any walk, from its double drifts.

    Each rho_i = (1 - 2 delta_i)/(1 + 2 delta_i) is formed in 40-digit
    decimal arithmetic from the double delta_i of ``signed_drift_array`` (for
    a constant walk, from ``p`` itself), and the products and sums are
    accumulated in 40 digits, so the only rounding left is the walk's own.
    ``decimal`` keeps a 1e5-site loop to a fraction of a second.
    """
    import decimal

    from lmax import ConstantWalk
    from lmax.walk import signed_drift_array

    want = set(rows)
    out = {0: (mp.mpf(0), mp.mpf(0))} if 0 in want else {}
    with decimal.localcontext() as ctx, mp.workdps(50):
        ctx.prec = 40
        one, two = decimal.Decimal(1), decimal.Decimal(2)
        if isinstance(spec, ConstantWalk):
            p = decimal.Decimal(spec.p)
            rhos = [(one - p) / p] * n_max
        else:
            deltas = map(decimal.Decimal, signed_drift_array(spec, range(1, n_max + 1)).tolist())
            rhos = ((one - two * d) / (one + two * d) for d in deltas)
        prod, total = one, one
        for n, r in enumerate(rhos, start=1):
            prod *= r
            total += prod
            if n in want:
                out[n] = (mp.mpf(str(prod.ln())), mp.mpf(str(total.ln())))
    return out


def return_prob_from_drifts(spec, m: int = 4000) -> mp.mpf:
    """50-digit P(return) of a transient depth-1 walk from its double drifts.

    Sites 1..m take rho_i = (1 - 2 delta_i)/(1 + 2 delta_i) from the double
    delta_i of ``signed_drift_array``, formed in 50 digits, and their
    products and sums are accumulated exactly.  Past m (which must be at
    least i0) rho_i = (i - c)/(i + c), c = |b|/2, and the products telescope:
    sum_{j>m} P_j = P_m (m + 1 - c)/(2c - 1), a Gamma-ratio sum with
    2c > 1.  P(return) = 1 - 1/S_inf.
    """
    from lmax.walk import signed_drift_array

    assert spec.k == 1 and m >= spec.i0
    with mp.workdps(50):
        prod, total = mp.mpf(1), mp.mpf(1)
        for d in signed_drift_array(spec, range(1, m + 1)).tolist():
            d = mp.mpf(d)
            prod *= (1 - 2 * d) / (1 + 2 * d)
            total += prod
        c = abs(mp.mpf(spec.b)) / 2
        return 1 - 1 / (total + prod * (m + 1 - c) / (2 * c - 1))


def ulps(got: float, want) -> float:
    """|got - want| in ulps of the double nearest ``want``; 0 where both overflow alike."""
    nearest = float(want)
    if math.isinf(nearest):
        return 0.0 if got == nearest else math.inf
    return float(abs(mp.mpf(got) - want)) / math.ulp(abs(nearest))

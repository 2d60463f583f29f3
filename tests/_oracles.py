"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's log-space pipeline:
hitting probabilities come from a direct linear-algebra solve of the
harmonic system, pmf values from closed forms evaluated in high
precision, series sums from naive high-precision accumulation.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.linalg import solve_banded

from lmax import step_up_prob


def hit_probs_banded(spec, a: int, b: int) -> np.ndarray:
    """Solve P_k = p_k P_{k+1} + q_k P_{k-1}, P_a = 1, P_b = 0 directly.

    Returns the vector P_a..P_b from a tridiagonal solve; only sensible
    for small b (the acceptance suite uses b <= 12).
    """
    m = b - a + 1
    ab = np.zeros((3, m))
    rhs = np.zeros(m)
    ab[1, 0] = 1.0
    rhs[0] = 1.0
    ab[1, m - 1] = 1.0
    for idx in range(1, m - 1):
        site = a + idx
        pk = step_up_prob(spec, site)
        ab[2, idx - 1] = 1.0 - pk
        ab[1, idx] = -1.0
        ab[0, idx + 1] = pk
    return solve_banded((1, 1), ab, rhs)


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

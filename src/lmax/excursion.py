"""Exact distribution of the highest point of an excursion.

An excursion starts at 1 and ends at D, the first visit to 0; M is the
largest site visited on the way.  The event {M = n, D finite} factors
into "reach n before 0" times "then return to 0 before n+1", and both
factors collapse into one closed form in the odds-ratio products:

    P(M = n, D < inf) = rho_1...rho_n
                        --------------------------------------------
                        (1 + sum_{j<n} rho_1...rho_j)(1 + sum_{j<=n} ...)

evaluated as exp(log_prod[n] - log_prefix_sum[n-1] - log_prefix_sum[n]) by
``ProductSeries.log_max_pmf``.

The same factors make the running mass telescope: summing the pmf over
m <= n leaves P(M <= n, D < inf) = 1 - 1/S_n with
S_n = 1 + sum_{j<=n} rho_1...rho_j = exp(log_prefix_sum[n]), and the tail
P(M >= n, D < inf) = 1/S_{n-1} - 1/S_inf.  The prefix sums give them as
-expm1(-log S) and exp(-log S), not as sums of pmf terms or 1 minus such
a sum.  They carry the rounding of the ``log_prefix_sum`` scan, which
grows with depth: 3-5 ulp within 300 rows on ``PerturbedWalk(2, 1.5,
"plus")``, and 1.2e-12 absolute at n = 1e6 on ``PerturbedWalk(1, 3.0,
"plus")`` (ROADMAP item 1, a compensated scan, is the remedy).

Tables are built in one vectorized pass over a ``ProductSeries``; the
linear pmf column flushes to 0 beneath double-precision underflow while
the log column stays informative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import RangeError
from .first_passage import return_prob
from .series import ProductSeries, _escape_mass
from .walk import step_up_prob

__all__ = [
    "MaxPmfTable",
    "max_pmf",
    "log_max_pmf",
    "max_pmf_table",
    "TailMass",
    "tail_mass",
]


@dataclass(frozen=True, eq=False)
class MaxPmfTable:
    """Tabulated law of M on {D < inf} for n = 1..n_max.

    Arrays are indexed directly by n with a placeholder at 0 (pmf 0.0,
    log_pmf -inf, cumulative 0.0), so ``cumulative[n]`` is P(M <= n).
    ``series`` keeps the underlying product table alive for tail queries.
    """

    spec: Any
    n_max: int
    log_pmf: np.ndarray
    pmf: np.ndarray
    cumulative: np.ndarray
    series: ProductSeries = field(repr=False)

    def _check(self, n: int) -> int:
        n = int(n)
        if not 1 <= n <= self.n_max:
            raise RangeError(f"n={n} outside table range 1..{self.n_max}")
        return n


def log_max_pmf(series: ProductSeries, n: int) -> float:
    """log P(M = n, D < inf); finite for every tabulated n."""
    n = int(n)
    if not 1 <= n <= series.n_max:
        raise RangeError(f"n={n} outside tabulated range 1..{series.n_max}")
    return float(series.log_max_pmf(n))


def max_pmf(series: ProductSeries, n: int) -> float:
    """P(M = n, D < inf) in linear scale.

    n = 1 is the one-step excursion and must equal q_1 exactly, not
    through an exp/log round trip; larger n exponentiates the log form
    with the table's ``np.exp``, so it equals ``max_pmf_table``'s entry.
    """
    log_pmf = log_max_pmf(series, n)
    if int(n) == 1:
        return 1.0 - step_up_prob(series.spec, 1)
    return float(np.exp(log_pmf))


def max_pmf_table(series: ProductSeries, n_max: int) -> MaxPmfTable:
    """Build the full table for n = 1..n_max in one vectorized pass.

    Raises:
        RangeError: if ``n_max`` exceeds the series range (or is < 1).
    """
    n_max = int(n_max)
    if not 1 <= n_max <= series.n_max:
        raise RangeError(f"n_max={n_max} outside series range 1..{series.n_max}")
    log_pmf = np.empty(n_max + 1)
    log_pmf[0] = -np.inf
    series.log_max_pmf(range(1, n_max + 1), out=log_pmf[1:])
    with np.errstate(under="ignore"):
        pmf = np.exp(log_pmf)
    pmf[0] = 0.0
    pmf[1] = 1.0 - step_up_prob(series.spec, 1)
    # 1 - 1/S_n is nondecreasing and <= 1 by construction; row 0 is
    # -expm1(-0) = 0 and row 1 is pinned to q_1 like the pmf.
    cumulative = np.empty(n_max + 1)
    _escape_mass(series.log_prefix_sum[: n_max + 1], complement=True, out=cumulative)
    cumulative[1] = pmf[1]
    return MaxPmfTable(
        spec=series.spec,
        n_max=n_max,
        log_pmf=log_pmf,
        pmf=pmf,
        cumulative=cumulative,
        series=series,
    )


@dataclass(frozen=True)
class TailMass:
    """P(M >= n, D < inf) with the bracket inherited from the return probability."""

    n: int
    value: float
    lower: float
    upper: float
    exact: bool


def tail_mass(table: MaxPmfTable, n: int) -> TailMass:
    """Mass at or above level n: the escape mass 1/S_{n-1} less 1/S_inf.

    1/S_inf = 1 - P(return) comes from the bracket of ``return_prob`` on
    the table's series.  Recurrent walks have 1/S_inf = 0 exactly, so they
    get the exact value 1/S_{n-1} with a degenerate bracket.
    """
    n = table._check(n)
    escape = _escape_mass(float(table.series.log_prefix_sum[n - 1]))
    rp = return_prob(table.series)
    return TailMass(
        n=n,
        value=max(0.0, escape - (1.0 - rp.value)),
        lower=max(0.0, escape - (1.0 - rp.lower)),
        upper=max(0.0, escape - (1.0 - rp.upper)),
        exact=rp.method == "exact-recurrent",
    )

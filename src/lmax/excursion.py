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
a sum, so they carry only the rounding of ``log_prefix_sum`` (the
README's accuracy paragraph bounds it) and of one ``expm1``.

``max_pmf_table`` is the only path to the law: P(M = n, D < inf) is
``table.pmf[n]`` and its log ``table.log_pmf[n]``.  ``log_max_pmf`` pins
row 1's log to log1p(-p_1), which a difference of logs loses for tiny
p_1, and the table pins the linear row 1 to q_1.  The table is built in
one vectorized pass over a ``ProductSeries``; the linear pmf column
flushes to 0 beneath double-precision underflow while the log column
stays informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import RangeError
from .first_passage import return_prob
from .series import ProductSeries, _escape_mass
from .walk import step_up_prob

__all__ = [
    "MaxPmfTable",
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
    p1 = step_up_prob(series.spec, 1)
    pmf[1] = 1.0 - p1
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
    """P(M >= n, D < inf) with the bracket inherited from the return probability.

    ``exact`` is true where that probability is exact (every method but
    ``"integral-bound"``), so value, lower and upper coincide.
    """

    n: int
    value: float
    lower: float
    upper: float
    exact: bool


def tail_mass(table: MaxPmfTable, n: int) -> TailMass:
    """Mass at or above level n: the escape mass 1/S_{n-1} less 1/S_inf.

    1/S_inf = 1 - P(return) comes from the bracket of ``return_prob`` on
    the table's series.  Recurrent walks have 1/S_inf = 0 exactly, and
    both get an exact value with a degenerate bracket.  On transient
    constant walks the difference is P_n/S_{n-1}, read off the logs with
    no subtraction; at n = 1 it is the return probability itself.
    """
    n = table._check(n)
    series = table.series
    rp = return_prob(series)
    if rp.method == "geometric-tail":
        value = rp.value if n == 1 else math.exp(series.log_prod[n] - series.log_prefix_sum[n - 1])
        return TailMass(n=n, value=value, lower=value, upper=value, exact=True)
    escape = _escape_mass(float(series.log_prefix_sum[n - 1]))
    return TailMass(
        n=n,
        value=max(0.0, escape - (1.0 - rp.value)),
        lower=max(0.0, escape - (1.0 - rp.lower)),
        upper=max(0.0, escape - (1.0 - rp.upper)),
        exact=rp.method != "integral-bound",
    )

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

Tables are built in one vectorized pass over a ``ProductSeries``; the
linear pmf column flushes to 0 beneath double-precision underflow while
the log column stays informative.  Cumulative mass uses compensated
summation so that normalization checks hold at 1e-9 absolute even for
multi-million-row tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .classify import is_recurrent
from .errors import RangeError
from .first_passage import TruncationOptions, return_prob
from .numerics import compensated_cumsum
from .series import ProductSeries
from .walk import spec_params, step_up_prob

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
    meta: dict = field(repr=False)

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
    through an exp/log round trip; larger n exponentiates the log form.
    """
    n = int(n)
    if n == 1:
        if series.n_max < 1:
            raise RangeError("series is empty")
        return 1.0 - step_up_prob(series.spec, 1)
    return math.exp(log_max_pmf(series, n))


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
    cumulative = np.empty(n_max + 1)
    cumulative[0] = 0.0
    cumulative[1:] = compensated_cumsum(pmf[1:])
    # Invariant: nondecreasing and <= 1.  Compensated partial sums of
    # nonnegative terms can overshoot 1 by rounding and dip one ulp at
    # chunk seams; clamp both ways.
    np.minimum(cumulative, 1.0, out=cumulative)
    np.maximum.accumulate(cumulative, out=cumulative)
    meta = dict(spec_params(series.spec))
    meta["n_max"] = n_max
    meta["built"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return MaxPmfTable(
        spec=series.spec,
        n_max=n_max,
        log_pmf=log_pmf,
        pmf=pmf,
        cumulative=cumulative,
        series=series,
        meta=meta,
    )


@dataclass(frozen=True)
class TailMass:
    """P(M >= n, D < inf) with the bracket inherited from the return probability."""

    n: int
    value: float
    lower: float
    upper: float
    exact: bool


def tail_mass(table: MaxPmfTable, n: int, opts: TruncationOptions = TruncationOptions()) -> TailMass:
    """Mass at or above level n: return probability minus P(M <= n-1).

    Recurrent walks give the exact value 1 - cumulative[n-1] with a
    degenerate bracket; transient walks inherit the truncation bracket
    of ``return_prob`` (which needs ``opts.min_terms`` tabulated products).
    """
    n = table._check(n)
    below = float(table.cumulative[n - 1])
    if is_recurrent(table.spec):
        v = max(0.0, 1.0 - below)
        return TailMass(n=n, value=v, lower=v, upper=v, exact=True)
    rp = return_prob(table.series, opts)
    return TailMass(
        n=n,
        value=max(0.0, rp.value - below),
        lower=max(0.0, rp.lower - below),
        upper=max(0.0, rp.upper - below),
        exact=False,
    )

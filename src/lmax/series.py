"""Log-space tabulation of the odds-ratio products and their prefix sums.

Every exact formula downstream is a ratio of the quantities tabulated
here: the running products ``rho_1 ... rho_n`` and the prefix sums
``1 + sum_{j<=n} rho_1 ... rho_j``.  Both live entirely in log space:
for downward-drifting walks the prefix sums grow polynomially without
bound, and for constant ``rho > 1`` they overflow double precision near
n = 700 if held linearly.  Nothing is exponentiated except inside
log-sum-exp steps, so tables are overflow-free to n_max = 1e7 and beyond.

The streaming prefix recurrence is

    log_prefix_sum[n] = logaddexp(log_prefix_sum[n-1], log_prod[n])

with ``logaddexp(a, b) = max(a, b) + log1p(exp(-|a - b|))``, evaluated by
``np.logaddexp.accumulate`` (numpy implements exactly that formulation).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeError, ResourceError
from .walk import WalkSpec, log_rho_array

__all__ = [
    "ProductSeries", "build", "check_budget", "table_budget", "DEFAULT_MAX_ENTRIES", "MAX_TABLE_ENV",
]

# One table of length n holds two float64 arrays of n+1 entries (~320 MB
# at the default budget).  While ``build`` runs, four n-length arrays are
# live at its peak for constant and k = 1 walks, six for k >= 2 (the
# iterated-log chain's running product and iterate).  A MaxPmfTable built
# on the table adds three more (log_pmf, pmf, cumulative), five in all.
# Measured peak RSS of build + max_pmf_table at 1e7: 412 MB for p = 0.4
# and plus k=1, 488 MB for plus k=2; at the 2e7 default about 0.8 and
# 1.0 GB (estimated, not measured).  The budget can be changed only
# through the environment variable below.
DEFAULT_MAX_ENTRIES = 20_000_000
MAX_TABLE_ENV = "LMAX_MAX_TABLE"


@dataclass(frozen=True, eq=False)
class ProductSeries:
    """Immutable log-space table over sites 1..n_max.

    Attributes:
        spec: the walk the table was built from.
        n_max: last tabulated index.
        log_prod: ``log_prod[n] = sum_{i<=n} log rho_i``; entry 0 is the
            empty product, log 1 = 0.
        log_prefix_sum: ``log(1 + sum_{j<=n} rho_1...rho_j)``; entry 0 is
            the empty sum, log 1 = 0.
    """

    spec: WalkSpec
    n_max: int
    log_prod: np.ndarray
    log_prefix_sum: np.ndarray

    def _check(self, n: int) -> int:
        n = int(n)
        if not 0 <= n <= self.n_max:
            raise RangeError(f"n={n} outside tabulated range 0..{self.n_max}")
        return n

    def log_product(self, n: int) -> float:
        """``log(rho_1 ... rho_n)``; the empty product at n=0 gives 0."""
        return float(self.log_prod[self._check(n)])

    def log_one_plus_sum(self, n: int) -> float:
        """``log(1 + sum_{j=1..n} rho_1 ... rho_j)``; n=0 gives 0."""
        return float(self.log_prefix_sum[self._check(n)])

    def log_max_pmf(self, n, out: np.ndarray | None = None):
        """``log P(M = n, D < inf)`` at unchecked ``n >= 1``: an int, an int array or a ``range``.

        A ``range`` is read through slice views, with no index arrays or gathers.
        """
        if isinstance(n, range):
            cur, prev = slice(n.start, n.stop), slice(n.start - 1, n.stop - 1)
        else:
            cur, prev = n, np.subtract(n, 1)
        head = np.subtract(self.log_prod[cur], self.log_prefix_sum[prev], out=out)
        return np.subtract(head, self.log_prefix_sum[cur], out=out)


def _escape_mass(log_s, complement: bool = False, out: np.ndarray | None = None):
    """Escape mass ``1/S = exp(-log S)``, or its complement ``1 - 1/S = -expm1(-log S)``.

    With ``log S = log_prefix_sum[n]``, 1/S_n is the chance of reaching n+1
    before 0 from 1 and its complement is P(M <= n, D < inf); with S = S_inf
    they are 1 - P(return) and P(return).  Both come straight from log S,
    so neither loses digits to cancellation at any depth.  A float goes
    through ``math``; an array through numpy, into ``out`` when given.
    """
    if isinstance(log_s, float):
        return -math.expm1(-log_s) if complement else math.exp(-log_s)
    x = np.negative(log_s, out=out)
    if not complement:
        return np.exp(x, out=x)
    np.expm1(x, out=x)
    return np.negative(x, out=x)


def table_budget() -> tuple[int, str]:
    """The entry budget of every table, and where it comes from.

    Returns ``(int($LMAX_MAX_TABLE), "LMAX_MAX_TABLE")`` when the variable is
    set, else ``(DEFAULT_MAX_ENTRIES, "default")``.

    Raises:
        ConfigError: if ``LMAX_MAX_TABLE`` is not an integer >= 1.
    """
    env = os.environ.get(MAX_TABLE_ENV)
    if env is None:
        return DEFAULT_MAX_ENTRIES, "default"
    try:
        budget = int(env)
    except ValueError:
        budget = 0  # not an integer: refused below, with the same message
    if budget < 1:
        raise ConfigError(f"${MAX_TABLE_ENV} must be an integer >= 1, got {env!r}")
    return budget, MAX_TABLE_ENV


def check_budget(what: str, n: int) -> None:
    """Raise ``ResourceError`` if ``n`` entries, named ``what``, exceed ``table_budget()``."""
    limit = table_budget()[0]
    if n > limit:
        raise ResourceError(
            f"{what}={n} exceeds the table budget of {limit} entries "
            f"(set ${MAX_TABLE_ENV} to change it)"
        )


def build(spec: WalkSpec, n_max: int) -> ProductSeries:
    """Tabulate log products and log prefix sums in one vectorized pass.

    Args:
        spec: walk to tabulate.
        n_max: last index (>= 1).

    Raises:
        ResourceError: if ``n_max`` exceeds ``table_budget()``: the
            ``LMAX_MAX_TABLE`` environment variable, or 2e7 entries.
        ConfigError: if ``LMAX_MAX_TABLE`` is not an integer >= 1.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise RangeError(f"n_max must be >= 1, got {n_max}")
    check_budget("n_max", n_max)
    lr = log_rho_array(spec, np.arange(1, n_max + 1, dtype=np.int64))
    log_prod = np.empty(n_max + 1)
    log_prod[0] = 0.0
    np.cumsum(lr, out=log_prod[1:])
    # Entry 0 of log_prod seeds the accumulator with the empty-sum term
    # exp(0) = 1; the stream then folds in one product per step.
    log_prefix_sum = np.logaddexp.accumulate(log_prod)
    return ProductSeries(spec=spec, n_max=n_max, log_prod=log_prod, log_prefix_sum=log_prefix_sum)

"""Exact distribution of the highest point of an excursion.

An excursion starts at 1 and ends at D, the first visit to 0; M is the
largest site visited on the way.  The event {M = n, D finite} factors
into "reach n before 0" times "then return to 0 before n+1", and both
factors collapse into one closed form in the odds-ratio products:

    P(M = n, D < inf) = rho_1...rho_n
                        --------------------------------------------
                        (1 + sum_{j<n} rho_1...rho_j)(1 + sum_{j<=n} ...)

evaluated as exp(log_prod[n] - log_prefix_sum[n-1] - log_prefix_sum[n]).

The same factors make the running mass telescope: summing the pmf over
m <= n leaves P(M <= n, D < inf) = 1 - 1/S_n with
S_n = 1 + sum_{j<=n} rho_1...rho_j = exp(log_prefix_sum[n]), and the tail
P(M >= n, D < inf) = 1/S_{n-1} - 1/S_inf.  The prefix sums give them as
-expm1(-log S) and exp(-log S), not as sums of pmf terms or 1 minus such
a sum, so they carry only the rounding of ``log_prefix_sum`` (the
README's accuracy paragraph bounds it) and of one ``expm1``.

Row n of the law reads entries n - 1 and n of the two logs and nothing
else, and ``_law`` is its one implementation: ``log_pmf``, ``pmf`` and
``cumulative`` for any set of rows, with row 1 pinned to log1p(-p_1) and
q_1 = 1 - p_1, which a difference of logs loses for tiny p_1.  Every
path to the law calls it: ``max_pmf_table`` once per chunk of a whole
table, for random access, with two threads taking the chunks in turn
(``_threads._on_threads``); ``max_pmf_blocks`` once per block of ``series.blocks``,
carrying log S_(lo-1) from the block before, for a reader that takes
the rows once in order (``lmax dist``) in memory bounded by a block;
``asymptotics`` at its sample rows.  The linear pmf column flushes to 0
beneath double-precision underflow while the log column stays
informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ._threads import _on_threads
from .budget import _integer
from .errors import RangeError
from .series import _CHUNK, BLOCK, ProductSeries, _exp, blocks
from .walk import WalkSpec, step_up_prob

__all__ = [
    "MaxPmfTable",
    "max_pmf_table",
    "max_pmf_blocks",
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


def _row(what: str, n, n_max: int) -> int:
    """``n`` as an int row, named ``what``; ``RangeError`` unless an integer in 1..n_max."""
    n = _integer(what, n)
    if not 1 <= n <= n_max:
        raise RangeError(f"{what}={n} outside table range 1..{n_max}")
    return n


def _law(spec: WalkSpec, rows, log_p, log_s_prev, log_s, log_pmf, pmf=None, cumulative=None):
    """The law of M on {D < inf} at ``rows``, into ``log_pmf`` (and ``pmf``, ``cumulative``).

    ``rows`` is a range or an int array of n >= 1; ``log_p``, ``log_s_prev``
    and ``log_s`` hold log P_n, log S_(n-1) and log S_n at those rows.  Row
    n is log P_n - log S_(n-1) - log S_n, its exp, and 1 - 1/S_n, taken as
    -expm1(-log S_n) so that it loses no digits to cancellation at any
    depth.  Each row is a function of its own three logs alone.
    """
    np.subtract(log_p, log_s_prev, out=log_pmf)
    np.subtract(log_pmf, log_s, out=log_pmf)
    one = slice(0, int(rows.start == 1)) if isinstance(rows, range) else np.equal(rows, 1)
    p1 = step_up_prob(spec, 1) if len(log_pmf[one]) else math.nan  # only read where row 1 is
    log_pmf[one] = math.log1p(-p1)
    if pmf is not None:
        with np.errstate(under="ignore"):
            _exp(log_pmf, pmf)
        pmf[one] = 1.0 - p1
    if cumulative is not None:
        # 1 - 1/S_n is nondecreasing and <= 1 by construction.
        np.negative(log_s, out=cumulative)
        np.expm1(cumulative, out=cumulative)
        np.negative(cumulative, out=cumulative)
        cumulative[one] = 1.0 - p1


def max_pmf_table(series: ProductSeries, n_max: int) -> MaxPmfTable:
    """Build the full table for n = 1..n_max, in chunks of ``_CHUNK`` rows.

    Where there are two chunks and the process may run on two CPUs, two
    threads take the chunks in turn (``_threads._on_threads``); each row
    depends on its own entries alone, so the columns are bit for bit those
    of one pass.  Only a chunk whose pmf underflows takes scratch: one
    bool mask of its rows.

    Raises:
        RangeError: if ``n_max`` is not an integer, or lies outside 1..``series.n_max``.
    """
    n_max = _row("n_max", n_max, series.n_max)
    if series.log_prod is None:
        raise RangeError("a lazy table holds no entries to tabulate the law from: build it")
    log_pmf, pmf, cumulative = np.empty(n_max + 1), np.empty(n_max + 1), np.empty(n_max + 1)
    log_pmf[0], pmf[0], cumulative[0] = -np.inf, 0.0, 0.0
    lp, ls = series.log_prod, series.log_prefix_sum

    def fill(a: int) -> None:
        """Rows a .. a + _CHUNK - 1, or to n_max."""
        b = min(a + _CHUNK, n_max + 1)
        _law(series.spec, range(a, b), lp[a:b], ls[a - 1 : b - 1], ls[a:b],
             log_pmf[a:b], pmf[a:b], cumulative[a:b])

    _on_threads(fill, range(1, n_max + 1, _CHUNK), 2)
    return MaxPmfTable(
        spec=series.spec,
        n_max=n_max,
        log_pmf=log_pmf,
        pmf=pmf,
        cumulative=cumulative,
        series=series,
    )


def max_pmf_blocks(spec: WalkSpec, n_max: int):
    """An iterator of ``(rows, log_pmf, pmf, cumulative)`` for n = 1..n_max, block by block.

    ``rows`` is a range of up to ``series.BLOCK`` rows and the arrays hold
    the law at them, bit for bit the rows of ``max_pmf_table`` on
    ``build(spec, n_max)``.  The arrays are views of buffers that the next
    block overwrites, and nothing else of the table's length is held.

    Raises:
        RangeError, ResourceError, ConfigError: as ``series.build``, when called.
    """
    table = blocks(spec, n_max)
    log_s = np.empty(BLOCK + 1)  # log S from entry lo - 1 on
    out = np.empty(BLOCK), np.empty(BLOCK), np.empty(BLOCK)

    def rows():
        for lo, lp, ls in table:
            m, k = len(ls), int(lo == 0)  # entry 0 has no row
            n = range(lo + k, lo + m)
            log_s[1 : m + 1] = ls
            block = [a[: m - k] for a in out]
            _law(spec, n, lp[k:], log_s[k:m], ls[k:], *block)
            log_s[0] = ls[-1]
            yield n, *block

    return rows()


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
    from .first_passage import return_prob  # the one use of first_passage here

    n = _row("n", n, table.n_max)
    series = table.series
    rp = return_prob(series)
    lp, ls = series.at([n, n - 1])  # log P_n is lp[0], log S_(n-1) is ls[1]
    if rp.method == "geometric-tail":
        value = rp.value if n == 1 else math.exp(lp[0] - ls[1])
        return TailMass(n=n, value=value, lower=value, upper=value, exact=True)
    escape = math.exp(-ls[1])  # 1/S_(n-1)
    return TailMass(
        n=n,
        value=max(0.0, escape - (1.0 - rp.value)),
        lower=max(0.0, escape - (1.0 - rp.lower)),
        upper=max(0.0, escape - (1.0 - rp.upper)),
        exact=rp.method != "integral-bound",
    )

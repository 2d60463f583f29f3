"""Seeded excursion simulator used as an independent check on the exact law.

Determinism contract (byte-exact, stated in full so results can be
reproduced elsewhere):

* Excursions are split into fixed blocks of ``BLOCK`` = 16384; the last
  block takes the remainder.  The grid depends only on the excursion
  count, never on the worker count, so ``workers`` is purely a throughput
  knob.
* Block ``j`` draws from Philox4x64-10 (Random123's constants) keyed
  ``(seed, j)``: value ``i`` of its stream is word ``i mod 4`` of
  ``philox(counter = i // 4 + 1, key = (seed, j))``, the 256-bit counter
  little-endian in four words, and the uniform is ``(x >> 11) * 2**-53``
  of that word ``x``.  This is ``Generator(Philox(key=[seed, j])).random()``.
* The block's excursions consume the stream walker-major: each excursion
  eats values in order until it ends, then the next excursion continues
  from the following value.
* One uniform per step, stepping up iff ``u < p_site``.
* The caller's thread and up to ``workers - 1`` more each take the next
  block index until none is left (``series._on_threads``, which the table
  fills use too), and add their blocks into their own int64 tallies;
  ``run`` adds those up: integer sums, so neither order nor worker count
  changes them.

Each excursion starts at 1 and runs to the first of: hitting 0 (its
maximum M is tallied), reaching ``cap_height`` (censored_height), or
exhausting ``cap_steps`` (censored_steps).  Bins below cap_height are
unbiased up to step-censoring only, an excursion whose maximum stays
below the cap never touches it; the comparison report widens its
tolerance by the step-censored fraction to cover that residual bias.

Each block is one call of a C function, ``lmax_block`` in the package's
native library (``_native``, which builds, caches and loads it).  It draws
the stream itself, 256 values at a time into a buffer on the C stack, so
the C path allocates no uniform array and never imports ``numpy.random``.
The first ``run`` in a process loads the library.  ctypes releases the GIL
during the call, so the threads run blocks in parallel.  If the
library cannot be built or loaded, ``_block_py`` runs the same loop line
for line in Python, on numpy's Philox drawn 65536 values at a time; it is
also the reference the tests compare the C kernel against.
``kernel_info()`` names the kernel in use and the reason for a fallback.
Both kernels consume the same stream, so tallies do not depend on which ran.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _native
from ._native import KernelInfo, kernel_info
from .budget import check_budget
from .errors import ConfigError, RangeError
from .series import _on_threads
from .walk import WalkSpec, step_up_prob_array

if TYPE_CHECKING:
    from .excursion import MaxPmfTable

__all__ = [
    "BLOCK", "SimConfig", "SimResult", "run", "CompareReport", "compare",
    "KernelInfo", "kernel_info",
]

BLOCK = 16_384
_CHUNK = 65_536


def _block_py(seed, j, n_exc, counts, censored, p, cap_steps, cap_height):
    """Run block ``j`` as ``lmax_block`` does, on numpy's Philox, ``_CHUNK`` values at a time."""
    # Only this path needs numpy's generator, and with it hashlib and OpenSSL.
    from numpy.random import Generator, Philox

    rng = Generator(Philox(key=np.array([seed, j], dtype=np.uint64)))
    p = p.tolist()
    u, i = [], 0
    for _ in range(n_exc):
        pos, steps, m = 1, 0, 1
        while 0 < pos < cap_height and steps < cap_steps:
            if i == len(u):
                u, i = rng.random(_CHUNK).tolist(), 0
            if u[i] < p[pos]:
                pos += 1
                if pos > m:
                    m = pos
            else:
                pos -= 1
            i += 1
            steps += 1
        if pos == 0:
            counts[m] += 1
        elif pos >= cap_height:
            censored[0] += 1
        else:
            censored[1] += 1


_INT64_MAX = 2**63 - 1


def _block_c(lib, seed, j, n_exc, counts, censored, p, cap_steps, cap_height):
    """Run block ``j`` as ``_block_py`` does, on ``lib.lmax_block``, which draws its own stream."""
    # ndpointer checks dtype and layout; C indexes these up to cap_height - 1.
    if censored.size != 2 or min(counts.size, p.size) < cap_height:
        raise ValueError("kernel arrays are shorter than the walker state needs")
    # ctypes wraps ints past 64 bits silently; no excursion takes 2**63 steps.
    lib.lmax_block(seed, j, n_exc, counts, censored, p, min(cap_steps, _INT64_MAX), cap_height)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; see the module docstring for the stream rules."""

    spec: WalkSpec
    excursions: int
    seed: int
    workers: int = 1
    cap_steps: int = 1_000_000
    cap_height: int = 1_000

    def __post_init__(self):
        # The C kernel takes C integers; a float or inf must fail here on both kernels.
        for name in ("excursions", "seed", "workers", "cap_steps", "cap_height"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.excursions < 1:
            raise ConfigError(f"excursions must be >= 1, got {self.excursions}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.cap_steps < 1:
            raise ConfigError(f"cap_steps must be >= 1, got {self.cap_steps}")
        if self.cap_height < 2:
            raise ConfigError(f"cap_height must be >= 2, got {self.cap_height}")


@dataclass(eq=False)
class SimResult:
    """Tallies from one run; counts[n] is the number of excursions with M = n.

    counts has length cap_height with slot 0 unused; conservation holds by
    construction: counts.sum() + censored_height + censored_steps == total.
    """

    counts: np.ndarray
    censored_height: int
    censored_steps: int
    total: int

    @property
    def cap_height(self) -> int:
        return self.counts.size

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.total


def run(config: SimConfig) -> SimResult:
    """Simulate the configured number of excursions; see the stream rules above.

    The caller's thread and up to ``workers - 1`` more, at most
    ``os.cpu_count()`` in all and never more than there are blocks, each
    take the next block index until none is left (``series._on_threads``);
    the output does not depend on their number.  The first call in a
    process loads the kernel (see ``kernel_info``).

    Raises:
        ResourceError: if the ``cap_height - 1`` bins or the number of
            blocks exceed the table budget (``budget.check_budget``).
    """
    check_budget("cap_height-1", config.cap_height - 1)
    n_blocks = -(-config.excursions // BLOCK)
    check_budget("excursion blocks", n_blocks)
    # p[0] is never consulted: hitting 0 ends the excursion first.
    p = step_up_prob_array(config.spec, np.arange(config.cap_height))
    lib = _native._kernel()[0]  # here, in the caller's thread, before any other starts
    block = _block_py if lib is None else functools.partial(_block_c, lib)

    def tally(j, counts, censored):
        size = min(BLOCK, config.excursions - j * BLOCK)
        block(config.seed, j, size, counts, censored, p, config.cap_steps, config.cap_height)

    def zeros():  # each thread's own tallies
        return np.zeros(config.cap_height, dtype=np.int64), np.zeros(2, dtype=np.int64)

    tallies = _on_threads(tally, range(n_blocks), config.workers, zeros)
    counts, censored = (sum(arrays) for arrays in zip(*tallies))
    return SimResult(
        counts=counts,
        censored_height=int(censored[0]),
        censored_steps=int(censored[1]),
        total=config.excursions,
    )


# Stirling's series for lgamma(a + 1) less (a + 1/2) log(a) - a + log(2 pi)/2:
# B_2k / (2k (2k - 1)) a**(1 - 2k), k = 1..4, to 1e-21 for a > 100.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680)


def _chi2_sf(dof: int, chi: float) -> float:
    """P(X > chi) for X chi-square with ``dof`` degrees of freedom.

    This is Q(a, x), the regularized upper incomplete gamma function, at
    a = dof/2 and x = chi/2.  Below x = a - 1/2, under the median of the
    gamma law, it is 1 - P from P's power series (DLMF 8.7.1): there Q > 1/2,
    so the subtraction loses nothing and Q cannot exceed 1.  Above it, Q is
    the finite sum for integer or half-integer a when dof <= 200 (DLMF
    8.4.10, 8.4.11), else Q's continued fraction by the modified Lentz
    method (DLMF 8.9.2).  Their common factor x**a e**-x / Gamma(a + 1) is the
    finite sum's next term for dof <= 200, and above that is taken in log
    space with Stirling's series.
    """
    if math.isnan(chi):
        return math.nan
    x = 0.5 * chi
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a = 0.5 * dof
    if dof <= 200:
        if x > 1400.0:
            return 0.0  # Q(a, x) <= Q(100, 1400) < e**-1000, which rounds to 0
        h = math.exp(-0.5 * x)  # e**-x in halves, so it underflows only with Q
        odd = dof % 2
        c0 = 2.0 / math.sqrt(math.pi)
        term, s = (c0 if odd else 1.0), 0.0
        for i in range(1, dof // 2 + 1):
            s += term
            term *= x / (i + 0.5 * odd)
        # Q = e**-x s (plus erfc for odd dof); term = x**(a - odd/2) / Gamma(a + 1).
        if x >= a - 0.5:
            if not odd:
                return h * s * h
            # erfc has slope -c0 e**-x at r = sqrt(x); correct for r's rounding,
            # with x - r*r taken exactly by Dekker's split.
            r = math.sqrt(x)
            p = r * r
            hi = 134217729.0 * r
            hi -= hi - r
            lo = r - hi
            dr = ((x - p) - (((hi * hi - p) + 2.0 * hi * lo) + lo * lo)) / (2.0 * r)
            return math.erfc(r) + h * (r * s - c0 * dr) * h
        pre = h * (math.sqrt(x) * term if odd else term) * h
    else:
        # a (log(1 + t) - t) with t = x/a - 1 leaves no terms of size a log a
        # to cancel in floating point, as a log(x) - x - lgamma(a + 1) would.
        t = (x - a) / a
        log1p_t = math.log1p(t) if t > -0.5 else math.log(x) - math.log(a)
        tail = 0.0
        for coef in reversed(_STIRLING):
            tail = tail / (a * a) + coef
        pre = math.exp(a * (log1p_t - t) - 0.5 * math.log(2.0 * math.pi * a) - tail / a)
    if x < a - 0.5:
        term = s = 1.0
        n = a
        while term > s * 1e-17:
            n += 1.0
            term *= x / n
            s += term
        return 1.0 - pre * s
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    f = d
    for i in range(1, 1_000_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        f *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return pre * a * f


MIN_EXPECTED = 50.0
Z_THRESHOLD = 4.0


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Per-bin agreement between empirical frequencies and an exact table.

    Bins run 1..cap_height-1.  A bin is eligible when its expected count
    is at least ``MIN_EXPECTED`` (50); it is flagged when additionally
    |empirical - exact| > ``Z_THRESHOLD`` * stderr + censor_allowance
    (``Z_THRESHOLD`` is 4), the allowance being the step-censored
    fraction of the run.  chi_square sums over eligible bins with dof
    equal to their number.
    chi_square_pvalue is its chi-square survival function (``_chi2_sf``),
    within 3e-15 relative of a 50-digit value for dof <= 200 and within
    4e-13 up to dof = 20,000, wherever that value exceeds 1e-300.
    """

    n: np.ndarray
    exact: np.ndarray
    empirical: np.ndarray
    stderr: np.ndarray
    z: np.ndarray
    eligible: np.ndarray
    flagged: np.ndarray
    n_flagged: int
    chi_square: float
    chi_square_dof: int
    chi_square_pvalue: float
    censor_allowance: float
    total: int


def compare(result: SimResult, table: MaxPmfTable) -> CompareReport:
    """Score a simulation against an exact table covering every bin.

    Raises:
        RangeError: if the table stops below cap_height - 1.
    """
    n_bins = result.cap_height - 1
    if table.n_max < n_bins:
        raise RangeError(f"table covers 1..{table.n_max} but the run has bins 1..{n_bins}")
    ns = np.arange(1, n_bins + 1, dtype=np.int64)
    exact = table.pmf[1 : n_bins + 1].copy()
    obs = result.counts[1 : n_bins + 1].astype(np.float64)
    total = result.total
    empirical = result.frequencies[1 : n_bins + 1]
    stderr = np.sqrt(exact * (1.0 - exact) / total)
    z = np.zeros(n_bins)
    np.divide(empirical - exact, stderr, out=z, where=stderr > 0)
    z[(stderr == 0) & (empirical > exact)] = np.inf
    expected = exact * total
    eligible = expected >= MIN_EXPECTED
    allowance = result.censored_steps / total
    flagged = eligible & (np.abs(empirical - exact) > Z_THRESHOLD * stderr + allowance)
    if eligible.any():
        chi = float(np.sum((obs[eligible] - expected[eligible]) ** 2 / expected[eligible]))
        dof = int(eligible.sum())
        pvalue = _chi2_sf(dof, chi)
    else:
        chi, dof, pvalue = 0.0, 0, float("nan")
    return CompareReport(
        n=ns,
        exact=exact,
        empirical=empirical,
        stderr=stderr,
        z=z,
        eligible=eligible,
        flagged=flagged,
        n_flagged=int(flagged.sum()),
        chi_square=chi,
        chi_square_dof=dof,
        chi_square_pvalue=pvalue,
        censor_allowance=float(allowance),
        total=total,
    )

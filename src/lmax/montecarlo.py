"""Seeded excursion simulator used as an independent check on the exact law.

Determinism contract (byte-exact, stated in full so results can be
reproduced elsewhere):

* Excursions are split into fixed blocks of ``BLOCK`` = 16384; the last
  block takes the remainder.  The grid depends only on the excursion
  count, never on the worker count, so ``workers`` is purely a throughput
  knob.
* Block ``j`` draws from a Philox counter-based generator keyed
  ``(seed, j)`` (two 64-bit words of the 4x64 key; the rest zero).
* Uniforms are drawn in chunks of 65536 doubles and consumed
  walker-major: each excursion eats values sequentially until it ends,
  then the next excursion continues from the following value.  Philox is
  counter-based, so chunk boundaries do not alter the stream.
* One uniform per step, stepping up iff ``u < p_site``.
* Per-block tallies are merged in block order.

Each excursion starts at 1 and runs to the first of: hitting 0 (its
maximum M is tallied), reaching ``cap_height`` (censored_height), or
exhausting ``cap_steps`` (censored_steps).  Bins below cap_height are
unbiased up to step-censoring only, an excursion whose maximum stays
below the cap never touches it; the comparison report widens its
tolerance by the step-censored fraction to cover that residual bias.

The inner loop ``_drive`` is plain Python; no compiled kernel is used.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError, RangeError
from .excursion import MaxPmfTable
from .series import check_budget
from .walk import WalkSpec, step_up_prob_array

__all__ = ["BLOCK", "SimConfig", "SimResult", "run", "CompareReport", "compare"]

BLOCK = 16_384
_CHUNK = 65_536


def _drive(u, state, counts, censored, p, cap_steps, cap_height):
    """Advance the block's walker state through one chunk of uniforms.

    state = [excursions remaining, position, steps taken, running max];
    mutated in place along with counts (tally by M) and censored
    ([height, steps]).  Returns when the chunk or the block is exhausted.
    """
    remaining = state[0]
    pos = state[1]
    steps = state[2]
    m = state[3]
    n = u.shape[0]
    i = 0
    while remaining > 0:
        if pos == 0:
            counts[m] += 1
            remaining -= 1
            pos = 1
            steps = 0
            m = 1
            continue
        if pos >= cap_height:
            censored[0] += 1
            remaining -= 1
            pos = 1
            steps = 0
            m = 1
            continue
        if steps >= cap_steps:
            censored[1] += 1
            remaining -= 1
            pos = 1
            steps = 0
            m = 1
            continue
        if i >= n:
            break
        if u[i] < p[pos]:
            pos += 1
            if pos > m:
                m = pos
        else:
            pos -= 1
        steps += 1
        i += 1
    state[0] = remaining
    state[1] = pos
    state[2] = steps
    state[3] = m


# perfbench/run.py reports ``kernel: python`` only when ``_drive is _drive_py``;
# a compiled kernel would rebind ``_drive`` and keep this name for the reference.
_drive_py = _drive


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


def _run_block(p, n_exc, seed, block_index, cap_steps, cap_height):
    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    counts = np.zeros(cap_height, dtype=np.int64)
    censored = np.zeros(2, dtype=np.int64)
    state = np.array([n_exc, 1, 0, 1], dtype=np.int64)
    while state[0] > 0:
        _drive(rng.random(_CHUNK), state, counts, censored, p, cap_steps, cap_height)
    return counts, censored


def run(config: SimConfig) -> SimResult:
    """Simulate the configured number of excursions; see the stream rules above.

    At most ``os.cpu_count()`` worker threads start, and never more than
    there are blocks; the output does not depend on their number.

    Raises:
        ResourceError: if the ``cap_height - 1`` bins or the number of
            blocks exceed the table budget (``series.check_budget``).
    """
    check_budget("cap_height-1", config.cap_height - 1)
    n_blocks = -(-config.excursions // BLOCK)
    check_budget("excursion blocks", n_blocks)
    # p[0] is never consulted: hitting 0 ends the excursion first.
    p = step_up_prob_array(config.spec, np.arange(config.cap_height))
    sizes = (min(BLOCK, config.excursions - j * BLOCK) for j in range(n_blocks))
    args = (repeat(p), sizes, repeat(config.seed), range(n_blocks),
            repeat(config.cap_steps), repeat(config.cap_height))
    workers = min(config.workers, n_blocks, os.cpu_count() or 1)
    if workers == 1:
        return _merge(map(_run_block, *args), config)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _merge(pool.map(_run_block, *args), config)


def _merge(parts, config: SimConfig) -> SimResult:
    """Sum per-block tallies in block order, consuming them one at a time."""
    counts = np.zeros(config.cap_height, dtype=np.int64)
    censored = np.zeros(2, dtype=np.int64)
    for c, z in parts:
        counts += c
        censored += z
    return SimResult(
        counts=counts,
        censored_height=int(censored[0]),
        censored_steps=int(censored[1]),
        total=config.excursions,
    )


@dataclass(frozen=True, eq=False)
class CompareReport:
    """Per-bin agreement between empirical frequencies and an exact table.

    Bins run 1..cap_height-1.  A bin is eligible when its expected count
    is at least ``min_expected``; it is flagged when additionally
    |empirical - exact| > z_threshold * stderr + censor_allowance, the
    allowance being the step-censored fraction of the run.  chi_square
    sums over eligible bins with dof equal to their number.
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


def compare(
    result: SimResult,
    table: MaxPmfTable,
    min_expected: float = 50.0,
    z_threshold: float = 4.0,
) -> CompareReport:
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
    empirical = obs / total
    stderr = np.sqrt(exact * (1.0 - exact) / total)
    z = np.zeros(n_bins)
    np.divide(empirical - exact, stderr, out=z, where=stderr > 0)
    z[(stderr == 0) & (empirical > exact)] = np.inf
    expected = exact * total
    eligible = expected >= min_expected
    allowance = result.censored_steps / total
    flagged = eligible & (np.abs(empirical - exact) > z_threshold * stderr + allowance)
    if eligible.any():
        chi = float(np.sum((obs[eligible] - expected[eligible]) ** 2 / expected[eligible]))
        dof = int(eligible.sum())
        # Imported here so that ``import lmax`` and the table commands never
        # load scipy; chdtrc is the chi-square survival function.
        from scipy.special import chdtrc

        pvalue = float(chdtrc(dof, chi))
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

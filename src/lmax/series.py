"""Log-space tabulation of the odds-ratio products and their prefix sums.

Every exact formula downstream is a ratio of the quantities tabulated
here: the running products P_n = rho_1 ... rho_n and the prefix sums
S_n = 1 + sum_{j<=n} P_j.  Both are held as logs: for downward-drifting
walks the prefix sums grow without bound, and for constant rho > 1 they
overflow double precision near n = 700 if held linearly.

Both logs are computed in fixed-size blocks of entries.  ``blocks``
yields them one block at a time, in two reused block buffers, for a
caller that reads the table once in order (``lmax dist``); ``build``
runs the same steps into the two arrays of a whole table, for random
access; ``lazy`` holds none and runs them for the entries ``at`` reads,
the one reader of single entries.  Each family has one step:

* Constant walks have one odds ratio r = e^L, and Feller's gambler's-ruin
  sums are closed forms (*An Introduction to Probability Theory*, vol. 1,
  §XIV.2): log P_n = nL and log S_n from ``log1p``/``expm1``, with L
  correctly rounded once (``constant.log_odds``) and the first entries of
  log S_n rounded once from 40 digits.  No site array is built, and nothing is
  summed from entry to entry.  So ``build`` fills a constant table in
  chunks of ``_CHUNK`` entries, which two threads take in turn where
  there are two cores (``_on_threads``, which ``max_pmf_table`` and the
  simulator use too).
* Perturbed walks scan log rho_i = -2 atanh(2 delta_i) block by block in
  two halves: log P sums log rho, and log S sums the P_j in linear space,
  anchored at the largest log so far, so that no ``log`` or ``exp``
  argument is a difference of large terms.  Both sums are compensated
  (Higham, *Accuracy and Stability of Numerical Algorithms*, §4): a block's
  running sum, with the rounding errors of its additions recovered exactly
  and summed alongside, is added to a (hi, lo) pair carried into the next
  block.  The block sum is the compiled ``lmax_scan`` of ``_native`` where
  the library loads, else its numpy reference, which adds in the same order;
  ``exp``, ``log1p`` and ``atanh`` stay numpy calls.  The log P half never
  reads log S, so ``build`` runs the halves as a two-thread pipeline.

The last block is computed whole like every other: a constant entry is a
function of n alone, and every perturbed block starts from fixed seams,
so an entry does not depend on how far its table goes, nor on whether it
was streamed, built or read from a lazy table.

Against 40- and 50-digit oracles, ``log_prod[n]`` lies within 2 ulp of
|log P_n| and ``log_prefix_sum[n]`` within 2 ulp of log S_n on the walks
and depths (to 1e7) that the README's accuracy paragraph lists.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _native
from .budget import DEFAULT_MAX_ENTRIES, MAX_TABLE_ENV, check_depth, table_budget
from .constant import _constant_logs, log_odds
from .errors import RangeError
from .walk import BlockScratch, ConstantWalk, WalkSpec, log_rho_array

__all__ = [
    "ProductSeries", "build", "blocks", "lazy", "log_odds", "check_depth",
    "table_budget", "DEFAULT_MAX_ENTRIES", "MAX_TABLE_ENV",
]

# One table of length n holds two float64 arrays of n+1 entries (~320 MB at
# the default budget, ``budget.DEFAULT_MAX_ENTRIES``), rounded up to whole
# BLOCKs, and ``build`` allocates nothing else of that length: its scratch is
# under 1 MB.  A MaxPmfTable adds three more (log_pmf, pmf, cumulative).
# ``blocks``, like a lazy table's ``at``, holds a few blocks at any depth.
BLOCK = 1 << 13   # entries per block: the scan's scratch stays in cache
_CHUNK = 8 * BLOCK  # entries per step where a whole table is filled entry by entry
_WIDE = 700.0     # widest span of logs that one block sums through exp
_EXACT_HEAD = 32  # constant walks: log S_n, n < 32, rounded once from 40 digits


@dataclass(frozen=True, eq=False)
class ProductSeries:
    """Immutable log-space table over sites 1..n_max.

    Attributes:
        spec: the walk the table was built from.
        n_max: last tabulated index.
        log_prod: ``log_prod[n] = sum_{i<=n} log rho_i``; entry 0 is the
            empty product, log 1 = 0.  None on a ``lazy`` table.
        log_prefix_sum: ``log(1 + sum_{j<=n} rho_1...rho_j)``; entry 0 is
            the empty sum, log 1 = 0.  None on a ``lazy`` table.
    """

    spec: WalkSpec
    n_max: int
    log_prod: np.ndarray | None
    log_prefix_sum: np.ndarray | None

    def at(self, sites) -> tuple[np.ndarray, np.ndarray]:
        """``(log_prod, log_prefix_sum)`` at ``sites``: ints in any order, or a range of step 1.

        A held table is indexed, a range sliced.  A lazy table runs the blocks
        that hold a site (a perturbed walk's scan, every block to the last)
        and keeps the entries read, ``build``'s bits; it copies a range block
        by block, with no index array.  RangeError: a site not an integer or outside 0..n_max.
        """
        if ranged := isinstance(sites, range) and sites.step == 1:
            first, last = sites.start, sites.stop - 1
        else:
            sites = np.asarray(sites)
            if sites.size and sites.dtype.kind not in "iu":
                raise RangeError(f"sites must be integers, got {sites.dtype} values")
            sites = sites.astype(np.int64, copy=False)
            first, last = (int(sites.min()), int(sites.max())) if sites.size else (0, -1)
        if first <= last and (first < 0 or last > self.n_max):
            raise RangeError(f"sites {first}..{last} outside the table's 0..{self.n_max}")
        if self.log_prod is not None:
            sites = slice(first, last + 1) if ranged else sites
            return self.log_prod[sites], self.log_prefix_sum[sites]
        constant = isinstance(self.spec, ConstantWalk)
        los = range(first - first % BLOCK if constant else 0, last + 1, BLOCK)
        if not ranged:  # each site once, in order; ``inverse`` puts them back
            sites, inverse = np.unique(sites, return_inverse=True)
            los = (np.unique(sites // BLOCK) * BLOCK).tolist() if constant else los
        out_p, out_s = np.empty(len(sites)), np.empty(len(sites))
        for lo, lp, ls in _fill(self.spec, los):
            a, b = max(first, lo), max(first, lo, min(last + 1, lo + BLOCK))  # the block's sites
            i, j = (a - first, b - first) if ranged else np.searchsorted(sites, (a, b))
            src = slice(a - lo, b - lo) if ranged else sites[i:j] - lo
            out_p[i:j], out_s[i:j] = lp[src], ls[src]
        return (out_p, out_s) if ranged else (out_p[inverse], out_s[inverse])


# exp of anything below -745.14 rounds to +0.0, which numpy's exp reaches on
# a path several times slower than a normal result's.
_EXP_FLOOR = -746.0


def _exp(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.exp(x, out=out)`` bit for bit, with no exp taken below ``_EXP_FLOOR``.

    Entries below it get +0.0, their exp, directly, through a bool mask
    made only when there are any; ``out`` may be ``x``.
    """
    if not len(x) or x.min() >= _EXP_FLOOR:
        return np.exp(x, out=out)
    mask = np.less(x, _EXP_FLOOR)
    np.copyto(out, 0.0, where=mask)
    np.logical_not(mask, out=mask)
    return np.exp(x, out=out, where=mask)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else ``os.cpu_count()``.

    Under ``taskset -c 0`` the mask holds one CPU, however many the machine has.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_threads(work, items: range, workers: int, state=tuple, stop=None) -> list:
    """Call ``work(item, *s)`` for every item, on this thread and up to ``workers - 1`` more.

    ``workers`` is clamped to the items and to ``_usable_cpus()``, and no
    thread starts for one.  Each thread makes its own ``s = state()`` and
    takes the next item of one shared iterator until none is left: under
    the GIL each item goes to one thread.  An error or Ctrl-C on any thread
    sets ``stop``, an Event (a new one if None), before any thread is joined:
    every thread stops after its current item, and an item that waits on
    another's polls it.  The error is raised here once all have returned (at
    once, if it came as they started).  Returns the states.
    """
    workers = min(workers, len(items), _usable_cpus())
    items, states, errors = iter(items), [], []
    stop = threading.Event() if stop is None else stop

    def loop() -> None:
        try:
            s = state()
            states.append(s)
            for item in items:
                if stop.is_set():
                    break
                work(item, *s)
        except BaseException as exc:  # re-raised below, in the caller's thread
            stop.set()
            errors.append(exc)

    threads, started = [threading.Thread(target=loop) for _ in range(workers - 1)], []
    try:
        for thread in threads:
            thread.start()
            started.append(thread)
        loop()
    except BaseException:  # a Ctrl-C as they start, or outside loop's own handler
        stop.set()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return states


def _fill(spec: WalkSpec, los):
    """Run the walk's block step on the blocks starting at ``los``; yield ``(lo, lp, ls)`` each.

    ``lp`` and ``ls`` hold entries lo .. lo + BLOCK - 1 of the two logs, in
    two BLOCK buffers that every block reuses.  A perturbed walk's ``los`` are
    every block from 0; log rho goes into ``lp``, then both halves run in turn.
    """
    constant = isinstance(spec, ConstantWalk)
    step = _ConstantStep(spec) if constant else _PerturbedScan()
    drift = None if constant else BlockScratch(spec.k, BLOCK)
    lp, ls = np.empty(BLOCK), np.empty(BLOCK)
    for lo in los:
        if constant:
            step(lo, lp, ls)
        else:
            first = max(lo, 1)
            log_rho_array(spec, range(first, lo + BLOCK), lp[first - lo :], drift)
            step.products(lo, lp)
            step.sums(lo, lp, ls)
        yield lo, lp, ls


def build(spec: WalkSpec, n_max: int) -> ProductSeries:
    """Tabulate log products and log prefix sums over entries 0..n_max, block by block.

    A perturbed table is a pipeline, the two items of ``_on_threads``: stage 0 fills
    log rho and runs the product half into log P a piece at a time (``_CHUNK``
    entries for k = 1, two BLOCKs for k >= 2, whose drift chain holds three
    buffers), and stage 1 follows with the sum half into log S.  A failure in
    either sets ``stop``, which ends the other within a piece.

    Args:
        spec: walk to tabulate.
        n_max: last index (>= 1).

    Raises:
        RangeError, ResourceError: if ``n_max`` is not an integer >= 1, or exceeds
            ``table_budget()``: ``$LMAX_MAX_TABLE``, or 2e7 (``budget.check_depth``).
        ConfigError: if ``LMAX_MAX_TABLE`` is not an integer >= 1.
    """
    n_max = check_depth("n_max", n_max)
    size = -(-(n_max + 1) // BLOCK) * BLOCK
    log_prod, log_prefix_sum = np.empty(size), np.empty(size)
    if isinstance(spec, ConstantWalk):
        step = _ConstantStep(spec, _CHUNK)
        _on_threads(lambda a: step(a, log_prod[a : a + _CHUNK], log_prefix_sum[a : a + _CHUNK]),
                    range(0, size, _CHUNK), 2)
        return ProductSeries(spec, n_max, log_prod[: n_max + 1], log_prefix_sum[: n_max + 1])
    width = min(_CHUNK if spec.k == 1 else 2 * BLOCK, size)
    ready, stop = threading.Semaphore(0), threading.Event()  # pieces of log P; a failure

    def stage(item: int) -> None:
        scan = _PerturbedScan(sums=item == 1)
        if item == 0:
            drift = BlockScratch(spec.k, width)
            for lo in range(0, size, width):
                if stop.is_set():
                    return
                first, end = max(lo, 1), min(lo + width, size)
                log_rho_array(spec, range(first, end), log_prod[first:end], drift)
                scan.products(lo, log_prod[lo:end])
                ready.release()
            return
        for lo in range(0, size, BLOCK):
            while lo % width == 0 and not ready.acquire(timeout=0.05):
                if stop.is_set():  # stage 0 stopped short of this piece
                    return
            scan.sums(lo, log_prod[lo : lo + BLOCK], log_prefix_sum[lo : lo + BLOCK])

    _on_threads(stage, range(2), -(-size // width), stop=stop)
    return ProductSeries(spec, n_max, log_prod[: n_max + 1], log_prefix_sum[: n_max + 1])


def lazy(spec: WalkSpec, n_max: int) -> ProductSeries:
    """Checked as ``build``, a table of entries 0..n_max with no arrays: ``at`` computes its reads."""
    return ProductSeries(spec, check_depth("n_max", n_max), None, None)


def blocks(spec: WalkSpec, n_max: int):
    """An iterator of ``(lo, log_prod, log_prefix_sum)`` over entries 0..n_max, block by block.

    Each pair holds entries lo .. lo + m - 1 of the two logs, m = BLOCK
    but on the last block; the entries are bit for bit those of
    ``build(spec, n_max)``.  The arrays are views of two buffers that the
    next block overwrites, so a caller copies what it keeps.

    Raises:
        RangeError, ResourceError, ConfigError: as ``build``, when called.
    """
    n_max = check_depth("n_max", n_max)
    fill = _fill(spec, range(0, n_max + 1, BLOCK))
    return ((lo, lp[: n_max + 1 - lo], ls[: n_max + 1 - lo]) for lo, lp, ls in fill)


class _ConstantStep:
    """Block step of a constant walk: the closed form, with no site array.

    With one odds ratio r = e^L, log P_n = nL and, for a = |L| > 0,

        log S_n = n max(L, 0) + log1p(expm1(-na) / -expm1(a)),

    the geometric sum of min(r, 1/r) read from its largest term, so no
    step subtracts; at L = 0, S_n = n + 1.  The first ``_EXACT_HEAD - 1``
    log S_n, where the closed form's few roundings weigh most against the
    value, are rounded once from 40 digits (``_constant_logs``).
    """

    def __init__(self, spec: ConstantWalk, width: int = BLOCK):
        self.L, expm1_a, _, self.head = _constant_logs(spec.p, _EXACT_HEAD - 1)
        self.a = abs(self.L)
        # Past e^709 this is -inf: the quotient is below the rounding of n max(L, 0).
        self.den = -expm1_a
        self.sites = np.arange(width, dtype=np.float64)  # the most entries a call takes

    def __call__(self, lo: int, lp: np.ndarray, ls: np.ndarray) -> None:
        """Entries ``lo .. lo + len(lp) - 1`` of both tables into ``lp`` and ``ls``.

        Nothing but the arguments is written, so threads may share one step.
        """
        n = np.add(self.sites[: len(lp)], lo, out=lp)
        if self.L == 0.0:
            np.log1p(n, out=ls)
        else:
            np.multiply(n, -self.a, out=ls)
            np.expm1(ls, out=ls)
            ls /= self.den
            np.log1p(ls, out=ls)
        np.multiply(n, self.L, out=lp)
        if self.L > 0.0:
            ls += lp
        # S_n >= S_(n-1): no entry falls below the last exact one, which the
        # closed form, off by an ulp, can do where S has converged.
        np.maximum(ls, self.head[-1], out=ls)
        if lo == 0:
            lp[0] = ls[0] = 0.0    # the empty product; S_0 = 1
            ls[1:_EXACT_HEAD] = self.head


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``s + e = a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_sum_err(a, b, s, t, out):
    """The rounding errors of ``s = fl(a + b)``, elementwise and exactly, into ``out``.

    ``t`` is scratch; ``out`` may be ``b``'s buffer but not ``a``'s, ``s``'s or ``t``'s.
    """
    np.subtract(s, a, out=t)       # the part of b that s holds
    np.subtract(b, t, out=out)     # what s lost of b
    np.subtract(s, t, out=t)       # the part of a that s holds
    np.subtract(a, t, out=t)       # what s lost of a
    return np.add(out, t, out=out)


class _PerturbedScan:
    """A perturbed walk's scan in two halves: ``products``, log rho to log P, and ``sums``, log S.

    Each scan is a ``cumsum`` over the block from 0, added to a carried
    (hi, lo) pair that TwoSum updates exactly from block to block.  While a
    block's partial sums are not small against the carry (the first blocks,
    or a sum near 0), the rounding error of every addition of the ``cumsum``
    is recovered exactly and summed alongside (Neumaier's correction for
    every addition); deeper, the carry's rounding dominates and the errors
    of the short sums are below it.

    ``sums``: the terms e_j = exp(log P_j - A) are anchored at the larger of
    the carried ``log S`` and the block's largest log, and ``log S_j = a_j +
    log1p(R_j)``, with a_j the largest of the carried ``log S`` and
    ``log P_i``, i <= j, and R_j = S_j e^(-a_j) - 1 >= 0.  R_j is formed
    without cancellation where it can be: from the block's sum alone while
    the carry is the largest, from the sum before j where j sets a new
    largest.  A block whose anchors span more than ``_WIDE`` nats, which
    exp cannot bridge (a frozen drift with |delta| near 1/2), is folded by
    ``np.logaddexp.accumulate`` from the carry instead.
    """

    def __init__(self, sums: bool = True):
        self.lib = _native._kernel()[0]
        self.z, self.s = np.empty(BLOCK + 1), np.empty(BLOCK + 1)
        self.c = np.empty(BLOCK + 1) if sums or self.lib is None else None
        self.t = np.empty(BLOCK) if self.lib is None else None
        self.a, self.mask = (np.empty(BLOCK), np.empty(BLOCK, dtype=bool)) if sums else (None, None)
        self.zs = self.z.ctypes.data, self.s.ctypes.data  # both scans start at entry 0
        self.pair = np.zeros(2)    # log P_(lo-1) as hi + lo
        self.psum = (0.0, 0.0)     # log S_(lo-1) as hi + lo

    def _cumsum(self, m: int, carry: float) -> np.ndarray:
        """``cumsum(z)`` over m + 1 entries, compensated unless it stays below ``carry / 256``:
        ``lmax_scan`` where the library loaded, else numpy, with the same additions and bits."""
        z, s = self.z[: m + 1], self.s[: m + 1]
        if self.lib is not None:
            self.lib.lmax_scan(*self.zs, m + 1, carry)
            return s
        np.cumsum(z, out=s)
        if 256.0 * max(s.max(), -s.min()) > abs(carry):
            c = self.c[: m + 1]
            _two_sum_err(s[:-1], z[1:], s[1:], self.t[:m], out=c[1:])
            c[0] = 0.0
            np.cumsum(c, out=c)
            s += c
        return s

    def products(self, lo: int, x: np.ndarray) -> None:
        """Entries ``lo .. lo + len(x) - 1``, in blocks cut at BLOCK's multiples: log rho to log P.

        A block's log P is ``cumsum([lo, log rho ...])`` with carry hi, plus hi.  The
        compiled ``lmax_products`` runs every block in one call, without the GIL.
        """
        if lo == 0:
            x[0] = 0.0             # the empty product
            x, lo = x[1:], 1
        if self.lib is not None:
            self.lib.lmax_products(x.ctypes.data, lo, x.size, BLOCK, *self.zs, self.pair.ctypes.data)
            return
        for part in np.split(x, range(BLOCK - lo % BLOCK, len(x), BLOCK)) if len(x) else ():
            p_hi, self.z[0] = float(self.pair[0]), self.pair[1]
            self.z[1 : len(part) + 1] = part
            w = self._cumsum(len(part), p_hi)
            np.add(w[1:], p_hi, out=part)
            self.pair[:] = _two_sum(p_hi, float(w[-1]))

    def sums(self, lo: int, lp: np.ndarray, ls: np.ndarray) -> None:
        """Entries ``lo .. lo + BLOCK - 1`` of log S into ``ls``, from log P in ``lp``."""
        if lo == 0:
            ls[0] = 0.0            # S_0 = 1
            lp, ls = lp[1:], ls[1:]
        m = len(lp)
        h_hi, h_lo = self.psum
        top = float(lp.max())
        if top <= h_hi:
            # The carry is the largest term throughout: R_j = h_lo + V_j.
            self._terms(lp, h_hi, h_lo, m)
            r = self._cumsum(m, h_hi)[1:]
            np.log1p(r, out=r)
            np.add(r, h_hi, out=ls)
            self.psum = _two_sum(h_hi, float(r[-1]))
            return
        a = np.maximum.accumulate(lp, out=self.a[:m])
        np.maximum(a, h_hi, out=a)
        if top - a[0] > _WIDE:
            self.z[0], self.z[1 : m + 1] = h_hi, lp
            np.logaddexp.accumulate(self.z[: m + 1], out=self.s[: m + 1])
            ls[:] = self.s[1 : m + 1]
            self.psum = (float(ls[-1]), 0.0)
            return
        self._rise(lp, a, ls, h_hi, h_lo, top, m)

    def _terms(self, lp, anchor: float, first: float, m: int) -> None:
        """``z = [first, exp(lp - anchor)]``."""
        e = self.z[1 : m + 1]
        np.subtract(lp, anchor, out=e)
        np.exp(e, out=e)
        self.z[0] = first

    def _rise(self, lp, a, ls, h_hi, h_lo, top, m) -> None:
        """``ls`` for a block whose largest log P passes the carried log S."""
        self._terms(lp, top, 0.0, m)
        V = self._cumsum(m, 0.0)                   # V[j] = V_(j-1), V[j + 1] = V_j
        f = self.c[1 : m + 1]                      # e^(A - a_j), compensated
        g = self.z[1 : m + 1]
        np.subtract(top, a, out=f)
        _two_sum_err(top, np.negative(a, out=a), f, ls, out=g)
        np.negative(a, out=a)                      # exact both ways: a is a_j again
        np.exp(f, out=f)
        g *= f
        f += g
        carry = math.exp(h_hi - top) * (1.0 + _two_sum(h_hi, -top)[1] + h_lo)  # S_(lo-1) e^-A
        # The largest log set before j: R_j = (carry + V_j) e^(A - a_j) - 1.
        r = np.add(V[1:], carry, out=g)
        r *= f
        r -= 1.0
        # The carry still the largest: R_j = h_lo + V_j e^(A - a_j).
        t = ls
        mask = np.equal(a, h_hi, out=self.mask[:m])
        np.multiply(V[1:], f, out=t)
        t += h_lo
        np.copyto(r, t, where=mask)
        # A new largest log at j: R_j = (carry + V_(j-1)) e^(A - a_j).
        np.greater(lp[1:], a[:-1], out=mask[1:])
        mask[0] = lp[0] > h_hi
        np.add(V[:-1], carry, out=t)
        t *= f
        np.copyto(r, t, where=mask)
        np.log1p(r, out=r)
        np.add(a, r, out=ls)
        self.psum = _two_sum(float(a[-1]), float(r[-1]))

import hashlib
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmax import (
    ConstantWalk, HittingQuery, PerturbedWalk, RangeError, ResourceError, ShapeTarget, SimConfig,
    build, estimate_constant, hit_before, max_pmf_table, resolve_shape, return_prob, rho, run,
    step_up_prob,
)
from lmax import _native
from lmax import _threads as threads_module
from lmax import series as series_module
from lmax._threads import _on_threads, _usable_cpus
from lmax.series import _CHUNK, BLOCK, MAX_TABLE_ENV, _exp, _PerturbedScan, blocks, lazy, log_odds
from lmax.walk import BlockScratch, _perturbation_array, log_rho_array, signed_drift_array

from _oracles import (
    brute_prefix_sum,
    depth1_log_tables,
    drift_log_tables,
    geometric_log_tables,
    ulps,
)


def test_symmetric_walk_table():
    s = build(ConstantWalk(0.5), 5)
    assert s.log_prod[5] == 0.0
    assert s.log_prefix_sum[5] == pytest.approx(math.log(6), rel=1e-15)
    assert s.log_prefix_sum[4] == pytest.approx(math.log(5), rel=1e-15)


def test_downward_drift_table():
    s = build(ConstantWalk(1 / 3), 10)  # rho = 2
    assert s.log_prod[3] == pytest.approx(3 * math.log(2), rel=1e-14)
    assert math.exp(s.log_prefix_sum[3]) == pytest.approx(15.0, rel=1e-14)
    assert s.log_prod[10] == pytest.approx(10 * math.log(2), rel=1e-14)


def test_upward_drift_table():
    s = build(ConstantWalk(2 / 3), 2)  # rho = 1/2
    assert math.exp(s.log_prefix_sum[2]) == pytest.approx(1.75, rel=1e-14)


def test_empty_product_and_sum():
    s = build(PerturbedWalk(1, 1.0, "plus"), 3)
    assert s.log_prod[0] == 0.0
    assert s.log_prefix_sum[0] == 0.0


def test_range_errors():
    with pytest.raises(RangeError):
        build(ConstantWalk(0.5), 0)


@pytest.mark.parametrize("make", [build, lazy])
def test_reads_outside_the_table_raise_range_error(make):
    table = make(PerturbedWalk(1, 2.0, "plus"), 100)
    for sites in ([-1], [0, 101], np.array([5, 101]), range(-1, 3), range(99, 102)):
        with pytest.raises(RangeError, match="outside the table's 0..100"):
            table.at(sites)
    for sites in ([1.7], np.array([5.0]), [3, 2.5], np.array([1.7]).astype(np.float32)):
        with pytest.raises(RangeError, match="must be integers"):
            table.at(sites)
    assert [len(a) for a in table.at([])] == [len(a) for a in table.at(range(7, 7))] == [0, 0]
    assert table.at(range(100, 101))[1].tobytes() == table.at([100])[1].tobytes()


def test_budget_enforced(monkeypatch):
    # One check of every size: a non-integer or a size below 1 is a RangeError,
    # a size past the budget a ResourceError, from the library as from the CLI.
    monkeypatch.setenv(MAX_TABLE_ENV, "500")
    for make in (build, lazy, blocks):
        for bad in (2.5, np.float64(2.0), 0, -3):
            with pytest.raises(RangeError, match="n_max must be"):
                make(ConstantWalk(0.5), bad)
        with pytest.raises(ResourceError, match="n_max=501 exceeds the table budget of 500"):
            make(ConstantWalk(0.5), 501)
    for make in (build, lazy):
        assert make(ConstantWalk(0.5), np.int64(500)).n_max == 500
    spec = PerturbedWalk(1, 2.0, "plus")
    shape = resolve_shape(spec, ShapeTarget.MAX_PMF)
    with pytest.raises(ResourceError, match="samples=9223372036854775808 exceeds"):
        estimate_constant(lazy(spec, 100), shape, 10, 100, samples=2**63)
    for samples in (0, 4.0):
        with pytest.raises(RangeError, match="samples must be"):
            estimate_constant(lazy(spec, 100), shape, 10, 100, samples=samples)
    with pytest.raises(ResourceError, match="cap_height-1=501 exceeds"):
        run(SimConfig(spec=spec, excursions=10, seed=1, cap_height=502))
    assert run(SimConfig(spec=spec, excursions=10, seed=1, cap_height=501)).total == 10


BRUTE_SPECS = [
    ConstantWalk(0.5),
    ConstantWalk(1 / 3),
    ConstantWalk(2 / 3),
    PerturbedWalk(1, 1.0, "plus"),
    PerturbedWalk(1, 1.0, "minus"),
    PerturbedWalk(2, 0.5, "plus"),
    PerturbedWalk(2, 2.0, "minus"),
]


@pytest.mark.parametrize("spec", BRUTE_SPECS, ids=str)
def test_prefix_sums_match_high_precision_brute_force(spec):
    n = 30
    s = build(spec, n)
    rhos = [rho(spec, i) for i in range(1, n + 1)]
    for m in (1, 2, 7, 30):
        want = float(brute_prefix_sum(rhos[:m]))
        got = math.exp(s.log_prefix_sum[m])
        assert got == pytest.approx(want, rel=1e-12)


def test_telescoping_products():
    # Depth-1 minus with b=1 has rho_i = (2i+1)/(2i-1); products collapse to 2n+1.
    s = build(PerturbedWalk(1, 1.0, "minus"), 500)
    for n in (1, 5, 77, 500):
        assert math.exp(s.log_prod[n]) == pytest.approx(2 * n + 1, rel=1e-12)
        assert math.exp(s.log_prefix_sum[n]) == pytest.approx((n + 1) ** 2, rel=1e-12)


@given(
    p=st.floats(0.05, 0.95, allow_nan=False),
    n=st.integers(1, 200),
)
@settings(max_examples=50, deadline=None)
def test_invariants_hold(p, n):
    s = build(ConstantWalk(p), n)
    assert np.all(np.diff(s.log_prefix_sum) >= 0)
    assert np.all(s.log_prefix_sum >= 0)
    assert s.log_prefix_sum[n] >= s.log_prod.max() - 1e-12


def test_no_overflow_for_steep_growth():
    # rho = 9: linear sums overflow near n = 300; log space must not.
    s = build(ConstantWalk(0.1), 5000)
    assert np.isfinite(s.log_prod).all()
    assert np.isfinite(s.log_prefix_sum).all()
    # 1 + sum(9^k, k <= 5000) = 9^5000 * (9/8) * (1 + O(9^-5000)).
    want = 5000 * math.log(9) + math.log(9 / 8)
    assert s.log_prefix_sum[-1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k,b", [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)])
def test_product_shape_slowly_varying_plus(k, b):
    # exp(log_prod[n]) * n log n ... (log_{k-1} n)^b settles: ratio(2n)/ratio(n) -> 1.
    spec = PerturbedWalk(k, b, "plus")
    s = build(spec, 2_000_000)

    def corrected(n):
        if k == 1:
            return s.log_prod[n] + b * math.log(n)
        return s.log_prod[n] + math.log(n) + b * math.log(math.log(n))

    n = 1_000_000
    ratio = math.exp(corrected(2 * n) - corrected(n))
    assert abs(ratio - 1.0) < 0.05


@pytest.mark.parametrize("k,b", [(1, 1.5), (2, 1.5)])
def test_product_shape_slowly_varying_minus(k, b):
    spec = PerturbedWalk(k, b, "minus")
    s = build(spec, 2_000_000)

    def corrected(n):
        if k == 1:
            return s.log_prod[n] - b * math.log(n)
        return s.log_prod[n] - math.log(n) - b * math.log(math.log(n))

    n = 1_000_000
    ratio = math.exp(corrected(2 * n) - corrected(n))
    assert abs(ratio - 1.0) < 0.05


@pytest.mark.parametrize("spec", [
    ConstantWalk(0.4), PerturbedWalk(1, 2.0, "plus"), PerturbedWalk(2, 1.5, "plus"),
], ids=str)
def test_build_allocates_only_its_two_tables(spec):
    # Past log_prod and log_prefix_sum (16 B/entry), build holds only block
    # scratch: well under one more float64 array of n entries (1.6 MB).
    n = 200_000
    tracemalloc.start()
    try:
        series = build(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.n_max == n
    assert peak - 16 * (n + 1) < 1.2e6


@pytest.mark.parametrize("p", [1e-300, 1e-14, 0.5 - 2**-54, 0.5, 0.5 + 2**-53, 0.4, 1 - 2**-53])
def test_log_odds_within_an_ulp(p):
    with mpmath.workdps(50):
        want = mpmath.log((1 - mpmath.mpf(p)) / mpmath.mpf(p))
        if want == 0:
            assert log_odds(p) == 0.0
        else:
            assert ulps(log_odds(p), want) <= 1.0


def _oracle_logs(spec, n):
    """50-digit (log P_n, log S_n): geometric sums, or Gamma ratios and telescoping sums (k = 1)."""
    if isinstance(spec, ConstantWalk):
        return geometric_log_tables(spec.p, n)
    return depth1_log_tables(spec, n)


@pytest.mark.parametrize("spec", [
    ConstantWalk(0.4), ConstantWalk(0.6), ConstantWalk(0.499), ConstantWalk(0.5 - 2**-30),
    ConstantWalk(0.5 + 2**-30), PerturbedWalk(1, 2.5, "plus"), PerturbedWalk(1, 1.0, "minus"),
], ids=str)
def test_tables_at_depth_within_two_ulp(spec):
    # The README's depth bound: log_prod within 2 ulp of |log P_n| and
    # log_prefix_sum within 2 ulp of log S_n, against 50-digit closed forms.
    # Near p = 1/2, where S_n stays near n + 1, it holds too (1.65 ulp the
    # worst measured, p = 0.499, n <= 3000); n = 31 and 32 sit either side
    # of a constant walk's last entry rounded from 40 digits.
    series = build(spec, 10**7)
    for n in (1, 30, 31, 32, 10**3, 10**5, 10**7):
        log_p, log_s = _oracle_logs(spec, n)
        assert ulps(series.log_prod[n], log_p) <= 2.0, n
        assert ulps(series.log_prefix_sum[n], log_s) <= 2.0, n


@pytest.mark.parametrize("p", [0.6, 0.9, 1 - 2**-53])
def test_converging_constant_sums_never_step_down(p):
    # Where S converges, its closed form rounds to nearly the same double
    # entry after entry; rounding must never make a row fall below the one
    # before, in log_prefix_sum or in the cumulative mass read off it.
    n_max = 10**6
    table = max_pmf_table(build(ConstantWalk(p), n_max), n_max)
    assert np.all(np.diff(table.series.log_prefix_sum) >= 0)
    assert np.all(np.diff(table.cumulative[1:]) >= 0)


def test_first_rows_of_a_depth_two_table_within_two_ulp():
    # dist --sign plus --K 2 --B 1.5 --n-max 300: against 40-digit sums of
    # the walk's own drifts, every cumulative row past the pinned q_1 lies
    # within 2 ulp of 1 - 1/S_n and every log_prod within 2 ulp.  1 ulp is
    # out of reach in doubles: an exact sum of the rounded log rho terms
    # already leaves cumulative 0.98 ulp off.
    spec, n_max = PerturbedWalk(2, 1.5, "plus"), 300
    table = max_pmf_table(build(spec, n_max), n_max)
    logs = drift_log_tables(spec, n_max, range(1, n_max + 1))
    with mpmath.workdps(50):
        for n in range(1, n_max + 1):
            log_p, log_s = logs[n]
            assert ulps(table.series.log_prod[n], log_p) <= 2.0, n
            if n > 1:
                assert ulps(table.cumulative[n], -mpmath.expm1(-log_s)) <= 2.0, n


DEPTH_SPECS = [
    PerturbedWalk(3, -1.0, "minus"), PerturbedWalk(2, 1.5, "plus"), PerturbedWalk(1, 1.0, "minus"),
    PerturbedWalk(1, 1e6, "minus"), PerturbedWalk(1, 2.2, "plus"), PerturbedWalk(2, 1.5, "minus"),
    ConstantWalk(0.4), ConstantWalk(0.5), ConstantWalk(0.6), ConstantWalk(0.7),
    ConstantWalk(1 - 2**-53),
]

# Sites a lazy table is read at: out of order and repeated, at the head
# rounded once (below 32), the block seams and the chunk seams.
SEAM_SITES = [65536, 0, 8192, 1, 31, 32, 8191, 65535, 1, 65536, 32]


def _lazy_reads(spec, n, want):
    """``lazy(spec, n).at`` over the range 0..n and at the seams to n, against the arrays ``want``."""
    table = lazy(spec, n)
    got = table.at(range(n + 1))
    assert got[0].tobytes() == want[0][: n + 1].tobytes()
    assert got[1].tobytes() == want[1][: n + 1].tobytes()
    sites = [s for s in SEAM_SITES if s <= n] + [n, n // 2, n]
    got = table.at(sites)
    assert got[0].tobytes() == want[0][sites].tobytes(), sites
    assert got[1].tobytes() == want[1][sites].tobytes(), sites


@pytest.mark.parametrize("spec", DEPTH_SPECS, ids=str)
def test_entries_do_not_depend_on_table_depth(spec):
    # A constant walk's entry is a function of n alone, and every perturbed
    # block, the last one too, is computed whole from fixed seams, so a
    # table is bitwise the head of any deeper one.
    # A lazy table's entries are the deep table's too.
    deep = build(spec, 3 * BLOCK)
    for n in (1, 5, 300, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7):
        series = build(spec, n)
        assert np.array_equal(series.log_prod, deep.log_prod[: n + 1])
        assert np.array_equal(series.log_prefix_sum, deep.log_prefix_sum[: n + 1])
        _lazy_reads(spec, n, (deep.log_prod, deep.log_prefix_sum))


class _NoScans:
    """numpy without its scans: ``cumsum`` and ``logaddexp`` raise when reached."""

    def __getattr__(self, name):
        if name in ("cumsum", "logaddexp"):
            raise AssertionError(f"np.{name} used")
        return getattr(np, name)


def _refuse_scan(*args):
    raise AssertionError("a compiled scan used")


def test_constant_tables_scan_nothing(monkeypatch):
    # A constant walk's entries come from the closed form alone: neither
    # cumsum, the compiled lmax_scan nor logaddexp.accumulate runs, so no
    # rounding builds up.  The self-check shows that the guard stops a
    # perturbed walk's scan on whichever kernel is loaded.
    import lmax.series

    want = build(ConstantWalk(0.4), 2 * BLOCK)
    lib, info = _native._kernel()
    if lib is not None:
        lib = SimpleNamespace(lmax_scan=_refuse_scan, lmax_products=_refuse_scan)
        monkeypatch.setattr(_native, "_kernel", lambda: (lib, info))
    monkeypatch.setattr(lmax.series, "np", _NoScans())
    got = build(ConstantWalk(0.4), 2 * BLOCK)
    assert np.array_equal(got.log_prod, want.log_prod)
    assert np.array_equal(got.log_prefix_sum, want.log_prefix_sum)
    with pytest.raises(AssertionError, match="cumsum" if lib is None else "a compiled scan"):
        build(PerturbedWalk(1, 2.0, "plus"), 10)


def _scans_on_both_kernels():
    """A ``_PerturbedScan`` on the compiled kernel and one on numpy, each with its own scratch."""
    if _native._kernel()[0] is None:
        pytest.fail(f"the native library did not load: {_native.kernel_info().reason}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "_kernel", lambda: (None, _native.KernelInfo("python", "forced")))
        numpy_scan = _PerturbedScan()
    return _PerturbedScan(), numpy_scan


def _sums_on_both_kernels(z, carry):
    """``_PerturbedScan._cumsum`` of ``z`` on the compiled kernel and on numpy, as bytes."""
    sums = []
    for scan in _scans_on_both_kernels():
        scan.z[: len(z)] = z
        sums.append(scan._cumsum(len(z) - 1, carry).tobytes())
    return sums


@pytest.mark.parametrize("length", [1, 2, BLOCK, BLOCK + 1])
def test_compiled_block_sum_is_the_numpy_sum_bit_for_bit(length):
    # Both branches (compensated where 256 max|s| > |carry|, plain
    # otherwise), and blocks that hold infinities, NaN, -0.0 and
    # subnormals, which the compensated pass turns into NaN or passes on.
    rng = np.random.default_rng(length)
    special = np.array([np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324, -2.5e-320,
                        2.2250738585072014e-308, 1e300, -1e300])
    blocks_ = [
        rng.standard_normal(length),
        rng.standard_normal(length) * np.exp(rng.uniform(-40, 40, length)),
        np.full(length, -0.0),
        np.concatenate([[-0.0], rng.standard_normal(length - 1)]),
        rng.choice(special[4:], length),      # zeros, subnormals and huge values: finite
        rng.choice([5e-324, -5e-324, 1e-310], length),
    ]
    for _ in range(4):
        z = rng.standard_normal(length)
        z[rng.integers(0, length, 1 + length // 50)] = rng.choice(special, 1 + length // 50)
        blocks_.append(z)
    for k in {1, 2, length - 1} & set(range(1, length)):  # one sum far above the rest
        z = rng.standard_normal(length)
        z[k] += 1e9
        z[k + 1 : k + 2] -= 1e9
        blocks_.append(z)
    with np.errstate(all="ignore"):
        for z in blocks_:
            sums = np.abs(np.cumsum(z))
            top = float(sums[np.isfinite(sums)].max(initial=0.0))  # carries either side of 256 top
            for carry in (0.0, -0.0, 1.0, top * 255.0, top * 256.0, top * 257.0, -1e308,
                          np.inf, np.nan):
                compiled, numpy = _sums_on_both_kernels(z, carry)
                assert compiled == numpy, (z[:8], carry)


def _products_on_both_kernels(lo, x, pair):
    """``products`` over entries lo.. holding ``x`` from ``pair``, on both kernels, as bytes."""
    out = []
    for scan in _scans_on_both_kernels():
        got = x.copy()
        scan.pair[:] = pair
        scan.products(lo, got)
        out.append((got.tobytes(), scan.pair.tobytes()))
    return out


@pytest.mark.parametrize("length", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_compiled_product_half_is_the_numpy_half_bit_for_bit(length):
    # lmax_products over a piece: its blocks cut at BLOCK's multiples, from
    # lo = 0 (the empty product) and from lo > 0 on and off a seam, with a
    # carried lo of 0 and not, carried hi at and either side of the
    # 256 max|s| switch of the first block's sum, and a NaN and -0.0 entry.
    rng = np.random.default_rng(length)
    for lo in (0, 5, BLOCK - 2, 3 * BLOCK):
        x = rng.standard_normal(length) * 1e-3
        pieces = [x, np.where(np.arange(length) == length // 2, np.nan, x), np.full(length, -0.0)]
        pieces[2][length // 3 :] = x[length // 3 :]
        for z in pieces:
            first = z[int(lo == 0) : BLOCK - lo % BLOCK]     # the first block's log rho
            for p_lo in (0.0, 1e-17, -0.0):
                with np.errstate(invalid="ignore"):
                    sums = np.abs(np.cumsum(np.concatenate([[p_lo], first])))
                top = float(sums[np.isfinite(sums)].max(initial=0.0))
                for p_hi in (0.0, top * 255.0, top * 256.0, top * 257.0, -top * 256.0, 40.0):
                    compiled, numpy = _products_on_both_kernels(lo, z, (p_hi, p_lo))
                    assert compiled == numpy, (lo, z[:4], p_hi, p_lo)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("spec", DEPTH_SPECS, ids=str)
def test_built_and_streamed_tables_agree_on_both_kernels(monkeypatch, spec):
    # build, blocks and a lazy table's reads, on the compiled sum and on
    # numpy's, and build on one core and on two; one depth ends a block
    # past two of build's pieces.
    if _native._kernel()[0] is None:
        pytest.fail(f"the native library did not load: {_native.kernel_info().reason}")
    real = _native._kernel
    python = (None, _native.KernelInfo("python", "forced"))
    piece = 2 * BLOCK if isinstance(spec, PerturbedWalk) and spec.k > 1 else _CHUNK  # build's
    for n in (1, BLOCK - 1, BLOCK + 1, 2 * piece + BLOCK + 1, 2 * _CHUNK + 3 * BLOCK + 7):
        digests = set()
        for kernel in (real, lambda: python):
            monkeypatch.setattr(_native, "_kernel", kernel)
            for cores in (1, 2):
                monkeypatch.setattr(threads_module, "_usable_cpus", lambda: cores)
                series = build(spec, n)
                digests.add(_digest(series.log_prod, series.log_prefix_sum))
            parts = list(zip(*((lp.copy(), ls.copy()) for _, lp, ls in blocks(spec, n))))
            digests.add(_digest(np.concatenate(parts[0]), np.concatenate(parts[1])))
            _lazy_reads(spec, n, (series.log_prod, series.log_prefix_sum))
        assert len(digests) == 1, n


def _drift_of_integer_sites(spec, sites):
    """delta at integer sites as the int-array path formed it: lam at max(i, i0) as a double, /4, signed."""
    x = np.maximum(np.array(sites), spec.i0).astype(np.float64)
    r = _perturbation_array(spec.k, x, spec.b) * 0.25
    return r if spec.sign == "plus" else -r


def _log_rho_of_integer_sites(spec, sites):
    return np.arctanh(_drift_of_integer_sites(spec, sites) * 2.0) * -2.0


_PERTURBED_DEPTH_SPECS = [s for s in DEPTH_SPECS if isinstance(s, PerturbedWalk)]


@pytest.mark.parametrize("spec", _PERTURBED_DEPTH_SPECS, ids=str)
def test_drift_on_a_range_is_the_int_array_path(spec):
    # The in-place chain from float offsets, with and without held scratch,
    # gives the bits of the integer sites' recipe, which the drift no longer
    # takes: below i0 (frozen), across it, and deep.
    scratch, out = BlockScratch(spec.k, BLOCK), np.empty(BLOCK)
    starts = sorted({1, 2, max(1, spec.i0 - 3), spec.i0, spec.i0 + 1, BLOCK + 1, 10**7, 2**40})
    for fn, ref in ((signed_drift_array, _drift_of_integer_sites),
                    (log_rho_array, _log_rho_of_integer_sites)):
        for lo in starts:
            for m in (1, 7, BLOCK):
                want = ref(spec, np.arange(lo, lo + m)).tobytes()
                assert fn(spec, range(lo, lo + m)).tobytes() == want, (fn, lo, m)
                got = fn(spec, range(lo, lo + m), out[:m], scratch)
                assert np.shares_memory(got, out) and got.tobytes() == want, (fn, lo, m)


# return_prob's (lower, upper) on the transient walks of DEPTH_SPECS, as
# recorded before the bracket read log rho_f off its table (entry 1).
_RETURN_BRACKETS = {
    PerturbedWalk(2, 1.5, "plus"): {
        1: ("0x1.ff94573214436p-4", "0x1.7163bbc5f8f6bp-3"),
        2: ("0x1.ff94573214437p-4", "0x1.7163bbc5f8f6bp-3"),
        10**5: ("0x1.3f76a5cdfee9ap-3", "0x1.3f76b80c40696p-3"),
    },
    PerturbedWalk(1, 2.2, "plus"): {
        1: ("0x1.3cf33574bdd31p-2", "0x1.7a13a8f554702p-2"),
        2: ("0x1.3cf33574bdd32p-2", "0x1.7a13a8f554701p-2"),
        10**5: ("0x1.58fbe49ec2c36p-2", "0x1.58fbe49ed7ee7p-2"),
    },
}


@pytest.mark.parametrize("spec", _PERTURBED_DEPTH_SPECS, ids=str)
def test_scalar_values_are_the_table_block_entries(spec):
    # rho, step_up_prob and a one-site log_rho_array read their site's
    # double from a BLOCK-wide range of the sites around it, bit for bit.
    sites = {1, spec.i0 - 1, spec.i0, spec.i0 + 1, BLOCK, BLOCK + 1, 10**7, 2**40, 2**53 - 1}
    for i in sorted(sites - {0}):
        lo = max(1, i - i % BLOCK)
        block = range(lo, lo + BLOCK)
        d, log_r = signed_drift_array(spec, block)[i - lo], log_rho_array(spec, block)[i - lo]
        assert rho(spec, i).hex() == ((1.0 - 2.0 * d) / (1.0 + 2.0 * d)).hex(), i
        assert step_up_prob(spec, i).hex() == (0.5 + d).hex(), i
        assert float(log_rho_array(spec, range(i, i + 1))[0]).hex() == float(log_r).hex(), i
    # The return bracket takes log rho_f as the table's entry 1: below, at and past i0.
    for n, want in _RETURN_BRACKETS.get(spec, {}).items():
        got = return_prob(build(spec, n))
        assert (got.lower.hex(), got.upper.hex()) == want, n


def test_threads_clamp_to_the_usable_cpus(monkeypatch):
    # The affinity mask, not the machine's count, where the OS has one
    # (under ``taskset -c 0``, one CPU of two); no thread starts for one.
    assert _usable_cpus() == (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _usable_cpus() == 1
    assert len(_on_threads(lambda i: None, range(10), 2)) == 1 and not started
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _usable_cpus() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _usable_cpus() == 1


def _threaded_answers(spec, n):
    """Digest of build's two tables and max_pmf_table's law at depth n, and three hit windows."""
    series = build(spec, n)
    law = max_pmf_table(series, n)
    with np.errstate(under="ignore"):
        hits = [hit_before(series, HittingQuery(*w)) for w in ((0, 1, n), (3, 70_000, n - 5),
                                                                  (1, 2, 2 * _CHUNK + 9))]
    return _digest(series.log_prod, series.log_prefix_sum, law.log_pmf, law.pmf,
                   law.cumulative), hits


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask on this OS")
def test_a_one_cpu_mask_starts_no_thread(monkeypatch):
    # With _usable_cpus left alone and the mask narrowed to one CPU (as
    # ``taskset -c 0`` runs the process), the constant fill, the log rho
    # fill and the law start no thread, and they and the hit windows give
    # the bits of the one-thread run.  Forced to two CPUs, build and the law
    # start threads at this depth, with the same bits.
    n, specs = 2 * _CHUNK + 3 * BLOCK + 7, (ConstantWalk(0.43), PerturbedWalk(1, 2.0, "plus"),
                                            PerturbedWalk(2, 1.5, "minus"))
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert _usable_cpus() == 1
        got = [_threaded_answers(spec, n) for spec in specs]
    finally:
        os.sched_setaffinity(0, mask)
    assert not started
    for cpus in (1, 2):
        monkeypatch.setattr(threads_module, "_usable_cpus", lambda c=cpus: c)
        for spec, answers in zip(specs, got):
            before = len(started)
            assert _threaded_answers(spec, n) == answers, (spec, cpus)
            # build and max_pmf_table start one each; the hit windows none.
            assert len(started) - before == (2 if cpus == 2 else 0), (spec, cpus)


def test_threaded_tables_under_a_short_switch_interval(monkeypatch):
    # Two threads swapped every microsecond: build's two stages hand each
    # piece over once it is written (the product half with log rho for
    # k = 1, with log S for k = 2), so the bits are those of one thread.
    specs = (PerturbedWalk(1, 2.0, "plus"), PerturbedWalk(2, 1.5, "minus"))
    n = 5 * _CHUNK + 77
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 1)
    wants = [build(spec, n) for spec in specs]
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for spec, want in zip(specs, wants):
            got = build(spec, n)
            assert got.log_prod.tobytes() == want.log_prod.tobytes(), spec
            assert got.log_prefix_sum.tobytes() == want.log_prefix_sum.tobytes(), spec
    finally:
        sys.setswitchinterval(interval)


def test_a_ctrl_c_as_threads_start_stops_them_after_their_item(monkeypatch):
    # A Ctrl-C that lands in Thread.start once the thread runs is raised at
    # once, and the started thread runs at most the item it had taken.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    start, ran, before = threading.Thread.start, [], threading.active_count()

    def interrupted(thread):
        start(thread)
        raise KeyboardInterrupt

    monkeypatch.setattr(threading.Thread, "start", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _on_threads(lambda item: (ran.append(item), time.sleep(0.01)), range(10), 2)
    _join_others()
    assert len(ran) <= 1 and threading.active_count() == before


def _join_others():
    """Wait for every other thread, as a thread that a Ctrl-C left running ends by itself."""
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(10)


def _counted(real, calls, fail_at=0, exc=None):
    """``real``, its calls counted in ``calls``; call ``fail_at`` raises ``exc()`` instead."""
    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise exc()
        return real(*args, **kwargs)
    return wrapped


def _build_within(spec, n, seconds=30.0):
    """``build(spec, n)`` on a helper thread: what it raised; a failure if it still runs."""
    raised = []

    def target():
        try:
            build(spec, n)
        except BaseException as exc:  # handed to the test
            raised.append(exc)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), "build hung"
    return raised


# Pieces of log rho are _CHUNK entries for k = 1 and 2 BLOCKs for k = 2.
_PIPELINE_SPECS = [PerturbedWalk(1, 2.0, "plus"), PerturbedWalk(2, 1.5, "minus")]


@pytest.mark.parametrize("spec", _PIPELINE_SPECS, ids=str)
def test_an_error_in_the_log_rho_stage_is_raised_by_build(monkeypatch, spec):
    # log_rho_array fails on its third piece: build raises that error, the
    # sum stage stops where log P stops instead of waiting, and the thread
    # that build started has ended.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    before, pieces = threading.active_count(), []
    monkeypatch.setattr(series_module, "log_rho_array",
                        _counted(log_rho_array, pieces, 3, lambda: MemoryError("piece 3")))
    raised = _build_within(spec, 4 * _CHUNK - 5)
    assert len(raised) == 1 and isinstance(raised[0], MemoryError), raised
    assert len(pieces) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("spec", _PIPELINE_SPECS, ids=str)
@pytest.mark.parametrize("scratch,sums", [
    ("BlockScratch", None), ("_PerturbedScan", False), ("_PerturbedScan", True),
], ids=str)
def test_an_error_in_a_stage_s_scratch_is_raised_by_build(monkeypatch, spec, scratch, sums):
    # One stage fails as it makes its scratch, before any piece: the log rho
    # stage's drift chain or its product scan, or the sum stage's scan.
    # build raises it, and the other stage does not wait.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    before, real = threading.active_count(), getattr(series_module, scratch)

    def refused(*args, **kwargs):
        if sums is None or kwargs.get("sums", True) == sums:
            raise MemoryError(scratch)
        return real(*args, **kwargs)

    monkeypatch.setattr(series_module, scratch, refused)
    raised = _build_within(spec, 4 * _CHUNK - 5)
    assert len(raised) == 1 and isinstance(raised[0], MemoryError), raised
    assert threading.active_count() == before


def test_a_ctrl_c_as_the_caller_takes_the_log_rho_stage_is_raised_by_build(monkeypatch):
    # The started thread takes the sum stage and waits for log P; the Ctrl-C
    # lands as the caller's thread takes the log rho stage, before that stage
    # runs a line.  build raises it, and the sum stage stops waiting.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    real, before = series_module._on_threads, threading.active_count()
    caller, taken = [], threading.Event()

    class Stages:
        """``range(2)``, stage 1 to the started thread; the caller is interrupted as it takes 0."""

        def __len__(self):
            return 2

        def __iter__(self):
            return self

        def __next__(self):
            if threading.current_thread() is caller[0]:
                taken.wait(10)
                raise KeyboardInterrupt
            if taken.is_set():
                raise StopIteration
            taken.set()
            return 1

    def on_threads(work, items, *args, **kwargs):
        caller.append(threading.current_thread())
        return real(work, Stages(), *args, **kwargs)

    monkeypatch.setattr(series_module, "_on_threads", on_threads)
    raised = _build_within(_PIPELINE_SPECS[0], 4 * _CHUNK - 5)
    assert len(raised) == 1 and isinstance(raised[0], KeyboardInterrupt), raised
    assert threading.active_count() == before


@pytest.mark.parametrize("spec", _PIPELINE_SPECS, ids=str)
def test_an_error_in_the_sum_stage_stops_the_log_rho_stage(monkeypatch, spec):
    # The sum half fails on its fifth block: build raises that error, and
    # the log rho stage starts at most one more piece after it.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    before, pieces, sums, at_failure = threading.active_count(), [], [], []

    def failure():
        at_failure.append(len(pieces))
        return ArithmeticError("block 5")

    monkeypatch.setattr(series_module, "log_rho_array", _counted(log_rho_array, pieces))
    monkeypatch.setattr(_PerturbedScan, "sums", _counted(_PerturbedScan.sums, sums, 5, failure))
    raised = _build_within(spec, 16 * _CHUNK - 5)
    assert len(raised) == 1 and isinstance(raised[0], ArithmeticError), raised
    assert len(sums) == 5 and len(pieces) <= at_failure[0] + 1
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="no signal to a thread on this OS")
@pytest.mark.parametrize("spec", _PIPELINE_SPECS, ids=str)
def test_ctrl_c_ends_the_log_rho_stage_within_one_piece(monkeypatch, spec):
    # SIGINT goes to the main thread while log rho fills its third piece, on
    # whichever thread runs that stage.  build raises KeyboardInterrupt, and
    # once the main thread has taken the signal, which may wait for the
    # interpreter lock, the log rho stage starts at most one more piece.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    before, pieces, at_interrupt = threading.active_count(), [], []

    def fill(*args, **kwargs):
        pieces.append(None)
        if len(pieces) == 3:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        return log_rho_array(*args, **kwargs)

    def interrupt(signum, frame):
        at_interrupt.append(len(pieces))
        raise KeyboardInterrupt

    monkeypatch.setattr(series_module, "log_rho_array", fill)
    handler = signal.signal(signal.SIGINT, interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            build(spec, 16 * _CHUNK - 5)
    finally:
        signal.signal(signal.SIGINT, handler)
    _join_others()  # if the signal landed as build started its thread
    assert len(at_interrupt) == 1 and 3 <= len(pieces) <= at_interrupt[0] + 1
    assert threading.active_count() == before


def test_wide_frozen_drift_stays_finite():
    # delta = -0.499999 below i0 = 500001: log P climbs 14.5 nats a step,
    # more than exp can bridge in one block; the logaddexp fold keeps every
    # entry finite and within 2 ulp.
    spec, n_max = PerturbedWalk(1, 1e6, "minus"), 2 * BLOCK
    series = build(spec, n_max)
    rows = [1, 2, 3, 10, BLOCK - 1, BLOCK, BLOCK + 1, n_max]
    logs = drift_log_tables(spec, n_max, rows)
    assert np.all(np.isfinite(series.log_prefix_sum))
    with mpmath.workdps(50):
        for n in rows:
            assert ulps(series.log_prod[n], logs[n][0]) <= 2.0
            assert ulps(series.log_prefix_sum[n], logs[n][1]) <= 2.0


def test_masked_exp_is_numpy_exp_bit_for_bit():
    # Around the floor, below it, through the subnormal band and at the
    # ends; -745.13 rounds up to the least subnormal, -745.14 down to +0.0.
    special = [-745.13, -745.14, -745.1332, -746.0, np.nextafter(-746.0, 0.0),
               np.nextafter(-746.0, -np.inf), -750.0, -1e300, -np.inf, np.inf, np.nan,
               0.0, -0.0, -708.4, -708.3, 1.0, 709.0]
    band = np.linspace(-745.2, -708.0, 4001)
    rng = np.random.default_rng(3)
    mixed = rng.uniform(-800.0, 0.0, 5000)
    for x in (np.array(special), band, mixed, np.full(7, -800.0), np.array([])):
        want = np.exp(x)
        for in_place in (False, True):
            out = x.copy() if in_place else np.empty_like(x)
            got = _exp(out if in_place else x, out)
            assert got is out
            assert got.tobytes() == want.tobytes()


def test_an_error_on_one_thread_stops_the_other(monkeypatch):
    # The started thread fails on its first item while the caller's thread
    # holds its own; the caller's then runs no other item, and the error is
    # raised in the caller once the threads have joined.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    caller = threading.current_thread()
    held, entered, ran, started = threading.Event(), threading.Event(), [], []

    def work(item):
        ran.append(item)
        if threading.current_thread() is caller:
            held.set()
            entered.wait(10)
            started[0].join(10)  # its error is recorded before it ends
        else:
            started.append(threading.current_thread())
            entered.set()
            held.wait(10)
            raise MemoryError("the started thread")

    with pytest.raises(MemoryError, match="the started thread"):
        _on_threads(work, range(100), 2)
    assert len(ran) == 2

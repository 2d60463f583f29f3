import math
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmax import (
    ConstantWalk,
    HittingQuery,
    PerturbedWalk,
    ProductSeries,
    RangeError,
    ReturnProbability,
    build,
    first_passage,
    hit_before,
    return_prob,
)
from lmax import _threads as threads_module
from lmax.series import lazy, log_odds
from lmax.walk import signed_drift_array

from _oracles import hit_prob_from_drifts, hit_probs_banded, return_prob_from_drifts, ulps


def test_gamblers_ruin_midpoint():
    s = build(ConstantWalk(0.5), 10)
    assert hit_before(s, HittingQuery(0, 2, 4)) == pytest.approx(0.5, rel=1e-14)


def test_boundary_values():
    s = build(ConstantWalk(0.7), 10)
    assert hit_before(s, HittingQuery(3, 3, 9)) == 1.0
    assert hit_before(s, HittingQuery(3, 9, 9)) == 0.0


@pytest.mark.parametrize("p", [5e-324, 1e-300, 0.3, 0.5 - 2**-54, 0.5, 0.5 + 2**-53, 0.7,
                               1 - 2**-53])
def test_constant_closed_form_gives_the_boundary_values(p):
    # lmax hit calls the closed form directly on a constant walk, so at a
    # boundary start it gives hit_before's 1.0 and +0.0 itself (the ratio
    # would be -0.0 at k = b).
    for a, b in ((0, 1), (0, 7), (3, 9), (19_999_000, 19_999_500), (0, 2**26)):
        at_a = first_passage._hit_constant(p, HittingQuery(a, a, b))
        at_b = first_passage._hit_constant(p, HittingQuery(a, b, b))
        assert (repr(at_a), repr(at_b)) == ("1.0", "0.0"), (p, a, b)


def test_downward_drift_by_hand():
    s = build(ConstantWalk(1 / 3), 10)  # rho = 2
    assert hit_before(s, HittingQuery(0, 1, 3)) == pytest.approx(6 / 7, rel=1e-14)


def test_query_validation():
    with pytest.raises(RangeError):
        HittingQuery(-1, 0, 3)
    with pytest.raises(RangeError):
        HittingQuery(2, 1, 3)
    with pytest.raises(RangeError):
        HittingQuery(0, 5, 3)
    with pytest.raises(RangeError):  # a < b: the window has no site
        HittingQuery(3, 3, 3)
    # A float level is refused on either family, not truncated by the constant
    # closed form nor left to fail in range(); numpy integers are levels.
    for spec in (ConstantWalk(0.6), PerturbedWalk(1, 2.0, "plus")):
        table = build(spec, 10)
        for real in (1.5, np.float64(2.0)):
            for name, levels in (("a", (real, 3, 5)), ("k", (0, real, 5)), ("b", (0, 1, real + 4))):
                with pytest.raises(RangeError, match=f"level {name} must be an integer"):
                    hit_before(table, HittingQuery(*levels))
        want = hit_before(table, HittingQuery(0, 2, 5))
        assert hit_before(table, HittingQuery(*map(np.int64, (0, 2, 5)))) == want


def test_series_too_short():
    s = build(ConstantWalk(0.5), 3)
    with pytest.raises(RangeError):
        hit_before(s, HittingQuery(0, 2, 6))


ORACLE_SPECS = [
    ConstantWalk(0.5),
    ConstantWalk(0.8),
    ConstantWalk(0.21),
    PerturbedWalk(1, 1.0, "plus"),
    PerturbedWalk(1, -2.5, "minus"),
    PerturbedWalk(2, 1.5, "minus"),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
@pytest.mark.parametrize("a,b", [(0, 5), (1, 9), (3, 12)])
def test_matches_tridiagonal_solve(spec, a, b):
    s = build(spec, b)
    ref = hit_probs_banded(spec, a, b)
    for k in range(a, b + 1):
        got = hit_before(s, HittingQuery(a, k, b))
        assert got == pytest.approx(ref[k - a], abs=1e-12)


def test_complement_consistency():
    # 1 - hit_before must solve the mirrored problem; check via the oracle.
    spec = PerturbedWalk(1, 2.0, "plus")
    a, b = 1, 11
    s = build(spec, b)
    ref = hit_probs_banded(spec, a, b)
    for k in range(a, b + 1):
        assert 1.0 - hit_before(s, HittingQuery(a, k, b)) == pytest.approx(
            1.0 - ref[k - a], abs=1e-10
        )


@given(
    p=st.floats(0.1, 0.9),
    a=st.integers(0, 3),
    width=st.integers(2, 9),
)
@settings(max_examples=60, deadline=None)
def test_monotone_in_start(p, a, width):
    b = a + width
    s = build(ConstantWalk(p), b)
    vals = [hit_before(s, HittingQuery(a, k, b)) for k in range(a, b + 1)]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_hit_before_never_exceeds_one():
    # Near-certain hits on a downward walk: when the denominator was summed
    # apart from the numerator, 248 of these came out above 1, the named
    # one at 1.000000000000007.
    s = build(ConstantWalk(0.4), 150)
    assert hit_before(s, HittingQuery(11, 16, 151)) == 1.0
    for a in range(150):
        for k in range(a + 1, 151):
            assert hit_before(s, HittingQuery(a, k, 151)) <= 1.0, (a, k)


def test_hit_before_matches_mpmath_sum_at_depth():
    # The CLI's pinned hit query (GOLDEN_STDOUT in test_cli.py) against the
    # 50-digit ratio of product sums, 0.99999952376065080472...: 0.15 ulp off.
    spec = PerturbedWalk(2, 2.0, "minus")
    a, k, b = 0, 3, 500
    exact = hit_prob_from_drifts(signed_drift_array(spec, range(1, b)), a, k, b)
    got = hit_before(build(spec, b - 1), HittingQuery(a, k, b))
    assert got == 0.9999995237606508
    assert abs(mpmath.mpf(got) - exact) < 2.0**-53


def test_return_prob_recurrent_exact():
    s = build(ConstantWalk(0.5), 100_000)
    rp = return_prob(s)
    assert rp.value == rp.lower == rp.upper == 1.0
    assert rp.method == "exact-recurrent"


def test_return_prob_geometric():
    s = build(ConstantWalk(2 / 3), 100_000)  # rho = 1/2, S = 1
    rp = return_prob(s)
    assert rp.value == pytest.approx(0.5, abs=1e-12)
    assert rp.lower <= rp.value <= rp.upper
    assert rp.upper - rp.lower < 1e-12
    assert rp.method == "geometric-tail"


def test_return_prob_quarter():
    s = build(ConstantWalk(0.8), 100_000)  # rho = 1/4, S = 1/3
    rp = return_prob(s)
    assert rp.value == pytest.approx(0.25, abs=1e-12)


def test_return_prob_needs_min_terms():
    # A perturbed bracket rests on the table it is given; 10 terms leave a
    # bracket 4.2e-3 wide on this walk, whose return probability is 2/5.
    # A constant walk's needs no depth (below).
    rp = return_prob(build(PerturbedWalk(1, 2.0, "plus"), 10))
    assert rp.upper - rp.lower > 1e-3
    assert rp.lower < 0.4 < rp.upper


def test_return_prob_short_constant_table_is_exact():
    # The geometric remainder is exact, so 200 terms give the bracket of 1e5.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        short = return_prob(build(ConstantWalk(2 / 3), 200))
    deep = return_prob(build(ConstantWalk(2 / 3), 100_000))
    assert (short.value, short.lower, short.upper) == (deep.value, deep.lower, deep.upper)
    assert short.upper - short.lower <= 1e-6 and short.n_terms == 200
    assert short.method == "geometric-tail"
    # The remainder is summed in closed form: one number, however short the table.
    tiny = return_prob(build(ConstantWalk(0.6), 1))
    assert tiny.value == tiny.lower == tiny.upper == (1 - 0.6) / 0.6


def test_return_prob_transient_perturbed_bracket():
    spec = PerturbedWalk(1, 2.0, "plus")
    s = build(spec, 200_000)
    rp = return_prob(s)
    assert rp.method == "integral-bound"
    assert 0.0 < rp.lower <= rp.value <= rp.upper < 1.0
    # the tail of sum c/j^2 from 2e5 is ~ c/2e5: the bracket must be narrow
    assert rp.upper - rp.lower < 1e-4


def test_return_prob_reports_a_wide_bracket_without_warning():
    # Judging the width is the CLI's job (``--tolerance``); the library
    # reports the bracket and stays silent however wide it is.
    spec = PerturbedWalk(2, 2.0, "plus")  # products ~ c/(n (log n)^2): slow tail
    s = build(spec, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rp = return_prob(s)
    assert rp.upper - rp.lower > 1e-6


def test_return_prob_transient_minus_family():
    # depth-1 minus with b = -2 walks like plus b = 2: transient; the
    # point is the bitwise symmetry.
    s = build(PerturbedWalk(1, -2.0, "minus"), 100_000)
    rp = return_prob(s)
    assert rp.method == "integral-bound"
    ref = return_prob(build(PerturbedWalk(1, 2.0, "plus"), 100_000))
    assert rp == ref  # bitwise sign symmetry carries through


def _at(series: ProductSeries, n: int) -> ProductSeries:
    """The first n entries of ``series`` as a table of its own.

    An entry does not depend on how far its table goes, so this is
    ``build(series.spec, n)`` without the build.
    """
    return ProductSeries(series.spec, n, series.log_prod[: n + 1], series.log_prefix_sum[: n + 1])


DEPTHS = [1, 2, 10, 10**3, 10**5, 10**6]


DEPTH_ONE = ([PerturbedWalk(1, b, "plus") for b in (1.1, 1.5, 2, 3, 5, 40, 1000)]
             + [PerturbedWalk(1, b, "minus") for b in (-2.5, -7)])


@pytest.mark.parametrize("spec", DEPTH_ONE, ids=str)
def test_return_prob_contains_depth_one_oracle(spec):
    # The oracle sums the walk's own double drifts to site 4000 in 50
    # digits and adds the closed-form tail past it.
    exact = return_prob_from_drifts(spec)
    series = build(spec, DEPTHS[-1])
    for n in DEPTHS:
        rp = return_prob(_at(series, n))
        assert rp.method == "integral-bound"
        assert rp.lower <= exact <= rp.upper, (n, rp, exact)
        assert rp.value == 0.5 * (rp.lower + rp.upper)


@pytest.mark.parametrize("b,depths", [(1000.0, 3000), (600.0, 11), (999.0, 11),
                                      (1001.0, 11), (2000.0, 11)])
def test_return_prob_contains_the_oracle_at_every_depth(b, depths):
    # Large b puts the remainder far below S_N, so the bracket is a few ulp
    # wide and its own roundings decide containment: each end must step
    # outward past every one of them.
    spec = PerturbedWalk(1, b, "plus")
    exact = return_prob_from_drifts(spec)
    series = build(spec, depths)
    for n in range(1, depths + 1):
        rp = return_prob(_at(series, n))
        assert rp.lower <= exact <= rp.upper, (n, rp, exact)


@pytest.mark.parametrize("b,depths", [(1000.0, 3000), (600.0, 11), (2000.0, 11)])
def test_return_prob_ends_within_six_ulp_of_the_oracle(b, depths):
    # Each end is one 40-digit evaluation from inputs widened by 2 ulp,
    # rounded to nearest and stepped once outward: about 5 ulp from the
    # oracle on these cells, where the remainder is far below S_N.
    spec = PerturbedWalk(1, b, "plus")
    exact = return_prob_from_drifts(spec)
    series = build(spec, depths)
    for n in range(1, depths + 1):
        rp = return_prob(_at(series, n))
        assert max(ulps(rp.lower, exact), ulps(rp.upper, exact)) <= 6, (n, rp, exact)


@pytest.mark.parametrize("spec,n", [
    (PerturbedWalk(1, 11.75, "plus"), 6),
    (PerturbedWalk(1, 13.5, "plus"), 7),
], ids=str)
def test_return_prob_lower_end_needs_the_cubic_correction(spec, n):
    # At N = i0 the drift lam_N is near 2, where log rho = -2 atanh(lam/2)
    # falls well below -lam, and the remainder past N is 1.4e-11 and 3.6e-12
    # of the return probability.  Without the cubic correction E the lower
    # end lies 1363 and 1004 ulp above the oracle; with it, it holds.
    assert n == spec.i0
    exact = return_prob_from_drifts(spec)
    rp = return_prob(build(spec, n))
    assert rp.lower <= exact <= rp.upper, (rp, exact)


def _inside(inner: ReturnProbability, outer: ReturnProbability) -> bool:
    """``inner`` lies in ``outer`` to within 1 ulp at each end."""
    return (inner.lower >= outer.lower - math.ulp(outer.lower)
            and inner.upper <= outer.upper + math.ulp(outer.upper))


@pytest.mark.parametrize("k,b", [(2, 1.5), (2, 1.01), (3, 2.0), (2, 50.0), (4, 1.5)])
def test_return_prob_brackets_nest(k, b):
    # No k >= 2 oracle reaches these depths, but a bracket from a longer
    # table may only shrink: each lies inside the one at a tenth its depth.
    series = build(PerturbedWalk(k, b, "plus"), 10**6)
    brackets = [return_prob(_at(series, 10**e)) for e in range(7)]
    for shallow, deep in zip(brackets, brackets[1:]):
        assert _inside(deep, shallow), (shallow, deep)


@pytest.mark.parametrize("spec,n", [
    (PerturbedWalk(3, 2.0, "plus"), 3),
    (PerturbedWalk(4, 1.5, "plus"), 8),
    (PerturbedWalk(1, 1e6, "plus"), 64),
], ids=str)
def test_return_prob_below_i0(spec, n):
    # A table that stops below i0 sums the frozen sites up to i0 in closed
    # form: a finite bracket that holds every deeper one.
    assert n < spec.i0
    series = build(spec, 10**6)
    short = return_prob(_at(series, n))
    assert 0.0 < short.lower <= short.upper < 1.0
    for deep in (n + 1, spec.i0, 10**3, 10**6):
        assert _inside(return_prob(_at(series, deep)), short), deep


@pytest.mark.parametrize("spec,width", [
    (PerturbedWalk(1, 2.0, "plus"), 1e-10),
    (PerturbedWalk(2, 1.5, "plus"), 2e-7),
], ids=str)
def test_return_prob_width_at_depth(spec, width):
    rp = return_prob(build(spec, 10**5))
    assert 0.0 < rp.upper - rp.lower <= width


def test_hit_before_scratch_per_entry():
    # The window is shifted and exponentiated one _SUM_LEAF piece at a time
    # through one buffer, with a mask for a piece whose terms underflow, so
    # the scratch is about 576 KiB however long the window.  A constant walk
    # reads no entry (its closed form).
    for n in (10**6, 4 * 10**6):
        series = build(PerturbedWalk(1, 2.5, "plus"), n)
        tracemalloc.start()
        try:
            hit_before(series, HittingQuery(0, 1, n + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.65e6, (n, peak)


def _windows(seed: int, count: int, widths: tuple[int, int], starts: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = int(rng.integers(0, starts))
        b = a + int(rng.integers(*widths))
        out.append((a, int(rng.integers(a + 1, b)), b))
    return out


@pytest.mark.parametrize("leaf", [None, 128])
def test_hit_before_driftless_is_correctly_rounded(monkeypatch, leaf):
    # Every product is 1, so both sums count their terms exactly and the
    # ratio is the double nearest (b - k)/(b - a), across piece seams too.
    if leaf is not None:
        monkeypatch.setattr(first_passage, "_SUM_LEAF", leaf)
    piece = first_passage._SUM_LEAF
    windows = _windows(26, 40, (2, 3 * piece + 11), 5 * piece)
    windows += [(0, 1, 3 * piece + 10), (7, piece + 7, 2 * piece + 7),
                (0, 3 * piece, 3 * piece + 1)]
    s = build(ConstantWalk(0.5), max(b for _, _, b in windows))
    for a, k, b in windows:
        assert hit_before(s, HittingQuery(a, k, b)) == (b - k) / (b - a), (a, k, b)


# Each walk with the side of the window its largest product lies on:
# [a, k) where the products fall, [k, b) where they grow.
SUM_SPECS = [
    (PerturbedWalk(1, 2.5, "plus"), "left"),
    (PerturbedWalk(2, 1.5, "plus"), "left"),
    (PerturbedWalk(1, 1.0, "minus"), "right"),
    (PerturbedWalk(3, -1.0, "minus"), "right"),
]


def _piece_sums_ratio(logs, m: int, leaf: int) -> float:
    """The ratio of each side's fsum of its pieces' ``np.sum``, pieces ``leaf`` long."""
    top = logs.max()

    def side(lo, hi):
        return math.fsum(np.exp(logs[i : min(i + leaf, hi)] - top).sum() for i in range(lo, hi, leaf))

    num = side(m, len(logs))
    return num / (side(0, m) + num)


@pytest.mark.parametrize("leaf", [None, 128, 1000])
def test_hit_before_starts_no_thread_on_two_cpus(monkeypatch, leaf):
    # Windows either side of 128 (numpy's pairwise leaf), 32768 (half a
    # piece) and 65536 (a piece), split at both ends and in the middle: with
    # two CPUs to use, the caller's thread alone sums them, to the bits of
    # whole pieces summed by np.sum and added by math.fsum.
    if leaf is not None:
        monkeypatch.setattr(first_passage, "_SUM_LEAF", leaf)
    leaf = first_passage._SUM_LEAF
    lengths = [n + d for n in (128, 32768, 65536) for d in (-1, 0, 1)] + [2 * 65536 + 129]
    series = {spec: build(spec, max(lengths) + 40) for spec, _ in SUM_SPECS}
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    with np.errstate(under="ignore"):
        for spec, s in series.items():
            for w in lengths:
                a = w % 37
                for m in sorted({1, 128, 129, w // 2, w - 1} & set(range(1, w))):
                    q = HittingQuery(a, a + m, a + w)
                    want = _piece_sums_ratio(s.log_prod[a : a + w], m, leaf)
                    assert hit_before(s, q) == want, (spec, q)
    assert not started


@pytest.mark.parametrize("case", range(len(SUM_SPECS)), ids=lambda i: str(SUM_SPECS[i][0]))
def test_hit_before_sums_within_eight_ulp(monkeypatch, case):
    # Only the summation is under test: the oracle is the 60-digit ratio of
    # the table's own log_prod doubles.  Pieces of 1000 give windows of 3-5
    # pieces at a size the oracle sums quickly.
    spec, side = SUM_SPECS[case]
    monkeypatch.setattr(first_passage, "_SUM_LEAF", 1000)
    windows = [(a, min(k, a + 2500), b) for a, k, b in _windows(case, 6, (3000, 5000), 20_000)]
    s = build(spec, max(b for _, _, b in windows))
    with mpmath.workdps(60):
        for a, k, b in windows:
            logs = s.log_prod[a:b]
            top = int(np.argmax(logs))
            assert (top < k - a) == (side == "left")
            terms = [mpmath.exp(mpmath.mpf(float(x)) - float(logs[top])) for x in logs]
            exact = mpmath.fsum(terms[k - a :]) / mpmath.fsum(terms)
            err = ulps(hit_before(s, HittingQuery(a, k, b)), exact)
            assert err <= 8, (a, k, b, err)


def test_hit_before_masks_underflowing_terms():
    # plus K1 B200's products fall past e^-746 at site 228 and through the
    # subnormal band before it, so every piece of these windows takes the
    # masked exp; the sums equal those of a plain np.exp over the same
    # pieces, bit for bit.
    spec = PerturbedWalk(1, 200.0, "plus")
    n = 3 * first_passage._SUM_LEAF + 5
    s = build(spec, n)
    assert s.log_prod[300] < -746.0 < s.log_prod[200] < -708.0
    for a, k, b in [(0, 1, n + 1), (0, 700, n + 1), (3, 40_000, n - 7), (0, 2, 300)]:
        logs = s.log_prod
        top = logs[a:b].max()

        def plain(lo, hi):
            return math.fsum(np.exp(logs[i : min(i + first_passage._SUM_LEAF, hi)] - top).sum()
                             for i in range(lo, hi, first_passage._SUM_LEAF))

        num = plain(k, b)
        assert hit_before(s, HittingQuery(a, k, b)) == num / (plain(a, k) + num), (a, k, b)


def _constant_oracle(L: float, a: int, k: int, b: int) -> mpmath.mpf:
    """60-digit gambler's-ruin ratio at r = e^L: r^(k-a) expm1((b-k)L)/expm1((b-a)L)."""
    with mpmath.workdps(60):
        L = mpmath.mpf(L)
        return mpmath.exp((k - a) * L) * mpmath.expm1((b - k) * L) / mpmath.expm1((b - a) * L)


# The walks whose sums test_hit_before_sums_within_eight_ulp once took, with
# their windows, and walks at both signs of L to p = 1/2 +- 1e-4.  At p =
# 0.51 and 0.505, exp((k-a)L) expm1((b-k)L)/expm1((b-a)L) is 4.17 and 4.31
# ulp off on the first two fixed windows below.
CONSTANT_CASES = [(0.45, 4), (0.55, 5), (0.4, 11), (0.6, 12), (0.5 - 1e-4, 13),
                  (0.5 + 1e-4, 14), (0.9, 15), (1e-3, 16), (0.999, 17), (0.51, 18),
                  (0.505, 19)]


@pytest.mark.parametrize("p,seed", CONSTANT_CASES, ids=[f"p={p!r}" for p, _ in CONSTANT_CASES])
def test_hit_before_constant_within_four_ulp(p, seed):
    # A constant walk reads no table entry: a table that claims 2e7 entries
    # and holds none answers windows to 2e7.  The oracle takes the tables'
    # own rounded L, so this measures the closed form alone.
    L = log_odds(p)
    s = lazy(ConstantWalk(p), 2 * 10**7)
    windows = _windows(seed, 40, (2, 5000), 20_000)
    windows += _windows(seed, 40, (2, 10**6), 2 * 10**7 - 10**6)
    windows += [(31, 132, 138), (100, 131, 200),
                (0, 1, 2), (0, 1, 2 * 10**7 + 1), (0, 2 * 10**7, 2 * 10**7 + 1),
                (10**7, 10**7 + 1, 2 * 10**7 + 1), (5, 6 + int(700 / abs(L)), 2 * 10**7)]
    for a, k, b in windows:
        k = min(k, b - 1)
        err = ulps(hit_before(s, HittingQuery(a, k, b)), _constant_oracle(L, a, k, b))
        assert err <= 4, (a, k, b, err)

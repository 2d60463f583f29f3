import math
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
    RangeError,
    build,
    hit_before,
    return_prob,
)
from lmax.walk import signed_drift_array

from _oracles import hit_prob_from_drifts, hit_probs_banded


def test_gamblers_ruin_midpoint():
    s = build(ConstantWalk(0.5), 10)
    assert hit_before(s, HittingQuery(0, 2, 4)) == pytest.approx(0.5, rel=1e-14)


def test_boundary_values():
    s = build(ConstantWalk(0.7), 10)
    assert hit_before(s, HittingQuery(3, 3, 9)) == 1.0
    assert hit_before(s, HittingQuery(3, 9, 9)) == 0.0


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
    # 50-digit ratio of product sums, 0.99999952376065080472...: 1.3e-15 off.
    spec = PerturbedWalk(2, 2.0, "minus")
    a, k, b = 0, 3, 500
    exact = hit_prob_from_drifts(signed_drift_array(spec, np.arange(1, b)), a, k, b)
    got = hit_before(build(spec, b - 1), HittingQuery(a, k, b))
    assert got == 0.9999995237606495
    assert abs(mpmath.mpf(got) - exact) < 1.5e-15


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
    # tail near 2e-2 on this walk (whose return probability is 2/5), and the
    # bracket is that wide.  A constant walk's needs no depth (below).
    rp = return_prob(build(PerturbedWalk(1, 2.0, "plus"), 10))
    assert rp.upper - rp.lower > 1e-2
    assert rp.value == pytest.approx(0.4, abs=2e-2)


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
    assert rp.method == "shape-tail"
    assert 0.0 < rp.lower <= rp.value <= rp.upper < 1.0
    # the tail of sum c/j^2 from 2e5 is ~ c/2e5: the bracket must be narrow
    assert rp.upper - rp.lower < 1e-4


def test_return_prob_reports_a_wide_bracket_without_warning():
    # Judging the width is the CLI's job (``--tolerance``); the library
    # reports the bracket and stays silent however wide it is.
    spec = PerturbedWalk(2, 2.0, "plus")  # products ~ c/(n (log n)^2): slow tail
    s = build(spec, 100_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rp = return_prob(s)
    assert rp.upper - rp.lower > 1e-6


def test_return_prob_transient_minus_family():
    # depth-1 minus with b = -2 walks like plus b = 2: transient; the
    # point is the bitwise symmetry.
    s = build(PerturbedWalk(1, -2.0, "minus"), 100_000)
    rp = return_prob(s)
    assert rp.method == "shape-tail"
    ref = return_prob(build(PerturbedWalk(1, 2.0, "plus"), 100_000))
    assert rp.value == ref.value  # bitwise sign symmetry carries through


def test_hit_before_scratch_per_entry():
    # Each log-sum-exp holds one shifted float copy of its slice and a bool
    # mask: 9 B/entry of scratch on top of the table.
    n = 10**6
    series = build(ConstantWalk(0.4), n)
    tracemalloc.start()
    try:
        hit_before(series, HittingQuery(0, 1, n + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 12


def test_logsumexp_is_scipy_bitwise():
    from scipy.special import logsumexp

    from lmax.first_passage import _logsumexp

    rng = np.random.default_rng(20240)
    arrays = [rng.normal(scale=10.0 ** rng.integers(-3, 4), size=rng.integers(1, 400))
              for _ in range(2000)]
    # Tied maxima, including an all-equal array and ties among many entries.
    arrays += [np.array([1.5, 1.5, -2.0]), np.full(7, -3.25), np.array([0.0, 0.0]),
               np.round(rng.normal(size=500), 1), -np.arange(50.0) ** 2 / 7]
    arrays += [np.array([x]) for x in (0.0, -745.0, 3.7e5, -1e-300)]
    for a in arrays:
        assert _logsumexp(a) == float(logsumexp(a)), a


@pytest.mark.parametrize("leaf", [128, 1000, 1 << 16])
def test_logsumexp_in_pieces_is_scipy_bitwise(monkeypatch, leaf):
    # Slices longer than a piece are summed piece by piece along numpy's
    # pairwise split, which must leave every bit of scipy's result.
    from scipy.special import logsumexp

    from lmax import first_passage

    monkeypatch.setattr(first_passage, "_SUM_LEAF", leaf)
    rng = np.random.default_rng(7)
    arrays = [rng.normal(scale=10.0 ** rng.integers(-3, 4), size=rng.integers(129, 5000))
              for _ in range(200)]
    arrays += [np.round(rng.normal(size=300_001), 1), -np.log1p(np.arange(200_000.0))]
    for a in arrays:
        assert first_passage._logsumexp(a) == float(logsumexp(a))

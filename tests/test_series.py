import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmax import ConstantWalk, PerturbedWalk, RangeError, ResourceError, build, rho
from lmax.series import MAX_TABLE_ENV

from _oracles import brute_prefix_sum


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


def test_budget_enforced(monkeypatch):
    monkeypatch.setenv(MAX_TABLE_ENV, "500")
    with pytest.raises(ResourceError):
        build(ConstantWalk(0.5), 501)
    assert build(ConstantWalk(0.5), 500).n_max == 500


@pytest.mark.parametrize("spec,bound", [
    (ConstantWalk(0.4), 40),
    (PerturbedWalk(1, 2.0, "plus"), 40),
    (PerturbedWalk(2, 1.5, "plus"), 56),
])
def test_build_peak_memory_per_entry(spec, bound):
    # Traced peak of build: four n-length float64 arrays (32 B/entry) for
    # constant and k = 1 walks, six (48 B/entry) for k >= 2, whose drift
    # chain keeps its running product and iterate.  Scratch copies in the
    # chain once made every perturbed build 56 B/entry.
    n = 200_000
    tracemalloc.start()
    try:
        series = build(spec, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.n_max == n
    assert peak / n < bound


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

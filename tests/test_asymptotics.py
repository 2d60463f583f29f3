import math

import numpy as np
import pytest

from lmax import (
    ConfigError,
    ConstantWalk,
    DomainError,
    PerturbedWalk,
    RangeError,
    ShapeTarget,
    build,
    estimate_constant,
    log_shape,
    max_pmf_table,
    resolve_shape,
    step_up_prob,
)

PMF = ShapeTarget.MAX_PMF
PROD = ShapeTarget.PRODUCT


def test_target_values():
    assert PMF.value == "max-pmf"
    assert PROD.value == "product"


def test_symmetric_shape_by_hand():
    s = resolve_shape(ConstantWalk(0.5), PMF)
    assert s.kind == "simple-null"
    assert log_shape(s, 10) == pytest.approx(math.log(1 / 110), rel=1e-15)


def test_cubic_shape_by_hand():
    s = resolve_shape(PerturbedWalk(1, 1.0, "minus"), PMF)
    assert s.factors == ((0, 3.0),)
    assert log_shape(s, 10) == pytest.approx(math.log(1e-3), rel=1e-15)


def test_log_squared_shape_by_hand():
    s = resolve_shape(PerturbedWalk(1, 1.0, "plus"), PMF)
    assert s.factors == ((0, 1.0), (1, 2.0))
    want = 1 / (16 * math.log(16) ** 2)
    assert log_shape(s, 16) == pytest.approx(math.log(want), rel=1e-15)
    assert want == pytest.approx(0.0081303, abs=5e-8)


BRANCHES = [
    (ConstantWalk(0.5), PMF, "constant rho=1", ()),
    (ConstantWalk(2 / 3), PMF, "constant rho<1", ()),
    (ConstantWalk(1 / 3), PMF, "constant rho>1", ()),
    (ConstantWalk(0.4), PROD, "product constant", ()),
    (PerturbedWalk(1, 1.0, "plus"), PMF, "plus b=1", ((0, 1.0), (1, 2.0))),
    (PerturbedWalk(2, 1.0, "plus"), PMF, "plus b=1", ((0, 1.0), (1, 1.0), (2, 2.0))),
    (PerturbedWalk(1, 2.0, "plus"), PMF, "plus b>1", ((0, 2.0),)),
    (PerturbedWalk(2, 2.0, "plus"), PMF, "plus b>1", ((0, 1.0), (1, 2.0))),
    (PerturbedWalk(1, 0.5, "plus"), PMF, "plus b<1", ((0, 1.5),)),
    (PerturbedWalk(2, -1.0, "plus"), PMF, "plus b<1", ((0, 1.0), (1, 3.0))),
    (PerturbedWalk(1, 1.0, "minus"), PMF, "minus k=1 b>-1", ((0, 3.0),)),
    (PerturbedWalk(1, -1.0, "minus"), PMF, "minus k=1 b=-1", ((0, 1.0), (1, 2.0))),
    (PerturbedWalk(1, -2.0, "minus"), PMF, "minus k=1 b<-1", ((0, 2.0),)),
    (PerturbedWalk(2, 2.0, "minus"), PMF, "minus k>1", ((0, 3.0), (1, 2.0))),
    (PerturbedWalk(3, 1.5, "minus"), PMF, "minus k>1", ((0, 3.0), (1, 1.0), (2, 1.5))),
    (PerturbedWalk(1, 2.0, "plus"), PROD, "product plus", ((0, 2.0),)),
    (PerturbedWalk(3, 0.5, "plus"), PROD, "product plus", ((0, 1.0), (1, 1.0), (2, 0.5))),
    (PerturbedWalk(2, 2.0, "minus"), PROD, "product minus", ((0, -1.0), (1, -2.0))),
]


@pytest.mark.parametrize("spec,target,branch,factors", BRANCHES, ids=str)
def test_branch_resolution(spec, target, branch, factors):
    s = resolve_shape(spec, target)
    assert s.branch == branch
    assert s.factors == factors
    assert s.spec == spec and s.target is target


@pytest.mark.parametrize("spec,target,branch,factors", BRANCHES, ids=str)
def test_log_shape_of_an_array_is_the_scalar_form(spec, target, branch, factors):
    s = resolve_shape(spec, target)
    rng = np.random.default_rng(5)
    ns = np.concatenate([np.arange(s.n_min_valid, s.n_min_valid + 50),
                         rng.integers(s.n_min_valid, 2 * 10**7, 500)])
    got = log_shape(s, ns)
    assert got.dtype == np.float64 and got.shape == ns.shape
    want = [log_shape(s, int(n)) for n in ns]
    assert all(type(w) is float for w in want)
    assert got.tolist() == want  # bit for bit
    assert log_shape(s, ns[:0]).shape == (0,)
    with pytest.raises(DomainError):
        log_shape(s, np.append(ns, s.n_min_valid - 1))


def test_validity_thresholds():
    assert resolve_shape(PerturbedWalk(1, 1.0, "plus"), PMF).n_min_valid == 2
    assert resolve_shape(PerturbedWalk(2, 1.0, "plus"), PMF).n_min_valid == 4
    assert resolve_shape(ConstantWalk(0.5), PMF).n_min_valid == 1
    assert resolve_shape(PerturbedWalk(3, 1.0, "plus"), PMF).n_min_valid == 21
    assert resolve_shape(PerturbedWalk(3, 2.0, "minus"), PMF).n_min_valid == 4
    assert resolve_shape(PerturbedWalk(4, 0.5, "plus"), PMF).n_min_valid == 21
    assert resolve_shape(PerturbedWalk(4, 1.0, "plus"), PMF).n_min_valid == 788_762_618
    assert resolve_shape(PerturbedWalk(1, -1.0, "minus"), PMF).n_min_valid == 2
    assert resolve_shape(PerturbedWalk(5, 2.0, "plus"), PROD).n_min_valid == 788_762_618


def test_untabulable_threshold_rejected():
    # log_5 n passes 0.1 only beyond exp(7.9e8).
    with pytest.raises(ConfigError):
        resolve_shape(PerturbedWalk(5, 1.0, "plus"), PMF)


def test_below_threshold_rejected():
    s = resolve_shape(PerturbedWalk(2, 1.0, "plus"), PMF)
    assert math.isfinite(log_shape(s, 4))
    with pytest.raises(DomainError):
        log_shape(s, 3)


@pytest.mark.parametrize("p", [2 / 3, 0.25])
def test_geometric_branch_closed_form(p):
    r = (1 - p) / p
    s = resolve_shape(ConstantWalk(p), PMF)
    assert s.kind == "geometric"
    for n in (1, 5, 40):
        if r < 1:
            want = (1 - r) ** 2 * r**n
        else:
            want = (r - 1) ** 2 * r ** -(n + 1)
        assert log_shape(s, n) == pytest.approx(math.log(want), rel=1e-13)


def test_product_shape_constant_drift():
    s = resolve_shape(ConstantWalk(0.25), PROD)
    r = 3.0
    assert log_shape(s, 7) == pytest.approx(7 * math.log(r), rel=1e-13)


@pytest.mark.parametrize("b", [-2.0, -1.0, 0.5, 1.0, 2.0])
def test_sign_flip_gives_same_shape(b):
    # A "plus" walk with coefficient b is the same walk as "minus" with -b,
    # so the resolved pmf shapes must coincide exactly.
    sp = resolve_shape(PerturbedWalk(1, b, "plus"), PMF)
    sm = resolve_shape(PerturbedWalk(1, -b, "minus"), PMF)
    assert sp.factors == sm.factors
    assert sp.n_min_valid == sm.n_min_valid
    for n in (sp.n_min_valid, 100, 12345):
        assert log_shape(sp, n) == log_shape(sm, n)


def test_fit_symmetric_is_exact():
    series = build(ConstantWalk(0.5), 10_000)
    s = resolve_shape(ConstantWalk(0.5), PMF)
    fit = estimate_constant(series, s, 10, 10_000)
    assert fit.c_hat == pytest.approx(np.ones_like(fit.c_hat), abs=1e-13)
    assert fit.drift < 1e-13
    assert not fit.underflowed
    assert fit.branch == "constant rho=1"


def test_fit_geometric_converges_to_one():
    series = build(ConstantWalk(1 / 3), 100)
    s = resolve_shape(ConstantWalk(1 / 3), PMF)
    fit = estimate_constant(series, s, 20, 100)
    assert abs(fit.c_hat[-1] - 1.0) < 1e-12
    assert fit.drift < 1e-12


def test_fit_reports_underflow():
    # rho = 2: the pmf leaves the linear double range near n = 1022 but the
    # log-space fit keeps working.
    series = build(ConstantWalk(1 / 3), 1200)
    s = resolve_shape(ConstantWalk(1 / 3), PMF)
    fit = estimate_constant(series, s, 1000, 1200)
    assert fit.underflowed
    assert np.all(np.isfinite(fit.log_c_hat))
    # log_prod carries ~n adds of rounding at |log| ~ 800, so allow 1e-9.
    assert fit.log_c_hat[-1] == pytest.approx(0.0, abs=1e-9)
    assert fit.drift < 1e-9


def test_fit_slow_variation_null_case():
    spec = PerturbedWalk(1, 0.5, "plus")
    series = build(spec, 20_000)
    s = resolve_shape(spec, PMF)
    fit = estimate_constant(series, s, 100, 20_000)
    assert fit.drift < 0.05
    assert np.all(fit.c_hat > 0)


def test_fit_product_target():
    spec = PerturbedWalk(1, 2.0, "plus")
    series = build(spec, 50_000)
    s = resolve_shape(spec, PROD)
    fit = estimate_constant(series, s, 100, 50_000)
    assert fit.target is PROD
    assert fit.drift < 0.05


def test_fit_sampling_grid():
    series = build(ConstantWalk(0.5), 1000)
    s = resolve_shape(ConstantWalk(0.5), PMF)
    fit = estimate_constant(series, s, 10, 1000, samples=9)
    assert fit.ns[0] == 10 and fit.ns[-1] == 1000
    assert len(fit.ns) <= 9
    assert np.all(np.diff(fit.ns) > 0)
    assert len(fit.log_c_hat) == len(fit.ns) == len(fit.c_hat)


@pytest.mark.parametrize("spec,target", [
    (ConstantWalk(0.5), PMF), (ConstantWalk(0.4), PROD), (PerturbedWalk(2, 1.5, "plus"), PMF),
])
def test_fit_carries_the_log_shape_of_each_sample(spec, target):
    s = resolve_shape(spec, target)
    series = build(spec, 5000)
    fit = estimate_constant(series, s, 50, 5000)
    assert fit.log_shape.tolist() == [log_shape(s, int(n)) for n in fit.ns]
    lp, ls, ns = series.log_prod, series.log_prefix_sum, fit.ns  # ns >= 50: no pinned row 1
    exact = lp[ns] if target is PROD else lp[ns] - ls[ns - 1] - ls[ns]
    assert np.array_equal(fit.log_c_hat, exact - fit.log_shape)


def test_fit_range_errors():
    series = build(PerturbedWalk(2, 1.0, "plus"), 1000)
    s = resolve_shape(PerturbedWalk(2, 1.0, "plus"), PMF)
    with pytest.raises(RangeError):
        estimate_constant(series, s, 3, 1000)  # below n_min_valid
    with pytest.raises(RangeError):
        estimate_constant(series, s, 10, 1001)  # beyond the table
    with pytest.raises(RangeError):
        estimate_constant(series, s, 100, 90)  # empty window
    with pytest.raises(RangeError):
        estimate_constant(series, s, 4, 7)  # drift midpoint below threshold


def test_shape_tracks_exact_pmf():
    # Sanity: shape * fitted constant stays within a factor of the exact
    # pmf across the sampled window for a transient perturbed walk.
    spec = PerturbedWalk(1, 2.0, "plus")
    series = build(spec, 10_000)
    s = resolve_shape(spec, PMF)
    fit = estimate_constant(series, s, 50, 10_000)
    mid = float(np.median(fit.c_hat))
    pmf = max_pmf_table(series, 4096).pmf
    for n in (64, 512, 4096):
        approx = mid * math.exp(log_shape(s, n))
        assert approx == pytest.approx(pmf[n], rel=0.2)


@pytest.mark.parametrize("spec", [ConstantWalk(1e-9), PerturbedWalk(1, 3.0, "minus")], ids=str)
def test_fit_reads_the_pinned_first_row(spec):
    # log P(M = 1) = log1p(-p_1), which log P_1 - log S_0 - log S_1 loses
    # for tiny p_1 (8e-8 relative at p = 1e-9): the fit reads the table's row.
    s = resolve_shape(spec, PMF)
    series = build(spec, 4)
    fit = estimate_constant(series, s, 1, 4, samples=4)
    row = max_pmf_table(series, 4).log_pmf[1]
    assert row == math.log1p(-step_up_prob(spec, 1))
    assert fit.ns[0] == 1 and fit.log_c_hat[0] == row - fit.log_shape[0]

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmax import (
    ConfigError,
    ConstantWalk,
    DomainError,
    PerturbedWalk,
    compute_i0,
    iterated_log,
    log_rho,
    perturbation,
    rho,
    signed_drift,
    spec_from_params,
    spec_params,
    step_up_prob,
)
from lmax.walk import drift_term, log_rho_array, signed_drift_array, step_up_prob_array


def test_iterated_log_base_cases():
    assert iterated_log(0, 7.0) == 7.0
    assert iterated_log(1, math.e) == 1.0
    assert iterated_log(2, math.e**math.e) == pytest.approx(1.0, rel=1e-15)


def test_iterated_log_domain():
    with pytest.raises(DomainError):
        iterated_log(1, 0.0)
    with pytest.raises(DomainError):
        iterated_log(2, 1.0)  # log 1 = 0, next iterate undefined
    with pytest.raises(DomainError):
        iterated_log(-1, 2.0)


def test_perturbation_values():
    assert perturbation(1, 4, 2.0) == 0.5
    assert perturbation(1, 10, -1.0) == -0.1
    assert perturbation(2, 10, 0.0) == pytest.approx(0.1, rel=1e-15)


def test_perturbation_domain():
    with pytest.raises(DomainError):
        perturbation(2, 1, 1.0)  # log 1 = 0 denominator
    with pytest.raises(DomainError):
        perturbation(1, 0, 1.0)


def test_compute_i0():
    assert compute_i0(1, 1.0) == 1
    assert compute_i0(1, 4.0) == 3  # need |4/i| < 2, first at i=3
    assert compute_i0(2, 0.0) == 2
    assert compute_i0(1, 1000.0) == 501  # past the first scan blocks
    assert compute_i0(5, 1.0) == 3_814_280  # chain start near exp(exp(e))


def test_i0_strictness():
    # |lam|/4 = 1/2 exactly must not qualify: b=2 gives |2/i|/4 = 1/2 at i=1.
    assert compute_i0(1, 2.0) == 2


def test_drift_term_freeze():
    w = PerturbedWalk(1, 1.0, "plus")
    assert drift_term(w, 1) == 0.25
    assert drift_term(w, 10) == pytest.approx(0.025, rel=1e-15)
    w4 = PerturbedWalk(1, 4.0, "plus")
    assert w4.i0 == 3
    assert drift_term(w4, 1) == drift_term(w4, 3) == pytest.approx(1 / 3, rel=1e-15)


def test_rho_values():
    assert rho(ConstantWalk(0.5), 17) == 1.0
    assert rho(ConstantWalk(1 / 3), 2) == pytest.approx(2.0, rel=1e-15)
    assert rho(PerturbedWalk(1, 1.0, "plus"), 1) == pytest.approx(1 / 3, rel=1e-15)


def test_reflecting_origin():
    for spec in (ConstantWalk(0.3), PerturbedWalk(2, -1.0, "minus")):
        assert step_up_prob(spec, 0) == 1.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        ConstantWalk(0.0)
    with pytest.raises(ConfigError):
        ConstantWalk(1.5)
    with pytest.raises(ConfigError):
        PerturbedWalk(0, 1.0, "plus")
    with pytest.raises(ConfigError):
        PerturbedWalk(1, math.inf, "plus")
    with pytest.raises(ConfigError):
        PerturbedWalk(1, 1.0, "up")


def test_deep_tower_rejected():
    # k=6 would need i0 beyond e^e^e^e, far past any tabulable index.
    with pytest.raises(ConfigError):
        PerturbedWalk(6, 1.0, "plus")


def test_spec_params_round_trip():
    for spec in (ConstantWalk(0.375), PerturbedWalk(2, -1.5, "minus")):
        assert spec_from_params(spec_params(spec)) == spec


@given(
    b=st.floats(-5, 5, allow_nan=False),
    k=st.integers(1, 3),
    sign=st.sampled_from(["plus", "minus"]),
    i=st.integers(1, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_p_strictly_inside_unit_interval(b, k, sign, i):
    p = step_up_prob(PerturbedWalk(k, b, sign), i)
    assert 0.0 < p < 1.0


@given(b=st.floats(-4, 4, allow_nan=False), i=st.integers(1, 5_000))
@settings(max_examples=200, deadline=None)
def test_sign_symmetry_bitwise(b, i):
    plus = PerturbedWalk(1, b, "plus")
    minus = PerturbedWalk(1, -b, "minus")
    assert plus.i0 == minus.i0
    assert step_up_prob(plus, i) == step_up_prob(minus, i)
    assert rho(plus, i) == rho(minus, i)
    assert log_rho(plus, i) == log_rho(minus, i)


@given(
    b=st.floats(-4, 4, allow_nan=False),
    k=st.integers(1, 3),
    i=st.integers(1, 5_000),
)
@settings(max_examples=200, deadline=None)
def test_adjoint_inverts_log_rho_bitwise(b, k, i):
    # Swapping up/down probabilities negates log rho with no rounding at all.
    up = PerturbedWalk(k, b, "plus")
    down = PerturbedWalk(k, b, "minus")
    assert log_rho(down, i) == -log_rho(up, i)


def test_adjoint_rho_reciprocal_to_an_ulp():
    up = PerturbedWalk(2, 1.5, "plus")
    down = PerturbedWalk(2, 1.5, "minus")
    for i in (1, 2, 17, 400, 99_999):
        assert rho(up, i) * rho(down, i) == pytest.approx(1.0, rel=5e-16)


def test_log_rho_bounded_by_frozen_drift():
    spec = PerturbedWalk(1, 4.0, "minus")
    r0 = drift_term(spec, spec.i0)
    bound = math.log((0.5 + r0) / (0.5 - r0)) * (1 + 1e-12)
    for i in range(1, 2000):
        assert abs(log_rho(spec, i)) <= bound


def test_rho_tends_to_one():
    for spec in (PerturbedWalk(1, 3.0, "plus"), PerturbedWalk(2, -2.0, "minus")):
        for i in (10_000, 1_000_000):
            lam = abs(perturbation(spec.k, i, spec.b))
            assert abs(rho(spec, i) - 1.0) < 2.0 * lam + 1e-12


def test_array_paths_match_scalar_bitwise():
    idx = np.arange(1, 3000, dtype=np.int64)
    for spec in (
        ConstantWalk(0.37),
        PerturbedWalk(1, 0.5, "plus"),
        PerturbedWalk(2, 2.0, "minus"),
        PerturbedWalk(3, -1.0, "plus"),
    ):
        d = signed_drift_array(spec, idx)
        lr = log_rho_array(spec, idx)
        p = step_up_prob_array(spec, idx)
        for i in idx.tolist():
            assert d[i - 1] == signed_drift(spec, i)
            assert lr[i - 1] == log_rho(spec, i)
            assert p[i - 1] == step_up_prob(spec, i)


def test_step_up_prob_array_reflects_and_keeps_constant_p():
    # 0.5 + (0.1 - 0.5) != 0.1, so the constant family must not go through the drift.
    p = step_up_prob_array(ConstantWalk(0.1), np.arange(4))
    assert p.tolist() == [1.0, 0.1, 0.1, 0.1]
    assert step_up_prob(ConstantWalk(0.1), 7) == 0.1
    q = step_up_prob_array(PerturbedWalk(1, 1.0, "minus"), np.arange(3))
    assert q.tolist() == [1.0, 0.25, 0.5 - 0.125]
    with pytest.raises(DomainError):
        step_up_prob_array(ConstantWalk(0.1), np.array([2, -1]))


def test_numpy_scalar_parameters_accepted():
    w = ConstantWalk(np.float64(0.25))
    assert isinstance(w.p, float)
    v = PerturbedWalk(np.int64(2), np.float64(1.0), "plus")
    assert isinstance(v.k, int) and isinstance(v.b, float)

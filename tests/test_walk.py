import functools
import math

import mpmath
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
    rho,
    spec_from_params,
    spec_params,
    step_up_prob,
)
from lmax.walk import (
    _least_site,
    _log_above,
    _perturbation_array,
    log_rho_array,
    signed_drift_array,
    step_up_prob_array,
)


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
    # 4 * delta_i is lam(k, i, b) exactly on "plus" walks; each site is past i0.
    def lam(k, b, i):
        return 4 * signed_drift_array(PerturbedWalk(k, b, "plus"), np.array([i]))[0]

    assert lam(1, 2.0, 4) == 0.5
    assert lam(1, -1.0, 10) == -0.1
    assert lam(2, 0.0, 10) == pytest.approx(0.1, rel=1e-15)


def test_compute_i0():
    assert compute_i0(1, 1.0) == 1
    assert compute_i0(1, 4.0) == 3  # need |4/i| < 2, first at i=3
    assert compute_i0(2, 0.0) == 2
    assert compute_i0(1, 1000.0) == 501  # past the first scan blocks
    assert compute_i0(5, 1.0) == 3_814_280  # chain start near exp(exp(e))
    assert compute_i0(3, 1.0) == 4
    assert compute_i0(4, 1.0) == 16
    with pytest.raises(ConfigError, match="k must be >= 1"):
        compute_i0(0, 1.0)


def _i0_by_scan(k: int, b: float) -> int:
    """i0 by the scan the search replaced: an exponential tower, then doubling blocks.

    The tower starts just below the chain's first positive site, steps up to
    it, and the blocks evaluate lam at every site from there on.
    """
    tower = 0.0
    for _ in range(k - 1):
        tower = math.exp(tower)
    i = max(1, math.floor(tower))
    while iterated_log(k - 1, float(i)) <= 0.0:
        i += 1
    size = 64
    while True:
        lam = _perturbation_array(k, np.arange(i, i + size, dtype=np.float64), b)
        small = np.abs(lam) / 4.0 < 0.5
        if small.any():
            return i + int(small.argmax())
        i, size = i + size, 2 * size


_I0_GRID = [0.0] + [sign * m * 10.0**e for sign in (1, -1) for e in range(-3, 7)
                    for m in (1, 1.5, 2, 2.5, 3, 3.98, 4, 5, 7) if m * 10.0**e <= 1e6]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_i0_search_equals_the_scan(k):
    # The search probes single sites; the scan read whole blocks.  Same i0 everywhere.
    got = {b: compute_i0(k, b) for b in _I0_GRID}
    assert got == {b: _i0_by_scan(k, b) for b in _I0_GRID}


def _site_above_by_tower(depth: int, floor: float):
    """The least n with log_depth(n) > floor as the search it replaced found it, or None.

    An exponential tower from ``floor``, then steps of 1; None where the
    tower passed 2**53.
    """
    tower = floor
    for _ in range(depth):
        if tower >= math.log(2**53):
            return None
        tower = math.exp(tower)
    n = max(1, math.floor(tower))
    while iterated_log(depth, float(n)) <= floor:
        n += 1
    return n


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_log_threshold_search_equals_the_tower(depth):
    for floor in (0.0, 0.1, 0.5, 1.0, 2.0):
        want = _site_above_by_tower(depth, floor)
        crossed = functools.partial(_log_above, depth, floor)
        if want is None:
            with pytest.raises(ConfigError, match="threshold lies past 2"):
                _least_site(crossed, "threshold")
        else:
            assert _least_site(crossed, "threshold") == want, floor


def test_i0_past_the_scan_limit_rejected():
    # i0 of k = 1 is near |b|/2: 2**53 is the last site probed.
    assert compute_i0(1, 2.0**54 - 4.0) == 2**53 - 1
    with pytest.raises(ConfigError, match="past 2\\*\\*53"):
        compute_i0(1, 2.0**54)
    with pytest.raises(ConfigError, match="past 2\\*\\*53"):
        compute_i0(3, 1e300)
    with pytest.raises(ConfigError, match="past 2\\*\\*53"):
        compute_i0(1, math.nan)


def test_i0_strictness():
    # |lam|/4 = 1/2 exactly must not qualify: b=2 gives |2/i|/4 = 1/2 at i=1.
    assert compute_i0(1, 2.0) == 2


def test_drift_term_freeze():
    d = signed_drift_array(PerturbedWalk(1, 1.0, "plus"), np.array([1, 10]))
    assert d[0] == 0.25
    assert d[1] == pytest.approx(0.025, rel=1e-15)
    w4 = PerturbedWalk(1, 4.0, "plus")
    assert w4.i0 == 3
    d1, d3 = signed_drift_array(w4, np.array([1, 3]))
    assert d1 == d3 == pytest.approx(1 / 3, rel=1e-15)


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


@pytest.mark.parametrize("params", [{"family": "lattice", "p": 0.5}, {"p": 0.5}])
def test_spec_from_params_unknown_family(params):
    with pytest.raises(ConfigError, match="unknown walk family"):
        spec_from_params(params)


def test_sites_below_one_rejected():
    spec = PerturbedWalk(2, 1.0, "plus")
    for walk in (spec, ConstantWalk(0.4)):
        with pytest.raises(DomainError, match="site index must be >= 1, got 0"):
            rho(walk, 0)
    with pytest.raises(DomainError, match="site indices must be >= 1"):
        signed_drift_array(spec, np.array([3, 0, 5]))


@pytest.mark.parametrize("key", ["p", "k", "b", "sign"])
def test_spec_from_params_missing_key(key):
    spec = ConstantWalk(0.375) if key == "p" else PerturbedWalk(2, -1.5, "minus")
    params = spec_params(spec)
    del params[key]
    with pytest.raises(ConfigError, match=repr(key)):
        spec_from_params(params)


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
    assert log_rho_array(plus, np.array([i]))[0] == log_rho_array(minus, np.array([i]))[0]


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
    assert log_rho_array(down, np.array([i]))[0] == -log_rho_array(up, np.array([i]))[0]


def test_adjoint_rho_reciprocal_to_an_ulp():
    up = PerturbedWalk(2, 1.5, "plus")
    down = PerturbedWalk(2, 1.5, "minus")
    for i in (1, 2, 17, 400, 99_999):
        assert rho(up, i) * rho(down, i) == pytest.approx(1.0, rel=5e-16)


def test_log_rho_bounded_by_frozen_drift():
    spec = PerturbedWalk(1, 4.0, "minus")
    r0 = abs(signed_drift_array(spec, np.array([spec.i0]))[0])
    bound = math.log((0.5 + r0) / (0.5 - r0)) * (1 + 1e-12)
    assert np.all(np.abs(log_rho_array(spec, np.arange(1, 2000))) <= bound)


def test_rho_tends_to_one():
    for spec in (PerturbedWalk(1, 3.0, "plus"), PerturbedWalk(2, -2.0, "minus")):
        for i in (10_000, 1_000_000):
            lam = 4 * abs(signed_drift_array(spec, np.array([i]))[0])
            assert abs(rho(spec, i) - 1.0) < 2.0 * lam + 1e-12


def test_array_paths_match_scalar_bitwise():
    idx = np.arange(1, 3000, dtype=np.int64)
    for spec in (
        ConstantWalk(0.37),
        PerturbedWalk(1, 0.5, "plus"),
        PerturbedWalk(2, 2.0, "minus"),
        PerturbedWalk(3, -1.0, "plus"),
    ):
        p = step_up_prob_array(spec, idx)
        for i in idx.tolist():
            assert p[i - 1] == step_up_prob(spec, i)
        if isinstance(spec, PerturbedWalk):
            d = signed_drift_array(spec, idx)
            for i in idx.tolist():
                assert rho(spec, i) == (1.0 - 2.0 * d[i - 1]) / (1.0 + 2.0 * d[i - 1])


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


@pytest.mark.parametrize("spec,sites", [
    (PerturbedWalk(1, 3.98, "plus"), [1, 2, 3]),            # frozen: delta = 0.4975
    (PerturbedWalk(1, -3.98, "plus"), [1, 2, 3]),           # delta = -0.4975
    (PerturbedWalk(2, 1.5, "minus"), [2, 17, 400, 99_999]),
    (PerturbedWalk(1, 0.5, "plus"), [10**6, 10**9, 10**12, 10**15]),  # delta near 0
])
def test_log_rho_within_an_ulp_of_mpmath(spec, sites):
    # -2 atanh(2 delta) against log((1 - 2 delta)/(1 + 2 delta)) of the same
    # double delta in 50 digits.
    got = log_rho_array(spec, np.array(sites))
    deltas = signed_drift_array(spec, np.array(sites))
    with mpmath.workdps(50):
        for g, d in zip(got.tolist(), deltas.tolist()):
            want = mpmath.log((1 - 2 * mpmath.mpf(d)) / (1 + 2 * mpmath.mpf(d)))
            assert float(abs(mpmath.mpf(g) - want)) <= math.ulp(abs(float(want)))

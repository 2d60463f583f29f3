import math

import mpmath as mp
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
    log_max_pmf,
    max_pmf,
    max_pmf_table,
    return_prob,
    step_up_prob,
    tail_mass,
)

from _oracles import closed_masses, geometric_pmf, symmetric_pmf, telescoping_pmf


def test_one_step_excursion():
    s = build(ConstantWalk(0.5), 5)
    assert max_pmf(s, 1) == 0.5


def test_symmetric_by_hand():
    s = build(ConstantWalk(0.5), 10)
    assert max_pmf(s, 3) == pytest.approx(1 / 12, rel=1e-14)


def test_upward_drift_by_hand():
    s = build(ConstantWalk(2 / 3), 10)
    assert max_pmf(s, 2) == pytest.approx(2 / 21, rel=1e-14)


def test_table_small_values():
    t = max_pmf_table(build(ConstantWalk(0.5), 10), 4)
    assert t.pmf[1:5] == pytest.approx([1 / 2, 1 / 6, 1 / 12, 1 / 20], rel=1e-14)
    assert abs(t.cumulative[4] - 4 / 5) <= 2 * math.ulp(4 / 5)


def test_total_mass_transient():
    t = max_pmf_table(build(ConstantWalk(2 / 3), 2000), 2000)
    assert t.cumulative[-1] == pytest.approx(0.5, abs=1e-12)


def test_pmf_one_is_exactly_q1():
    for spec in (
        ConstantWalk(0.375),
        PerturbedWalk(1, 1.0, "plus"),
        PerturbedWalk(2, -0.5, "minus"),
    ):
        s = build(spec, 3)
        q1 = 1.0 - step_up_prob(spec, 1)
        assert max_pmf(s, 1) == q1
        assert max_pmf_table(s, 3).pmf[1] == q1


@pytest.mark.parametrize("p", [2 / 3, 1 / 3, 0.55, 0.21])
def test_geometric_closed_form(p):
    s = build(ConstantWalk(p), 100)
    for n in range(1, 101):
        want = float(geometric_pmf(p, n))
        assert max_pmf(s, n) == pytest.approx(want, rel=1e-12)


def test_symmetric_closed_form():
    s = build(ConstantWalk(0.5), 500)
    for n in (1, 2, 13, 499):
        assert max_pmf(s, n) == pytest.approx(symmetric_pmf(n), rel=1e-13)


def test_telescoping_closed_form():
    s = build(PerturbedWalk(1, 1.0, "minus"), 1000)
    for n in (1, 2, 10, 999):
        assert max_pmf(s, n) == pytest.approx(telescoping_pmf(n), rel=1e-12)


DECOMP_SPECS = [
    ConstantWalk(0.5),
    ConstantWalk(0.7),
    PerturbedWalk(1, -1.0, "plus"),
    PerturbedWalk(2, 2.0, "minus"),
]


@pytest.mark.parametrize("spec", DECOMP_SPECS, ids=str)
def test_factorization_identity(spec):
    # pmf(n) must equal P(reach n before 0) * P(return before n+1).
    s = build(spec, 60)
    for n in range(1, 51):
        reach = 1.0 - hit_before(s, HittingQuery(0, 1, n)) if n > 1 else 1.0
        fall = hit_before(s, HittingQuery(0, n, n + 1))
        assert max_pmf(s, n) == pytest.approx(reach * fall, rel=1e-12)


def test_log_and_linear_agree():
    s = build(PerturbedWalk(2, 1.0, "plus"), 100)
    for n in (2, 17, 100):
        assert max_pmf(s, n) == pytest.approx(math.exp(log_max_pmf(s, n)), rel=1e-15)


@pytest.mark.parametrize("spec", [
    ConstantWalk(0.4), PerturbedWalk(2, 1.5, "plus"), PerturbedWalk(1, 1.0, "minus"),
])
def test_scalar_pmf_is_the_table_entry(spec):
    # Both exponentiate with np.exp; math.exp differed in the last bit on
    # 66, 885 and 909 of these 20000 entries.
    n_max = 20_000
    s = build(spec, n_max)
    table = max_pmf_table(s, n_max)
    scalar = np.array([max_pmf(s, n) for n in range(1, n_max + 1)])
    assert np.array_equal(scalar, table.pmf[1:])


def test_range_errors():
    s = build(ConstantWalk(0.5), 10)
    with pytest.raises(RangeError):
        max_pmf(s, 11)
    with pytest.raises(RangeError):
        max_pmf(s, 0)
    with pytest.raises(RangeError):
        max_pmf_table(s, 11)
    t = max_pmf_table(s, 10)
    with pytest.raises(RangeError):
        tail_mass(t, 11)


@given(p=st.floats(0.15, 0.85), n=st.integers(2, 300))
@settings(max_examples=50, deadline=None)
def test_table_invariants(p, n):
    t = max_pmf_table(build(ConstantWalk(p), n), n)
    body = t.pmf[1:]
    assert np.all(body > 0) and np.all(body < 1)
    assert np.all(np.diff(t.cumulative) >= 0)
    assert t.cumulative[-1] <= 1.0
    assert np.isfinite(t.log_pmf[1:]).all()


# Walks whose prefix sums S_n have a closed form, so 1 - 1/S_n and 1/S_n
# are exact oracles at any depth.
CLOSED_WALKS = [
    (ConstantWalk(0.5), "symmetric", 0.5),
    (PerturbedWalk(1, 1.0, "minus"), "telescoping", 0.5),
    (ConstantWalk(0.4), "geometric", 0.4),
    (ConstantWalk(0.6), "geometric", 0.6),
]
ORACLE_DEPTHS = sorted(
    set(range(1, 41)) | {int(round(10 ** (0.025 * i))) for i in range(64, 241)}
)


@pytest.mark.parametrize("spec, kind, p", CLOSED_WALKS, ids=lambda v: str(v))
def test_cumulative_matches_closed_form_to_few_ulp(spec, kind, p):
    n_max = ORACLE_DEPTHS[-1]
    assert n_max == 1_000_000
    t = max_pmf_table(build(spec, n_max), n_max)
    worst = 0.0
    for n in ORACLE_DEPTHS:
        want, _ = closed_masses(kind, n, p)
        worst = max(worst, abs(float(t.cumulative[n]) - want) / math.ulp(want))
    assert worst <= 4.0, f"cumulative off by {worst:.1f} ulp"


DEEP_TABLE_WALKS = [
    ConstantWalk(0.43),
    ConstantWalk(0.5),
    PerturbedWalk(1, 2.0, "plus"),
    PerturbedWalk(1, 1.0, "minus"),
]


@pytest.mark.parametrize("spec", DEEP_TABLE_WALKS, ids=str)
def test_cumulative_monotone_and_at_most_one_at_1e7(spec):
    n_max = 10_000_000
    c = max_pmf_table(build(spec, n_max), n_max).cumulative
    assert c[0] == 0.0 and c[1] > 0.0
    assert np.all(c[1:] >= c[:-1])
    assert c[-1] <= 1.0


@pytest.mark.parametrize(
    "spec, kind, p, n",
    [
        (ConstantWalk(0.4), "geometric", 0.4, 50),
        (ConstantWalk(0.4), "geometric", 0.4, 100),
        (ConstantWalk(0.4), "geometric", 0.4, 200),
        (ConstantWalk(0.5), "symmetric", 0.5, 1_000_000),
        (PerturbedWalk(1, 1.0, "minus"), "telescoping", 0.5, 1_000_000),
    ],
    ids=lambda v: str(v),
)
def test_tail_mass_recurrent_deep_matches_closed_form(spec, kind, p, n):
    # P(M >= n, D < inf) = 1/S_{n-1} on a recurrent walk; at p = 0.4 and
    # n = 200 that is 3.0e-36, far below the rounding noise of 1 - P(M < n).
    t = max_pmf_table(build(spec, n), n)
    _, want = closed_masses(kind, n - 1, p)
    tm = tail_mass(t, n)
    assert tm.exact and tm.lower == tm.value == tm.upper
    assert tm.value == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 10, 40])
def test_tail_mass_transient_matches_closed_form(n):
    # Constant p > 1/2: P(M >= n, D < inf) = 1/S_{n-1} - 1/S_inf, with
    # 1/S_{n-1} = (rho - 1)/(rho^n - 1) and 1/S_inf = 1 - rho.
    p = 2 / 3
    t = max_pmf_table(build(ConstantWalk(p), 100_000), 200)
    with mp.workdps(40):
        r = (1 - mp.mpf(p)) / mp.mpf(p)
        want = float((r - 1) / (r**n - 1) - (1 - r))
    tm = tail_mass(t, n)
    assert tm.value == pytest.approx(want, abs=1e-15)
    assert tm.lower <= tm.value <= tm.upper


def test_cumulative_below_return_upper():
    spec = PerturbedWalk(1, 2.0, "plus")
    s = build(spec, 100_000)
    t = max_pmf_table(s, 100_000)
    rp = return_prob(s)
    assert t.cumulative[-1] <= rp.upper + 1e-15


def test_tail_mass_recurrent():
    t = max_pmf_table(build(ConstantWalk(0.5), 100), 100)
    tm = tail_mass(t, 5)
    assert tm.exact
    assert abs(tm.value - 0.2) <= 2 * math.ulp(0.2)
    assert tm.lower == tm.value == tm.upper


def test_tail_mass_at_one_is_return_prob():
    s = build(ConstantWalk(2 / 3), 100_000)
    t = max_pmf_table(s, 200)
    tm = tail_mass(t, 1)
    rp = return_prob(s)
    assert tm.value == pytest.approx(rp.value, abs=1e-15)
    assert not tm.exact


def test_tail_mass_short_constant_table():
    # A constant walk's bracket is exact on a short table too.
    short = max_pmf_table(build(ConstantWalk(2 / 3), 200), 200)
    deep = max_pmf_table(build(ConstantWalk(2 / 3), 100_000), 200)
    for n in (1, 2, 10, 200):
        assert tail_mass(short, n) == tail_mass(deep, n)


def test_tail_mass_transient_by_hand():
    # p = 2/3: pmf(1) = 1/3, total mass 1/2, so mass at 2+ is 1/6.
    s = build(ConstantWalk(2 / 3), 100_000)
    t = max_pmf_table(s, 200)
    tm = tail_mass(t, 2)
    assert tm.value == pytest.approx(1 / 6, abs=1e-12)
    assert tm.lower <= tm.value <= tm.upper

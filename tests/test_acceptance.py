"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test records a [PASS]/[FAIL] line through conftest.record_acceptance
(echoed in the terminal summary) and then asserts, so a red criterion is
visible both as a failed test and as a labeled line.  Tolerances and
budgets are pinned here on purpose; loosening them is an interface change.
"""

import subprocess
import sys
import time

import numpy as np

from conftest import record_acceptance
from lmax import (
    ConstantWalk,
    Justification,
    PerturbedWalk,
    Recurrence,
    ShapeTarget,
    SimConfig,
    build,
    classify,
    compare,
    estimate_constant,
    max_pmf_table,
    resolve_shape,
    return_prob,
    run,
)
from lmax.first_passage import HittingQuery, hit_before

from _oracles import geometric_pmf, hit_probs_banded, telescoping_pmf

_tables = {}


def _table(spec, n_max):
    key = (spec, n_max)
    if key not in _tables:
        _tables[key] = max_pmf_table(build(spec, n_max), n_max)
    return _tables[key]


def test_c01_symmetric_exactness():
    t0 = time.perf_counter()
    table = _table(ConstantWalk(0.5), 10_000)
    n = np.arange(1, 10_001)
    want = 1.0 / (n * (n + 1.0))
    err = float(np.max(np.abs(table.pmf[1:] / want - 1.0)))
    dt = time.perf_counter() - t0
    ok = err <= 1e-12 and dt < 1.0
    record_acceptance(
        "C1 symmetric pmf matches 1/(n(n+1)) for n <= 1e4",
        ok,
        f"max rel err {err:.2e}, {dt:.2f}s",
    )
    assert ok


def test_c02_geometric_exactness():
    worst = 0.0
    for p in (2 / 3, 1 / 3):
        table = _table(ConstantWalk(p), 100)
        for n in range(1, 101):
            want = float(geometric_pmf(p, n))
            worst = max(worst, abs(table.pmf[n] / want - 1.0))
    ok = worst <= 1e-12
    record_acceptance(
        "C2 geometric pmf matches 50-digit closed form, n <= 100",
        ok,
        f"max rel err {worst:.2e}",
    )
    assert ok


def test_c03_hitting_probability_oracle():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            spec = ConstantWalk(float(rng.uniform(0.15, 0.85)))
        else:
            spec = PerturbedWalk(
                k=int(rng.integers(1, 4)),
                b=float(rng.uniform(-3.0, 3.0)),
                sign="plus" if rng.random() < 0.5 else "minus",
            )
        b = int(rng.integers(3, 13))
        a = int(rng.integers(0, b - 1))
        series = build(spec, max(1, b - 1))
        oracle = hit_probs_banded(spec, a, b)
        for k in range(a, b + 1):
            got = hit_before(series, HittingQuery(a, k, b))
            worst = max(worst, abs(got - oracle[k - a]))
    ok = worst <= 1e-10
    record_acceptance(
        "C3 hit_before agrees with tridiagonal solve, 20 instances",
        ok,
        f"max abs err {worst:.2e}",
    )
    assert ok


def test_c04_normalization_positive_recurrent():
    table = _table(PerturbedWalk(1, 1.0, "minus"), 100_000)
    total = float(table.cumulative[-1])
    checked = [
        (ConstantWalk(0.5), 10_000),
        (ConstantWalk(2 / 3), 100),
        (ConstantWalk(1 / 3), 100),
        (PerturbedWalk(1, 1.0, "minus"), 100_000),
        (PerturbedWalk(1, 0.5, "plus"), 1_000),
        (PerturbedWalk(2, 2.0, "plus"), 1_000),
        (PerturbedWalk(2, 0.0, "plus"), 1_000),
    ]
    monotone = all(
        np.all(np.diff(_table(s, n).cumulative) >= 0)
        and _table(s, n).cumulative[-1] <= 1.0
        for s, n in checked
    )
    ok = (1.0 - 1e-3) <= total <= 1.0 and monotone
    record_acceptance(
        "C4 mass sums to 1 (down-perturbed), partial sums monotone <= 1",
        ok,
        f"cumulative(1e5) = {total:.12f}, {len(checked)} specs monotone",
    )
    assert ok


def test_c05_transient_mass():
    series = build(ConstantWalk(2 / 3), 100_000)
    rp = return_prob(series)
    cum = float(_table(ConstantWalk(2 / 3), 200).cumulative[200])
    ok = abs(rp.value - 0.5) <= 1e-9 and abs(cum - 0.5) <= 1e-9
    record_acceptance(
        "C5 transient mass: return prob and cumulative both 0.5",
        ok,
        f"return {rp.value:.12f}, cumulative(200) {cum:.12f}",
    )
    assert ok


_T = Recurrence.TRANSIENT
_N = Recurrence.NULL_RECURRENT
_P = Recurrence.POSITIVE_RECURRENT


def _expected_labels(k, b):
    """Hand-derived (plus, minus) labels for the duality grid."""
    if k == 1:
        if b > 1:
            return _T, _P
        if b < -1:
            return _P, _T
        return _N, _N
    if b > 1:
        return _T, _P
    return _N, _N


def test_c06_sign_and_adjoint_symmetry():
    pair_ok = True
    for b in (-2.0, -1.0, 0.5, 1.0, 2.0):
        ta = _table(PerturbedWalk(1, b, "plus"), 1_000)
        tb = _table(PerturbedWalk(1, -b, "minus"), 1_000)
        pair_ok &= np.array_equal(ta.pmf, tb.pmf)
        pair_ok &= np.array_equal(ta.log_pmf, tb.log_pmf)
    grid_ok = True
    for k in (1, 2, 3):
        for b in (-2.0, -1.0, 0.0, 1.0, 2.0):
            want_plus, want_minus = _expected_labels(k, b)
            plus = classify(PerturbedWalk(k, b, "plus")).label
            minus = classify(PerturbedWalk(k, b, "minus")).label
            grid_ok &= plus is want_plus and minus is want_minus
            grid_ok &= (plus is _T) == (minus is _P)
            grid_ok &= (plus is _N) == (minus is _N)
    ok = bool(pair_ok and grid_ok)
    record_acceptance(
        "C6 sign-flipped pmf bitwise equal; duality grid labels match",
        ok,
        f"5 table pairs bitwise {'equal' if pair_ok else 'UNEQUAL'}, "
        f"30 grid labels {'match' if grid_ok else 'MISMATCH'}",
    )
    assert ok


def test_c07_asymptotic_drift_depth_one():
    t0 = time.perf_counter()
    spec = PerturbedWalk(1, 0.5, "plus")
    shape = resolve_shape(spec, ShapeTarget.MAX_PMF)
    series = build(spec, 200_000)
    fit = estimate_constant(series, shape, 2_000, 200_000)
    dt = time.perf_counter() - t0
    ok = shape.branch == "plus b<1" and fit.drift < 0.01 and dt < 5.0
    record_acceptance(
        "C7 depth-1 constant drift |c(2e5)/c(1e5) - 1| < 1%",
        ok,
        f"branch '{shape.branch}', drift {fit.drift:.2e}, {dt:.2f}s",
    )
    assert ok


def test_c08_asymptotic_drift_depth_two():
    t0 = time.perf_counter()
    drifts = {}
    for b in (0.0, 2.0):
        spec = PerturbedWalk(2, b, "plus")
        shape = resolve_shape(spec, ShapeTarget.MAX_PMF)
        series = build(spec, 2_000_000)
        fit = estimate_constant(series, shape, 20_000, 2_000_000)
        drifts[b] = fit.drift
    dt = time.perf_counter() - t0
    ok = all(d < 0.05 for d in drifts.values()) and dt < 30.0
    record_acceptance(
        "C8 depth-2 constant drift < 5% at n = 1e6, B in {0, 2}",
        ok,
        f"drift B=0: {drifts[0.0]:.2e}, B=2: {drifts[2.0]:.2e}, {dt:.2f}s",
    )
    assert ok


def _bins_within_four_se(spec, result, n_upto=10, min_expected=50.0):
    pmf = max_pmf_table(build(spec, n_upto + 1), n_upto).pmf
    worst = 0.0
    checked = 0
    for n in range(1, n_upto + 1):
        exact = float(pmf[n])
        if exact * result.total < min_expected:
            continue
        checked += 1
        se = (exact * (1.0 - exact) / result.total) ** 0.5
        worst = max(worst, abs(result.counts[n] / result.total - exact) / se)
    return worst, checked


def test_c09_monte_carlo_vs_exact():
    t0 = time.perf_counter()
    res_a = run(SimConfig(ConstantWalk(0.5), 100_000, seed=20260816, cap_steps=100_000))
    worst_a, checked_a = _bins_within_four_se(ConstantWalk(0.5), res_a)
    res_b = run(SimConfig(PerturbedWalk(1, 1.0, "minus"), 100_000, seed=20260816))
    worst_b, checked_b = _bins_within_four_se(PerturbedWalk(1, 1.0, "minus"), res_b)
    control = compare(
        run(SimConfig(ConstantWalk(0.55), 50_000, seed=123, cap_steps=100_000, cap_height=64)),
        _table(ConstantWalk(0.45), 63),
    )
    dt = time.perf_counter() - t0
    ok = (
        worst_a <= 4.0
        and checked_a == 10
        and worst_b <= 4.0
        and checked_b == 10
        and control.n_flagged > 0
        and dt < 60.0
    )
    record_acceptance(
        "C9 simulation within 4 se on bins n <= 10; control flags",
        ok,
        f"worst |z| {worst_a:.2f} / {worst_b:.2f}, "
        f"control flags {control.n_flagged}, {dt:.1f}s",
    )
    assert ok


def test_c10_cli_determinism():
    base = [
        sys.executable, "-m", "lmax", "simulate",
        "--p", "0.5", "--excursions", "50000", "--seed", "7",
        "--cap-steps", "100000",
    ]
    outputs = []
    rc_ok = True
    for workers in (1, 1, 4, 8):
        r = subprocess.run(base + ["--workers", str(workers)], capture_output=True)
        rc_ok &= r.returncode == 0
        outputs.append(r.stdout)
    ok = rc_ok and all(o == outputs[0] for o in outputs[1:]) and len(outputs[0]) > 0
    record_acceptance(
        "C10 CLI simulate byte-identical across reruns and workers 1/4/8",
        ok,
        f"{len(outputs[0])} bytes each",
    )
    assert ok


def test_justification_provenance():
    # Companion check, not a numbered criterion: depth >= 2 up-perturbed
    # recurrent labels are the only ones that lean on the adjoint argument.
    got = classify(PerturbedWalk(2, 0.5, "plus"))
    assert got.justification is Justification.ADJOINT
    assert classify(PerturbedWalk(2, 0.5, "minus")).justification is Justification.CRITERION

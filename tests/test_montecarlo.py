import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from lmax import (
    BLOCK,
    ConfigError,
    ConstantWalk,
    PerturbedWalk,
    RangeError,
    ResourceError,
    SimConfig,
    build,
    compare,
    max_pmf_table,
    run,
)


def test_config_validation():
    good = dict(spec=ConstantWalk(0.5), excursions=10, seed=1)
    SimConfig(**good)
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "excursions": 0})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "seed": -1})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "seed": 2**64})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "workers": 0})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "cap_steps": 0})
    with pytest.raises(ConfigError):
        SimConfig(**{**good, "cap_height": 1})


def test_conservation():
    r = run(SimConfig(ConstantWalk(0.5), 5000, seed=42, cap_steps=200))
    assert r.counts[0] == 0
    assert int(r.counts.sum()) + r.censored_height + r.censored_steps == r.total == 5000


def test_workers_do_not_change_tallies():
    # 3 full blocks plus a remainder, merged identically in block order.
    n = 3 * BLOCK + 1234
    base = SimConfig(ConstantWalk(0.5), n, seed=7, cap_steps=2000, cap_height=64)
    a = run(base)
    b = run(SimConfig(ConstantWalk(0.5), n, seed=7, workers=5, cap_steps=2000, cap_height=64))
    assert np.array_equal(a.counts, b.counts)
    assert (a.censored_height, a.censored_steps) == (b.censored_height, b.censored_steps)


def test_worker_threads_are_clamped(monkeypatch):
    from lmax import montecarlo

    seen = []

    class SerialPool:
        """Records the requested size and runs blocks inline: no thread starts."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
    n = 2 * BLOCK + 5  # three blocks
    cfg = dict(spec=ConstantWalk(0.3), excursions=n, seed=3, cap_steps=100, cap_height=16)
    base = run(SimConfig(**cfg))
    assert seen == []
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
    wide = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    narrow = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    single = run(SimConfig(**cfg, workers=10_000))
    assert seen == [3, 2]
    for r in (wide, narrow, single):
        assert np.array_equal(r.counts, base.counts)
        assert (r.censored_height, r.censored_steps) == (base.censored_height, base.censored_steps)


def test_rerun_is_identical():
    cfg = SimConfig(PerturbedWalk(1, 1.0, "minus"), 20_000, seed=99, cap_steps=5000, cap_height=50)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.counts, b.counts)


def test_seed_changes_tallies():
    a = run(SimConfig(ConstantWalk(0.5), 20_000, seed=1, cap_steps=500, cap_height=32))
    b = run(SimConfig(ConstantWalk(0.5), 20_000, seed=2, cap_steps=500, cap_height=32))
    assert not np.array_equal(a.counts, b.counts)


# Exact tallies of the Python kernel, both censoring kinds included; any
# other kernel must reproduce them from the same Philox stream.
PINNED_TALLIES = [
    (
        SimConfig(ConstantWalk(0.55), 4000, seed=11, cap_steps=300, cap_height=24),
        695,
        43,
        [0, 1825, 591, 270, 173, 92, 79, 49, 45, 32, 31, 21, 13, 10, 6, 4, 3, 4, 3, 3, 4, 2, 1, 1],
    ),
    (
        SimConfig(PerturbedWalk(1, 2.0, "plus"), 4000, seed=12, cap_steps=300, cap_height=24),
        2072,
        345,
        [0, 995, 251, 109, 51, 45, 25, 20, 14, 7, 8, 7, 10, 6, 7, 8, 7, 2, 4, 2, 1, 1, 1, 2],
    ),
]


@pytest.mark.parametrize("cfg,height,steps,counts", PINNED_TALLIES)
def test_run_tallies_pinned(cfg, height, steps, counts):
    r = run(cfg)
    assert (r.censored_height, r.censored_steps) == (height, steps)
    assert r.counts.tolist() == counts


def test_cap_height_over_budget_is_resource_error(monkeypatch):
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    with pytest.raises(ResourceError):
        run(SimConfig(ConstantWalk(0.5), 10, seed=1, cap_height=102))
    run(SimConfig(ConstantWalk(0.5), 10, seed=1, cap_height=101))


@pytest.mark.parametrize("dof", [1, 2, 3, 7, 40, 500])
def test_chdtrc_is_chi2_sf(dof):
    from scipy import stats

    chi = np.concatenate([[0.0], np.geomspace(1e-3, 5 * dof + 100, 200)])
    got = np.array([chdtrc(dof, c) for c in chi])
    assert np.array_equal(got, stats.chi2.sf(chi, dof))


def test_height_censoring_dominates_for_strong_updrift():
    r = run(SimConfig(ConstantWalk(0.99), 2000, seed=3, cap_height=50))
    assert r.censored_height / r.total > 0.95


def test_step_censoring():
    r = run(SimConfig(ConstantWalk(0.5), 2000, seed=5, cap_steps=10, cap_height=1000))
    assert r.censored_steps > 0
    # Reaching m and returning takes 2m - 1 steps, so tallied maxima stop at 5.
    assert r.counts[6:].sum() == 0


@given(
    p=st.floats(0.2, 0.8),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=25, deadline=None)
def test_conservation_property(p, n, seed):
    r = run(SimConfig(ConstantWalk(p), n, seed=seed, cap_steps=300, cap_height=20))
    assert int(r.counts.sum()) + r.censored_height + r.censored_steps == n


def test_frequencies_property():
    r = run(SimConfig(ConstantWalk(0.5), 1000, seed=8, cap_steps=100, cap_height=16))
    assert np.array_equal(r.frequencies, r.counts / 1000)
    assert r.cap_height == 16


def test_compare_consistent_run_has_no_flags():
    spec = ConstantWalk(0.5)
    cfg = SimConfig(spec, 50_000, seed=123, cap_steps=100_000, cap_height=64)
    table = max_pmf_table(build(spec, 63), 63)
    rep = compare(run(cfg), table)
    assert rep.n_flagged == 0
    assert rep.chi_square_dof > 10
    assert rep.chi_square_pvalue > 1e-4
    assert rep.total == 50_000
    assert rep.n[0] == 1 and rep.n[-1] == 63


def test_compare_detects_wrong_law():
    # Simulate p = 0.55 but score against the p = 0.45 table.
    cfg = SimConfig(ConstantWalk(0.55), 50_000, seed=123, cap_steps=100_000, cap_height=64)
    table = max_pmf_table(build(ConstantWalk(0.45), 63), 63)
    rep = compare(run(cfg), table)
    assert rep.n_flagged > 0
    assert rep.chi_square_pvalue < 1e-6


def test_compare_eligibility_threshold():
    spec = ConstantWalk(0.5)
    cfg = SimConfig(spec, 2000, seed=17, cap_steps=50_000, cap_height=64)
    table = max_pmf_table(build(spec, 63), 63)
    rep = compare(run(cfg), table, min_expected=50.0)
    # pmf(n) = 1/(n(n+1)): expected counts fall below 50 past n = 5.
    assert rep.eligible[:5].all()
    assert not rep.eligible[5:].any()
    assert rep.chi_square_dof == 5


def test_compare_allowance_reflects_step_censoring():
    spec = ConstantWalk(0.5)
    cfg = SimConfig(spec, 5000, seed=21, cap_steps=20, cap_height=64)
    table = max_pmf_table(build(spec, 63), 63)
    rep = compare(run(cfg), table)
    assert rep.censor_allowance > 0


def test_compare_rejects_short_table():
    spec = ConstantWalk(0.5)
    r = run(SimConfig(spec, 100, seed=1, cap_steps=100, cap_height=64))
    with pytest.raises(RangeError):
        compare(r, max_pmf_table(build(spec, 62), 62))

import functools
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    montecarlo,
    run,
)
from lmax import _native
from lmax.montecarlo import KernelInfo, kernel_info


def _loaded_libs():
    """Name -> library (None for Python); fails unless C loads, so parity is checked."""
    try:
        lib = _native._load_c()
    except (_native._BuildError, OSError) as exc:
        pytest.fail(f"the C kernel did not load, so fewer than two kernels would be compared: {exc}")
    return {"python": None, "c": lib}


def _use(monkeypatch, name, lib):
    monkeypatch.setattr(_native, "_kernel", lambda: (lib, KernelInfo(name, None)))


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


@pytest.mark.parametrize("field", ["excursions", "seed", "workers", "cap_steps", "cap_height"])
@pytest.mark.parametrize("value", [1e6, float("inf"), 100.0])
def test_config_rejects_non_integers(field, value):
    # Floats would run on the Python kernel but fail ctypes on the C one.
    with pytest.raises(ConfigError, match=field):
        SimConfig(**{"spec": ConstantWalk(0.5), "excursions": 10, "seed": 1, field: value})


def test_config_accepts_numpy_integers():
    cfg = SimConfig(ConstantWalk(0.5), np.int64(10), seed=np.uint64(1), cap_steps=np.int32(50))
    assert run(cfg).total == 10


def test_conservation():
    r = run(SimConfig(ConstantWalk(0.5), 5000, seed=42, cap_steps=200))
    assert r.counts[0] == 0
    assert int(r.counts.sum()) + r.censored_height + r.censored_steps == r.total == 5000


def test_workers_do_not_change_tallies(monkeypatch):
    # 3 full blocks plus a remainder, on one worker and on several, on every kernel.
    n = 3 * BLOCK + 1234
    base = SimConfig(ConstantWalk(0.5), n, seed=7, cap_steps=2000, cap_height=64)
    tallies = []
    for name, lib in _loaded_libs().items():
        _use(monkeypatch, name, lib)
        a = run(base)
        b = run(SimConfig(ConstantWalk(0.5), n, seed=7, workers=5, cap_steps=2000, cap_height=64))
        assert np.array_equal(a.counts, b.counts), name
        assert (a.censored_height, a.censored_steps) == (b.censored_height, b.censored_steps), name
        tallies.append((a.counts.tolist(), a.censored_height, a.censored_steps))
    assert tallies[0] == tallies[1]


def test_worker_threads_are_clamped(monkeypatch):
    # Each run records the threads it starts and the tallies it adds up,
    # one per thread that took blocks, the caller's own included.
    started, tallies = [], []
    start, on_threads = threading.Thread.start, montecarlo._on_threads

    def counted_start(thread):
        started[-1] += 1
        start(thread)

    def counted(*args):
        started.append(0)
        states = on_threads(*args)
        tallies.append(len(states))
        return states

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(montecarlo, "_on_threads", counted)
    n = 2 * BLOCK + 5  # three blocks
    cfg = dict(spec=ConstantWalk(0.3), excursions=n, seed=3, cap_steps=100, cap_height=16)
    base = run(SimConfig(**cfg))
    assert (started, tallies) == ([0], [1])  # one worker starts no thread at all
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    wide = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    narrow = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    single = run(SimConfig(**cfg, workers=10_000))
    # min(workers, blocks, cores) workers: the caller's thread and the rest new.
    assert tallies == [1, 3, 2, 1]
    assert started == [0, 2, 1, 0]
    # One task per worker, not one per block: each takes blocks until none is left.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    many = run(SimConfig(**{**cfg, "excursions": 40 * BLOCK}, workers=10_000))
    assert (started[-1], tallies[-1]) == (1, 2)
    assert many.counts.sum() + many.censored_height + many.censored_steps == 40 * BLOCK
    for r in (wide, narrow, single):
        assert np.array_equal(r.counts, base.counts)
        assert (r.censored_height, r.censored_steps) == (base.censored_height, base.censored_steps)


def _one_step_simulate(blocks):
    """A ``simulate`` call of ``blocks`` blocks whose excursions each take one step."""
    return [sys.executable, "-m", "lmax", "simulate", "--p", "0.5", "--cap-steps", "1",
            "--cap-height", "2", "--excursions", str(blocks * BLOCK)]


# Runs argv and prints its exit code and peak RSS.  A child's peak counts its
# parent's RSS at the fork, and pytest's exceeds lmax's, so a small
# interpreter starts the call.
_PEAK_RSS = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_peak_rss_does_not_grow_with_blocks():
    def peak_mb(blocks):
        argv = [sys.executable, "-c", _PEAK_RSS, *_one_step_simulate(blocks)]
        code, peak_kb = subprocess.run(argv, capture_output=True, check=True).stdout.split()
        assert int(code) == 0
        return int(peak_kb) / 1024  # ru_maxrss is in kilobytes on Linux

    peak_mb(10)  # builds the kernel into the cache, if no test has yet, so gcc is not counted
    assert peak_mb(5000) <= peak_mb(10) + 4


def test_interrupt_ends_a_long_run_promptly():
    # About 6 s on one 2-core x86_64 worker, so the run is still going at 1.5 s.
    proc = subprocess.Popen(_one_step_simulate(20_000), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        time.sleep(1.5)
        assert proc.poll() is None, "the run ended before the interrupt"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=2)  # each task stops after the block it is running
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130
    assert err == "error: interrupted\n"


def test_rerun_is_identical():
    cfg = SimConfig(PerturbedWalk(1, 1.0, "minus"), 20_000, seed=99, cap_steps=5000, cap_height=50)
    a, b = run(cfg), run(cfg)
    assert np.array_equal(a.counts, b.counts)


def test_seed_changes_tallies():
    a = run(SimConfig(ConstantWalk(0.5), 20_000, seed=1, cap_steps=500, cap_height=32))
    b = run(SimConfig(ConstantWalk(0.5), 20_000, seed=2, cap_steps=500, cap_height=32))
    assert not np.array_equal(a.counts, b.counts)


# Exact tallies of the Python kernel, both censoring kinds included; the C
# kernel must reproduce them from the same Philox stream.
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
def test_run_tallies_pinned(monkeypatch, cfg, height, steps, counts):
    for name, lib in _loaded_libs().items():
        _use(monkeypatch, name, lib)
        r = run(cfg)
        assert (r.censored_height, r.censored_steps) == (height, steps), name
        assert r.counts.tolist() == counts, name


@pytest.fixture(scope="module")
def lib():
    return _loaded_libs()["c"]


def _numpy_uniforms(seed, j, n, counter=(0, 0, 0, 0)):
    from numpy.random import Generator, Philox

    key = np.array([seed, j], dtype=np.uint64)
    return Generator(Philox(key=key, counter=np.array(counter, np.uint64))).random(n)


def _c_uniforms(lib, seed, j, sizes, counter=(0, 0, 0, 0)):
    """Successive lmax_uniforms calls of the given sizes, joined, and the counter after them."""
    key, ctr = np.array([seed, j], np.uint64), np.array(counter, np.uint64)
    parts = []
    for n in sizes:
        parts.append(np.full(n, np.nan))
        lib.lmax_uniforms(parts[-1], n, key, ctr)
    return np.concatenate(parts), ctr


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("j", [0, 1, 2**40])
def test_c_uniforms_match_numpy_philox(lib, seed, j):
    # One call of a length that is no multiple of four, and the block
    # kernel's 256-value refills run on past several buffer boundaries.
    for sizes in ([1], [3], [1001], [256] * 5):
        got, ctr = _c_uniforms(lib, seed, j, sizes)
        want = _numpy_uniforms(seed, j, sum(sizes))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), sizes
        assert ctr.tolist() == [-(-sum(sizes) // 4), 0, 0, 0]


@pytest.mark.parametrize("counter", [
    (2**64 - 3, 0, 0, 0),
    (2**64 - 1, 2**64 - 1, 0, 0),
    (2**64 - 2, 2**64 - 1, 2**64 - 1, 9),
    (2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1),  # wraps to zero
])
def test_c_uniforms_carry_across_counter_words(lib, counter):
    got, ctr = _c_uniforms(lib, 2**64 - 1, 2**40, [256, 256], counter)
    want = _numpy_uniforms(2**64 - 1, 2**40, 512, counter)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    value = sum(c << (64 * w) for w, c in enumerate(counter)) + 128
    assert ctr.tolist() == [(value >> (64 * w)) % 2**64 for w in range(4)]


def _tally(lib, case, blocks):
    """Blocks ``j + i`` for i in ``blocks`` added into one tally on ``lib`` (None: ``_block_py``)."""
    p, seed, j, n_exc, cap_steps, cap_height = case
    block = montecarlo._block_py if lib is None else functools.partial(montecarlo._block_c, lib)
    counts, censored = np.zeros(cap_height, np.int64), np.zeros(2, np.int64)
    for i in blocks:
        block(seed, j + i, n_exc, counts, censored, p, cap_steps, cap_height)
    return counts.tolist(), censored.tolist()


@st.composite
def _block_case(draw):
    """A p table, a key and small caps, so excursions hit both caps.

    p = 0 and p = 1 sites force a step; a run of 300 excursions draws
    past several of the C kernel's 256-value refills.
    """
    cap_height = draw(st.integers(2, 8))
    cap_steps = draw(st.integers(1, 40))
    probs = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0, 1)
    p = np.array(draw(st.lists(probs, min_size=cap_height, max_size=cap_height)))
    seed = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1))
    j = draw(st.sampled_from([0, 2**40]) | st.integers(0, 2**63 - 1))
    return p, seed, j, draw(st.integers(1, 300)), cap_steps, cap_height


@given(case=_block_case())
@example(case=(np.array([1.0, 0.5]), 0, 0, 3, 5, 2))
@example(case=(np.array([1.0, 0.5, 0.5]), 2**64 - 1, 2**40, 300, 40, 3))
# Every excursion draws at least one value, so this block runs the Python
# path past its first refill of _CHUNK values.
@example(case=(np.array([1.0, 0.5, 0.5, 0.5]), 7, 3, montecarlo._CHUNK + 1, 40, 4))
@settings(max_examples=300, deadline=None)
def test_c_kernel_matches_python_block_by_block(lib, case):
    got = _tally(lib, case, [0])
    assert got == _tally(None, case, [0])
    assert sum(got[0]) + sum(got[1]) == case[3]


@given(case=_block_case())
@settings(max_examples=50, deadline=None)  # each example runs eight blocks on Python
def test_blocks_add_into_one_tally(lib, case):
    # Four blocks added into one tally, as a worker adds them, equal their four tallies summed.
    for kernel in (lib, None):
        alone = [_tally(kernel, case, [i]) for i in range(4)]
        summed = tuple(np.sum(arrays, axis=0).tolist() for arrays in zip(*alone))
        assert _tally(kernel, case, range(4)) == summed, kernel


def test_c_kernel_rejects_arrays_it_would_overrun(lib):
    import ctypes

    block = functools.partial(montecarlo._block_c, lib, 1, 0, 5)
    p, censored = np.full(4, 0.5), np.zeros(2, np.int64)
    with pytest.raises(ValueError):
        block(np.zeros(3, np.int64), censored, p, 100, 4)
    with pytest.raises(ValueError):
        block(np.zeros(4, np.int64), censored, p[:3], 100, 4)
    with pytest.raises(ValueError):
        block(np.zeros(4, np.int64), censored[:1], p, 100, 4)
    with pytest.raises(ctypes.ArgumentError):
        block(np.zeros(4, np.int32), censored, p, 100, 4)
    with pytest.raises(ctypes.ArgumentError):
        block(np.zeros(4, np.int64), censored, np.full(8, 0.5)[::2], 100, 4)
    assert censored.tolist() == [0, 0]


# 2**63 wraps to a negative int64 and 2**64 to 0, so unclamped every excursion
# would be step-censored at once; 10**30 happens to wrap to a positive value.
@pytest.mark.parametrize("cap_steps", [2**63, 2**64, 10**30])
def test_oversized_cap_steps_is_clamped(monkeypatch, cap_steps):
    cfg = dict(spec=ConstantWalk(0.45), excursions=3000, seed=4, cap_height=40)
    ref = run(SimConfig(**cfg, cap_steps=10**9))
    assert ref.censored_steps == 0
    for name, lib in _loaded_libs().items():
        _use(monkeypatch, name, lib)
        r = run(SimConfig(**cfg, cap_steps=cap_steps))
        assert r.counts.tolist() == ref.counts.tolist(), name
        assert (r.censored_height, r.censored_steps) == (ref.censored_height, 0), name


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An empty cache under tmp_path and no kernel loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "_kernel", functools.cache(_native._kernel.__wrapped__))
    return tmp_path / "cache" / "lmax"


def _pinned_run_matches():
    cfg, height, steps, counts = PINNED_TALLIES[0]
    r = run(cfg)
    return (r.censored_height, r.censored_steps, r.counts.tolist()) == (height, steps, counts)


def test_kernel_builds_into_cache_and_reports_c(fresh_kernel, capsys):
    assert kernel_info() == KernelInfo("c", None)
    assert [f.suffix for f in fresh_kernel.iterdir()] == [".so"]
    assert _pinned_run_matches()
    assert capsys.readouterr().out == ""


def test_missing_gcc_falls_back_to_python(fresh_kernel, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PATH", str(tmp_path))
    info = kernel_info()
    assert info.name == "python"
    assert "gcc not found" in info.reason
    assert _native._kernel()[0] is None
    assert _pinned_run_matches()
    assert capsys.readouterr().out == ""


def test_gcc_failure_falls_back_to_python(fresh_kernel, monkeypatch):
    monkeypatch.setattr(_native, "_C_SOURCE", "this is not C\n")
    info = kernel_info()
    assert info.name == "python"
    assert "gcc exited" in info.reason


def test_unloadable_library_falls_back_to_python(fresh_kernel, monkeypatch, tmp_path):
    _native._load_c()
    (so,) = fresh_kernel.iterdir()
    # A path this process never opened, so dlopen cannot reuse a loaded handle.
    other = tmp_path / "other"
    (other / "lmax").mkdir(parents=True)
    (other / "lmax" / so.name).write_bytes(b"not an ELF file")
    monkeypatch.setenv("XDG_CACHE_HOME", str(other))
    info = kernel_info()
    assert info.name == "python"
    assert info.reason.startswith("OSError")


def test_unwritable_cache_builds_in_temp_dir(fresh_kernel, monkeypatch, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the cache directory would go
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(_native.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    assert kernel_info() == KernelInfo("c", None)
    assert _pinned_run_matches()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_second_load_reuses_cached_file(fresh_kernel, monkeypatch):
    _native._load_c()
    (so,) = fresh_kernel.iterdir()
    stamp = so.stat().st_mtime_ns

    def no_gcc(*args, **kwargs):
        raise AssertionError("gcc ran on a cache hit")

    monkeypatch.setattr(subprocess, "run", no_gcc)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    assert kernel_info() == KernelInfo("c", None)
    assert [f.name for f in fresh_kernel.iterdir()] == [so.name]
    assert so.stat().st_mtime_ns == stamp


def test_changed_source_gets_new_file_name(fresh_kernel, monkeypatch):
    _native._load_c()
    (first,) = fresh_kernel.iterdir()
    monkeypatch.setattr(_native, "_C_SOURCE", _native._C_SOURCE + "/* changed */\n")
    _native._load_c()
    # The first build stays: another checkout of the older source may load it.
    names = {f.name for f in fresh_kernel.iterdir()}
    assert len(names) == 2 and first.name in names
    assert all(name.endswith(".so") for name in names)


def test_build_leaves_other_cache_entries_in_place(fresh_kernel):
    busy = fresh_kernel / "tmp-concurrent-build"
    busy.mkdir(parents=True)
    (busy / "native-0123456789abcdef.so").write_bytes(b"half written")
    (fresh_kernel / "notes.txt").write_text("kept")
    others = ["native-0000000000000001.so", "native-0000000000000002.so",
              "native-0000000000000003.so", "native-0000000000000004.so",
              "drive-0123456789abcdef.so", "_drive-3bed7af3b9170495.so"]  # and older names
    for name in others:
        (fresh_kernel / name).write_bytes(b"other")
    _native._load_c()
    left = {f.name for f in fresh_kernel.iterdir()}
    (new,) = left - set(others) - {"notes.txt", busy.name}
    assert new.startswith("native-") and new.endswith(".so")
    assert set(others) | {"notes.txt", busy.name} <= left
    assert all((fresh_kernel / name).read_bytes() == b"other" for name in others)
    assert [f.name for f in busy.iterdir()] == ["native-0123456789abcdef.so"]


def test_concurrent_first_builds_both_load_c(tmp_path):
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
    argv = [sys.executable, "-m", "lmax", "info", "--format", "json"]
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        doc = json.loads(out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert (row["kernel"], row["kernel_reason"]) == ("c", "")
    # One library, and no temporary directory of either build left behind.
    (name,) = [f.name for f in (tmp_path / "lmax").iterdir()]
    assert name.startswith("native-") and name.endswith(".so")


def test_kernel_pruned_before_load_falls_back(fresh_kernel, monkeypatch):
    # The file goes (a user clears the cache) between the existence check and CDLL.
    real_exists = os.path.exists
    monkeypatch.setattr(
        _native.os.path, "exists",
        lambda path: path.startswith(str(fresh_kernel)) or real_exists(path),
    )
    info = kernel_info()
    assert info.name == "python"
    assert info.reason.startswith("OSError")
    assert _pinned_run_matches()


def test_cap_height_over_budget_is_resource_error(monkeypatch):
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    with pytest.raises(ResourceError):
        run(SimConfig(ConstantWalk(0.5), 10, seed=1, cap_height=102))
    run(SimConfig(ConstantWalk(0.5), 10, seed=1, cap_height=101))


def _chi2_grid(seed, dofs, per_dof):
    """Seeded (dof, chi) points: the left tail, the bulk around the branch switch, the right tail."""
    rng = random.Random(seed)
    for dof in dofs:
        for _ in range(per_dof):
            u = rng.random()
            if u < 0.2:
                chi = dof * 10 ** rng.uniform(-4, 0)
            elif u < 0.5:
                chi = max(0.0, dof + rng.uniform(-4, 4) * math.sqrt(2 * dof + 4))
            else:  # out to where Q falls below 1e-300
                chi = rng.uniform(0, dof + 40 * math.sqrt(2 * dof) + 1400)
            yield dof, chi


@pytest.mark.parametrize("dofs,per_dof,bound", [
    (range(1, 201), 12, 1e-14),
    (random.Random(5).sample(range(201, 20_001), 12), 20, 1e-12),
], ids=["dof-1-200", "dof-201-20000"])
def test_chi2_sf_against_mpmath(dofs, per_dof, bound):
    worst, checked = 0.0, 0
    with mpmath.workdps(50):
        for dof, chi in _chi2_grid(11, dofs, per_dof):
            exact = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(chi) / 2, mpmath.inf,
                                    regularized=True)
            if exact < mpmath.mpf("1e-300"):
                continue
            err = float(abs(montecarlo._chi2_sf(dof, chi) - exact) / exact)
            worst, checked = max(worst, err), checked + 1
    assert checked >= 0.7 * len(dofs) * per_dof
    assert worst <= bound


@pytest.mark.parametrize("dof", [1, 2, 3, 14, 199, 200, 201, 5000])
def test_chi2_sf_edges(dof):
    sf = montecarlo._chi2_sf
    assert sf(dof, 0.0) == 1.0
    assert sf(dof, math.inf) == 0.0
    assert math.isnan(sf(dof, math.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf(dof, 1e300) == 0.0
        assert sf(dof, 5e-324) == 1.0
        assert sf(dof, 1e-300) == 1.0  # x / a - 1 rounds to -1 above dof = 200
    # Nonincreasing from 1 to 0 across every branch switch (x = a - 1/2, x = 1400).
    chi = np.linspace(0.0, dof + 60 * math.sqrt(2 * dof) + 3000, 20_001)
    q = np.array([sf(dof, c) for c in chi])
    assert q[0] == 1.0 and q[-1] == 0.0
    assert np.all(np.diff(q) <= 0)


def test_chi2_sf_one_dof_is_erfc():
    # chi = 2 r**2 makes sqrt(chi / 2) exact; elsewhere the package also
    # corrects the rounding of that square root, which plain erfc does not.
    for r in np.arange(1, 240) / 8:
        want = math.erfc(r)
        assert abs(montecarlo._chi2_sf(1, 2 * r * r) - want) <= math.ulp(want)


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
    rep = compare(run(cfg), table)
    # pmf(n) = 1/(n(n+1)): expected counts fall below 50 past n = 5.
    assert rep.eligible[:5].all()
    assert not rep.eligible[5:].any()
    assert rep.chi_square_dof == 5


def test_compare_without_an_eligible_bin():
    # 50 excursions expect 25 in the likeliest bin, below MIN_EXPECTED: no chi-square.
    spec = ConstantWalk(0.5)
    rep = compare(run(SimConfig(spec, 50, seed=3, cap_height=8)), max_pmf_table(build(spec, 7), 7))
    assert not rep.eligible.any() and rep.n_flagged == 0
    assert (rep.chi_square, rep.chi_square_dof) == (0.0, 0)
    assert math.isnan(rep.chi_square_pvalue)


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

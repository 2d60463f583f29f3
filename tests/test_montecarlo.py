import functools
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

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
from lmax import _threads as threads_module
from lmax.montecarlo import KernelInfo, kernel_info
from lmax.walk import step_up_prob_array

from test_series import DEPTH_SPECS


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
    # The counts get budget.check_count's RangeError; the seed's range is a ConfigError.
    for field, value in [("excursions", 0), ("workers", 0), ("cap_steps", 0), ("cap_height", 1)]:
        least = 2 if field == "cap_height" else 1
        with pytest.raises(RangeError, match=f"^{field} must be >= {least}, got {value}$"):
            SimConfig(**{**good, field: value})
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="^seed must fit in 64 unsigned bits$"):
            SimConfig(**{**good, "seed": seed})


@pytest.mark.parametrize("field", ["excursions", "seed", "workers", "cap_steps", "cap_height"])
@pytest.mark.parametrize("value", [1e6, float("inf"), 100.0])
def test_config_rejects_non_integers(field, value):
    # Floats would run on the Python kernel but fail ctypes on the C one.
    with pytest.raises(RangeError, match=field):
        SimConfig(**{"spec": ConstantWalk(0.5), "excursions": 10, "seed": 1, field: value})


@pytest.mark.parametrize("spec", [None, 0.5, {"family": "constant", "p": 0.9}])
def test_config_rejects_what_is_not_a_walk(spec):
    # Anything else once ran as the p = 1/2 walk.
    with pytest.raises(ConfigError, match="spec must be a ConstantWalk or a PerturbedWalk"):
        SimConfig(spec, 1000, seed=1, cap_steps=100, cap_height=10)


def test_config_is_one_read_only_record():
    import lmax

    assert lmax.SimConfig is lmax.montecarlo.SimConfig is lmax.spec.SimConfig
    cfg = SimConfig(ConstantWalk(0.5), 10, seed=1)
    assert cfg == SimConfig(spec=ConstantWalk(0.5), excursions=10, seed=1, workers=1,
                            cap_steps=1_000_000, cap_height=1_000)
    assert hash(cfg) == hash(SimConfig(ConstantWalk(0.5), 10, 1))
    assert cfg != SimConfig(ConstantWalk(0.5), 10, seed=2)
    assert repr(cfg) == ("SimConfig(spec=ConstantWalk(p=0.5), excursions=10, seed=1, "
                         "workers=1, cap_steps=1000000, cap_height=1000)")
    for field in ("spec", "excursions", "seed", "workers", "cap_steps", "cap_height"):
        with pytest.raises(AttributeError):
            setattr(cfg, field, 2)


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
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 64)
    wide = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    narrow = run(SimConfig(**cfg, workers=10_000))
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 1)
    single = run(SimConfig(**cfg, workers=10_000))
    # min(workers, blocks, cores) workers: the caller's thread and the rest new.
    assert tallies == [1, 3, 2, 1]
    assert started == [0, 2, 1, 0]
    # One task per worker, not one per block: each takes blocks until none is left.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    many = run(SimConfig(**{**cfg, "excursions": 40 * BLOCK}, workers=10_000))
    assert (started[-1], tallies[-1]) == (1, 2)
    assert many.counts.sum() + many.censored_height + many.censored_steps == 40 * BLOCK
    for r in (wide, narrow, single):
        assert np.array_equal(r.counts, base.counts)
        assert (r.censored_height, r.censored_steps) == (base.censored_height, base.censored_steps)


def _one_step_args(blocks):
    """``simulate`` arguments for ``blocks`` blocks whose excursions each take one step."""
    return ["simulate", "--p", "0.5", "--cap-steps", "1", "--cap-height", "2",
            "--excursions", str(blocks * BLOCK)]


def _one_step_simulate(blocks):
    return [sys.executable, "-m", "lmax", *_one_step_args(blocks)]


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


# Runs ``python -m lmax`` on the arguments past the first, which names a file
# descriptor: one byte is written to it as the simulator starts its first
# block, when the kernel is loaded and the run is inside its blocks.
_MARK_FIRST_BLOCK = """import os, runpy, sys
from lmax import montecarlo
fd, on_threads = int(sys.argv.pop(1)), montecarlo._on_threads
def marked(work, items, *rest):
    def first_marked(item, *state):
        if item == items[0]:
            os.write(fd, b"1")
        work(item, *state)
    return on_threads(first_marked, items, *rest)
montecarlo._on_threads = marked
runpy.run_module("lmax", run_name="__main__")
"""


def test_interrupt_ends_a_long_run_promptly():
    # The interrupt comes once the run is inside its blocks (about 6 s of
    # them on one 2-core x86_64 worker), not at a fixed time: on a loaded
    # machine the kernel may still be building then, and an interrupted
    # gcc left a second stderr line ("warning: subprocess ... is still running").
    read_fd, write_fd = os.pipe()
    argv = [sys.executable, "-c", _MARK_FIRST_BLOCK, str(write_fd), *_one_step_args(20_000)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            pass_fds=(write_fd,))
    os.close(write_fd)
    try:
        ready = select.select([read_fd], [], [], 120)[0]
        assert ready and os.read(read_fd, 1) == b"1", "the run never reached its blocks"
        assert proc.poll() is None, "the run ended before the interrupt"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=2)  # each task stops after the block it is running
    finally:
        os.close(read_fd)
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130
    assert err == "error: interrupted\n"


def test_simulate_loads_no_table_module():
    # The simulator takes its threads from _threads, not from series.
    code = (
        "import contextlib, io, json, sys, lmax.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert lmax.cli.main(['simulate', '--p', '0.5', '--excursions', '100', '--seed', '1',\n"
        "                          '--workers', '2']) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lmax.'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert "lmax.montecarlo" in loaded and "lmax._threads" in loaded
    assert "lmax.series" not in loaded, loaded


@pytest.mark.parametrize("argv,err", [
    ("simulate --p 0.5 --excursions 0", "error: excursions must be >= 1, got 0\n"),
    ("compare --p 0.5 --excursions 3 --seed -1", "error: seed must fit in 64 unsigned bits\n"),
], ids=["simulate", "compare"])
def test_argument_errors_load_no_numpy(argv, err):
    # SimConfig is checked in spec, so a bad count or seed exits 2 before the simulator loads.
    code = (
        "import json, sys, lmax.cli\n"
        "code = lmax.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in ('numpy', 'lmax.montecarlo') if m in sys.modules)]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv.split()], capture_output=True, text=True)
    assert json.loads(out.stdout) == [2, []]
    assert out.stderr == err


def test_steps_are_counted_alike_on_both_kernels_and_any_workers(monkeypatch):
    # 2 full blocks and a remainder, on one worker and on two.
    monkeypatch.setattr(threads_module, "_usable_cpus", lambda: 2)
    cfg = dict(spec=PerturbedWalk(1, 0.5, "plus"), excursions=2 * BLOCK + 321, seed=5,
               cap_steps=3000, cap_height=40)
    steps = set()
    for name, lib in _loaded_libs().items():
        _use(monkeypatch, name, lib)
        for workers in (1, 2):
            r = run(SimConfig(**cfg, workers=workers))
            steps.add(r.steps)
            # An excursion ending at 0 with maximum m took 2m - 1 steps or more,
            # one censored at the height 39 or more, and one censored at the steps 3000.
            least = (2 * np.arange(40) - 1) @ r.counts + 39 * r.censored_height
            assert least + 3000 * r.censored_steps <= r.steps, (name, workers)
    assert len(steps) == 1
    # One step each, when a step ends every excursion.
    one = run(SimConfig(ConstantWalk(0.5), 3 * BLOCK, seed=1, cap_steps=1, cap_height=2))
    assert one.steps == 3 * BLOCK


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


def _tally(lib, case, blocks):
    """Blocks ``j + i`` for i in ``blocks`` added into one tally on ``lib`` (None: ``_block_py``).

    The C kernel takes ``p`` as ``run`` gives it, turned into thresholds.
    """
    p, seed, j, n_exc, cap_steps, cap_height = case
    if lib is None:
        block = montecarlo._block_py
    else:
        block, p = functools.partial(montecarlo._block_c, lib), montecarlo._thresholds(p.copy())
    counts, totals = np.zeros(cap_height, np.int64), np.zeros(3, np.int64)
    for i in blocks:
        block(seed, j + i, n_exc, counts, totals, p, cap_steps, cap_height)
    return counts.tolist(), totals.tolist()


def _c_draws_below(lib, seed, j, n, t):
    """How many of the first ``n`` draws X = x >> 11 of block ``j``'s stream ``lib`` finds below ``t``.

    With cap_height 2 each excursion takes one step from 1, up to the cap
    iff its draw is below ``t[1]``, so the height-censored count is the answer.
    """
    counts, totals = np.zeros(2, np.int64), np.zeros(3, np.int64)
    montecarlo._block_c(lib, seed, j, n, counts, totals, np.array([0, t], np.int64), 1, 2)
    return totals[0]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("j", [0, 1, 2**40])
def test_c_uniforms_match_numpy_philox(lib, seed, j):
    # Draw i of lmax_block is X when the first i + 1 draws hold one more
    # below X + 1, and none more below X, than the first i.  1280 draws run
    # past several of the kernel's 256-value refills.
    from numpy.random import Generator, Philox

    u = Generator(Philox(key=np.array([seed, j], dtype=np.uint64))).random(1280)
    for i, x in enumerate((u * 2.0**53).astype(np.int64).tolist()):  # exact: u = X 2^-53
        got = [_c_draws_below(lib, seed, j, i + 1, t) - _c_draws_below(lib, seed, j, i, t)
               for t in (x, x + 1)]
        assert got == [0, 1], i


def _assert_thresholds_decide_as_uniforms(p, draws):
    """At each p and each draw X < 2^53: X < t exactly when X 2^-53 < p, for t = ``_thresholds(p)``.

    t is also checked against ceil(p 2^53) in rational arithmetic.
    """
    p = np.asarray(p, dtype=np.float64)
    t = montecarlo._thresholds(p.copy())
    assert t.tolist() == [math.ceil(Fraction(x) * 2**53) for x in p.tolist()]
    for x in draws(t):
        x = np.broadcast_to(x, p.shape)
        ok = (x >= 0) & (x < 2**53)
        by_threshold = x < t
        by_uniform = x.astype(np.float64) * 2.0**-53 < p  # exact: x < 2^53
        assert np.array_equal(by_threshold[ok], by_uniform[ok]), p[ok][by_threshold[ok] != by_uniform[ok]]


@pytest.mark.parametrize("spec", DEPTH_SPECS, ids=str)
def test_thresholds_decide_as_uniforms_on_the_depth_walks(spec):
    # Every step-up probability of the first 1000 sites, at the draws either side of its threshold.
    _assert_thresholds_decide_as_uniforms(step_up_prob_array(spec, range(1000)),
                                          lambda t: (t - 1, t))


def test_thresholds_decide_as_uniforms_at_multiples_of_two_to_minus_53():
    ks = [0, 1, 2, 3, *range(2**52 - 3, 2**52 + 4), *range(2**53 - 3, 2**53 + 1)]
    exact = np.array(ks, dtype=np.float64) * 2.0**-53
    above, below = np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)
    p = np.concatenate([exact, above, below, [0.0, 1.0, 5e-324]])
    t = montecarlo._thresholds(p.copy())
    # k 2^-53 has threshold k, and anything just above it k + 1 (k + 2 past 1.0,
    # where the doubles are 2^-52 apart).
    assert t[: len(ks)].tolist() == ks
    assert t[len(ks) : 2 * len(ks)].tolist() == [k + 1 + (k == 2**53) for k in ks]
    assert t[-3:].tolist() == [0, 2**53, 1]
    ks = np.array(ks, dtype=np.int64)
    k_all = np.concatenate([ks, ks, ks, [0, 2**53, 0]])
    _assert_thresholds_decide_as_uniforms(
        p, lambda t: (t - 1, t, t + 1, k_all - 1, k_all, k_all + 1, 0, 2**53 - 1))


def test_thresholds_reuse_the_buffer_past_one_chunk():
    p = np.random.default_rng(3).random(2 * montecarlo._CHUNK + 5)
    want = np.ceil(p * 2.0**53).astype(np.int64)
    t = montecarlo._thresholds(p)
    assert np.shares_memory(t, p) and t.dtype == np.int64
    assert np.array_equal(t, want)


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
    # The tallies, the two censored counts and the steps taken.
    got = _tally(lib, case, [0])
    assert got == _tally(None, case, [0])
    assert sum(got[0]) + sum(got[1][:2]) == case[3]


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
    t, totals = montecarlo._thresholds(np.full(4, 0.5)), np.zeros(3, np.int64)
    with pytest.raises(ValueError):
        block(np.zeros(3, np.int64), totals, t, 100, 4)
    with pytest.raises(ValueError):
        block(np.zeros(4, np.int64), totals, t[:3], 100, 4)
    with pytest.raises(ValueError):
        block(np.zeros(4, np.int64), totals[:2], t, 100, 4)
    with pytest.raises(ctypes.ArgumentError):
        block(np.zeros(4, np.int32), totals, t, 100, 4)
    with pytest.raises(ctypes.ArgumentError):  # probabilities, not their thresholds
        block(np.zeros(4, np.int64), totals, np.full(4, 0.5), 100, 4)
    with pytest.raises(ctypes.ArgumentError):
        block(np.zeros(4, np.int64), totals, montecarlo._thresholds(np.full(8, 0.5))[::2], 100, 4)
    assert totals.tolist() == [0, 0, 0]


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

    monkeypatch.setattr(subprocess, "Popen", no_gcc)
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


# A gcc that records its pid, then sleeps until it is killed.
_SLOW_GCC = """#!/bin/sh
echo $$ > "$0.pid.tmp" && mv "$0.pid.tmp" "$0.pid"
exec sleep 60
"""


def test_interrupt_during_first_build_reaps_gcc(tmp_path):
    # Ctrl-C while the kernel builds: exit 130, one stderr line, and gcc
    # killed and waited for, so no "subprocess ... is still running" warning.
    gcc = tmp_path / "bin" / "gcc"
    gcc.parent.mkdir()
    gcc.write_text(_SLOW_GCC)
    gcc.chmod(0o755)
    pid_file = tmp_path / "bin" / "gcc.pid"
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PATH": f"{gcc.parent}{os.pathsep}{os.environ.get('PATH', '')}"}
    proc = subprocess.Popen([sys.executable, "-m", "lmax", *_one_step_args(1)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 120
        while not pid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "gcc never started"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 130
    assert err == "error: interrupted\n"
    with pytest.raises(ProcessLookupError):  # killed and reaped before lmax exited
        os.kill(int(pid_file.read_text()), 0)


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

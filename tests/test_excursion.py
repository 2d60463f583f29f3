import dataclasses
import math
import threading

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
    max_pmf_table,
    return_prob,
    step_up_prob,
    tail_mass,
)
from lmax import excursion
from lmax import series as series_module
from lmax.excursion import max_pmf_blocks
from lmax.series import BLOCK, lazy

from _oracles import closed_masses, geometric_pmf, symmetric_pmf, telescoping_pmf


def test_one_step_excursion():
    t = max_pmf_table(build(ConstantWalk(0.5), 5), 5)
    assert t.pmf[1] == 0.5


def test_symmetric_by_hand():
    t = max_pmf_table(build(ConstantWalk(0.5), 10), 10)
    assert t.pmf[3] == pytest.approx(1 / 12, rel=1e-14)


def test_upward_drift_by_hand():
    t = max_pmf_table(build(ConstantWalk(2 / 3), 10), 10)
    assert t.pmf[2] == pytest.approx(2 / 21, rel=1e-14)


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
        assert max_pmf_table(s, 3).pmf[1] == q1


@pytest.mark.parametrize("p", [2 / 3, 1 / 3, 0.55, 0.21])
def test_geometric_closed_form(p):
    pmf = max_pmf_table(build(ConstantWalk(p), 100), 100).pmf
    for n in range(1, 101):
        want = float(geometric_pmf(p, n))
        assert pmf[n] == pytest.approx(want, rel=1e-12)


def test_symmetric_closed_form():
    pmf = max_pmf_table(build(ConstantWalk(0.5), 500), 500).pmf
    for n in (1, 2, 13, 499):
        assert pmf[n] == pytest.approx(symmetric_pmf(n), rel=1e-13)


def test_telescoping_closed_form():
    pmf = max_pmf_table(build(PerturbedWalk(1, 1.0, "minus"), 1000), 1000).pmf
    for n in (1, 2, 10, 999):
        assert pmf[n] == pytest.approx(telescoping_pmf(n), rel=1e-12)


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
    pmf = max_pmf_table(s, 60).pmf
    for n in range(1, 51):
        reach = 1.0 - hit_before(s, HittingQuery(0, 1, n)) if n > 1 else 1.0
        fall = hit_before(s, HittingQuery(0, n, n + 1))
        assert pmf[n] == pytest.approx(reach * fall, rel=1e-12)


def test_log_and_linear_agree():
    t = max_pmf_table(build(PerturbedWalk(2, 1.0, "plus"), 100), 100)
    for n in (2, 17, 100):
        assert t.pmf[n] == pytest.approx(math.exp(t.log_pmf[n]), rel=1e-15)


def test_range_errors():
    # A row past the table, or a non-integer one, which int() would truncate.
    s = build(ConstantWalk(0.5), 10)
    for n_max in (11, 0, 10.5, np.float64(10.0)):
        with pytest.raises(RangeError):
            max_pmf_table(s, n_max)
    t = max_pmf_table(s, 10)
    for n in (11, 0, 7.9, np.float64(7.0)):
        with pytest.raises(RangeError):
            tail_mass(t, n)
    assert tail_mass(t, np.int64(7)) == tail_mass(t, 7)


@pytest.mark.parametrize("spec", [ConstantWalk(0.6), PerturbedWalk(1, 2.0, "plus")], ids=str)
def test_a_lazy_table_holds_no_law(spec):
    # The law needs every entry, and a lazy table holds none: a RangeError
    # that says so, where reading its absent arrays would be a TypeError.
    # tail_mass reads its two entries through the table's series, so a law
    # whose series is lazy gives the held one's bits.
    with pytest.raises(RangeError, match="holds no entries"):
        tail_mass(max_pmf_table(lazy(spec, 50), 50), 7)
    held = max_pmf_table(build(spec, 50), 50)
    for n in (1, 7, 50):
        assert tail_mass(dataclasses.replace(held, series=lazy(spec, 50)), n) == tail_mass(held, n)


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
    assert tm.value == rp.value
    # The geometric remainder is summed in closed form, so the bracket has no width.
    assert tm.exact and tm.lower == tm.value == tm.upper


@pytest.mark.parametrize("p", [0.5000001, 0.51, 0.6, 2 / 3, 0.9, 0.999])
def test_tail_mass_transient_constant_deep_in_the_tail(p):
    # P(M >= n, D < inf) = (1 - r) r^n / (1 - r^n) = P_n / S_(n-1), read off
    # the logs with no subtraction.  Each log is within 2 ulp (2^-51 of its
    # size), and their difference and its exp round once each.  As the
    # difference 1/S_(n-1) - 1/S_inf it was off by 1.8% at p = 0.6, n = 80,
    # and 0.0 at p = 0.51, n = 1000 (truth 1.66e-19).
    series = build(ConstantWalk(p), 20_000)
    t = max_pmf_table(series, 20_000)
    with mp.workdps(50):
        r = (1 - mp.mpf(p)) / mp.mpf(p)
    for n in sorted({*range(2, 100), 300, 1000, 5000, 13054, 20_000}):
        with mp.workdps(50):
            want = (1 - r) * r**n / (1 - r**n)
        if want < 1e-300:
            break
        tm = tail_mass(t, n)
        assert tm.exact and tm.lower == tm.value == tm.upper
        logs = abs(float(series.log_prod[n])) + abs(float(series.log_prefix_sum[n - 1]))
        bound = (2.0**-51 + 2.0**-53) * logs + 2.0**-52
        assert abs(tm.value - want) <= bound * want, (n, tm.value, want)


def test_tail_mass_shape_tail_is_bracketed():
    # Named for the fitted tail it first checked; the bracket is now the integral bound.
    tm = tail_mass(max_pmf_table(build(PerturbedWalk(1, 2.0, "plus"), 100_000), 100), 10)
    assert not tm.exact and tm.lower < tm.value < tm.upper


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


# From two chunks on, two threads take the table's chunks in turn; these
# depths put chunk seams and a short last chunk inside the table.
THREADED_DEPTHS = [2 * excursion._CHUNK, 2 * excursion._CHUNK + 3 * BLOCK + 7,
                   5 * excursion._CHUNK + 1]


@pytest.mark.parametrize("spec", [ConstantWalk(0.43), ConstantWalk(0.5),
                                  PerturbedWalk(2, 1.5, "plus")], ids=str)
@pytest.mark.parametrize("cores", [1, 2])
def test_table_is_the_streamed_law_bit_for_bit(monkeypatch, spec, cores):
    # --p 0.43's pmf underflows past row 2700, so its chunks take the masked
    # exp; on one core the table is one pass, on two it is two threads.
    monkeypatch.setattr(series_module, "_usable_cpus", lambda: cores)
    series = build(spec, THREADED_DEPTHS[-1])
    for n in THREADED_DEPTHS:
        table = max_pmf_table(series, n)
        for rows, log_pmf, pmf, cumulative in max_pmf_blocks(spec, n):
            for got, want in ((table.log_pmf, log_pmf), (table.pmf, pmf),
                              (table.cumulative, cumulative)):
                assert got[rows.start : rows.stop].tobytes() == want.tobytes(), (n, rows)
        assert rows.stop == n + 1


def test_table_thread_error_reaches_the_caller(monkeypatch):
    # An error in a chunk on either thread, the caller's or the one started
    # beside it, is raised by max_pmf_table itself.  The threads take chunks
    # as they ask for them, so the failing chunk is picked by the thread that
    # runs it; the other thread holds its first chunk until the failing
    # thread has taken one, so each thread gets a chunk.
    monkeypatch.setattr(series_module, "_usable_cpus", lambda: 2)
    law = excursion._law
    n = 2 * excursion._CHUNK + 5  # three chunks
    series = build(ConstantWalk(0.5), n)
    caller = threading.current_thread()
    for where in ("caller's", "worker's"):
        taken = threading.Event()

        def failing(spec, rows, *args, where=where, taken=taken):
            if (threading.current_thread() is caller) == (where == "caller's"):
                taken.set()
                raise MemoryError(f"{where} thread")
            taken.wait(10)
            return law(spec, rows, *args)

        monkeypatch.setattr(excursion, "_law", failing)
        with pytest.raises(MemoryError, match=f"{where} thread"):
            max_pmf_table(series, n)


@pytest.mark.parametrize("spec", [ConstantWalk(0.43), PerturbedWalk(2, 1.5, "plus")], ids=str)
def test_the_law_reads_p1_only_where_row_one_is(monkeypatch, spec):
    # Row 1 is pinned to p_1 = step_up_prob(spec, 1): the whole table's
    # chunks and the streamed blocks evaluate it once, for the one chunk or
    # block that holds row 1, and the rows keep their bits.
    n = 2 * excursion._CHUNK + 3 * BLOCK + 7
    series = build(spec, n)
    table = max_pmf_table(series, n)
    streamed = [(rows, *(a.copy() for a in law)) for rows, *law in max_pmf_blocks(spec, n)]
    calls, real = [], excursion.step_up_prob
    monkeypatch.setattr(excursion, "step_up_prob", lambda s, i: calls.append(i) or real(s, i))
    again = max_pmf_table(series, n)
    assert calls == [1]
    for got, want in zip((again.log_pmf, again.pmf, again.cumulative),
                         (table.log_pmf, table.pmf, table.cumulative)):
        assert got.tobytes() == want.tobytes()
    for (rows, *got), (_, *want) in zip(max_pmf_blocks(spec, n), streamed):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], rows
    assert calls == [1, 1]

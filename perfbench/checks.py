"""Output checks and independent oracles for the benchmark.

Nothing here calls the package: closed forms are evaluated in 50-digit
``decimal`` arithmetic or directly in float64, and hitting probabilities
come from a tridiagonal solve of the harmonic equations.  Every check
returns a list of failure causes; an empty list means the output passed.

Tolerances are the ones the package documents:

* C1: the p = 1/2 pmf matches 1/(n(n+1)) to 1e-12 relative for n <= 1e4;
* C2: constant-drift pmfs match the 50-digit closed form to 1e-12
  relative for n <= 100;
* C3: hit_before matches the tridiagonal solve to 1e-10 absolute;
* the cumulative column is normalized to 1e-9 absolute at any depth
  (``lmax.excursion``).

The package documents no accuracy for log-pmf at depth (its known
rounding growth there is an open roadmap item), so deeper rows only get
a gross-error check, at ``GROSS_LOG_RTOL`` relative to |log pmf|, and the
measured worst error against the 50-digit oracle is reported as the
metric ``excursion.max_abs_log_err`` rather than failed.
"""

from __future__ import annotations

import decimal
import functools
import io
import json
import math

import numpy as np

C1_N, C1_RTOL = 10_000, 1e-12
C2_N, C2_RTOL = 100, 1e-12
C3_ATOL = 1e-10
CUMULATIVE_ATOL = 1e-9
GROSS_LOG_RTOL = 1e-6
PMF_EXP_RTOL = 1e-13  # pmf[n] against exp(log_pmf[n])

_CTX = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_TINY = 2.2250738585072014e-308
_CHECK_CHUNK = 1 << 20


def _dec(x: float) -> decimal.Decimal:
    return _CTX.create_decimal(x)


# --- walk law, re-implemented from its definition --------------------------

def _lam(k: int, i: float, b: float) -> float:
    total, chain, level = 0.0, float(i), float(i)
    for _ in range(k - 1):
        total += 1.0 / chain
        level = math.log(level)
        chain *= level
    return total + b / chain


@functools.lru_cache(maxsize=None)
def _i0(k: int, b: float) -> int:
    i = 1
    while True:
        level, ok = float(i), True
        for _ in range(k - 1):
            level = math.log(level)
            if level <= 0.0:
                ok = False
                break
        if ok and abs(_lam(k, i, b)) / 4.0 < 0.5:
            return i
        i += 1


def drift(walk: dict, i: int) -> float:
    """Signed drift p_i - 1/2 at site i >= 1."""
    if walk["family"] == "constant":
        return walk["p"] - 0.5
    r = _lam(walk["k"], max(i, _i0(walk["k"], walk["b"])), walk["b"]) / 4.0
    return r if walk["sign"] == "plus" else -r


def is_telescoping(walk: dict) -> bool:
    return (walk["family"] == "perturbed" and walk["sign"] == "minus"
            and walk["k"] == 1 and walk["b"] == 1.0)


def has_closed_form(walk: dict) -> bool:
    """Constant walks and the telescoping walk have a closed-form pmf."""
    return walk["family"] == "constant" or is_telescoping(walk)


# --- oracles ----------------------------------------------------------------

def oracle_log_pmf(walk: dict, n: int) -> float:
    """log P(M = n, D < inf) in 50-digit arithmetic (``has_closed_form`` walks)."""
    ctx = _CTX
    if walk["family"] == "constant":
        if walk["p"] == 0.5:
            return float(-(ctx.ln(_dec(n)) + ctx.ln(_dec(n + 1))))
        p = _dec(walk["p"])
        rho = ctx.divide(1 - p, p)
        log_rho = ctx.ln(rho)

        def log_one_minus_pow(m):  # log |1 - rho^m|
            x = ctx.multiply(m, log_rho)
            if x < 0:
                return ctx.ln(1 - ctx.exp(x))
            return x + ctx.ln(1 - ctx.exp(-x))

        return float(2 * ctx.ln(abs(1 - rho)) + n * log_rho
                     - log_one_minus_pow(n) - log_one_minus_pow(n + 1))
    d = ctx.divide(1, _dec(n) ** 2) - ctx.divide(1, _dec(n + 1) ** 2)
    return float(ctx.ln(d))


def brute_pmf(walk: dict, n_max: int) -> list[float]:
    """pmf for n = 1..n_max from running products of rho_i, summed in 50 digits."""
    ctx = _CTX
    prod, prefix, prev, out = _dec(1), _dec(1), _dec(1), []
    for i in range(1, n_max + 1):
        d2 = _dec(2.0 * drift(walk, i))
        prod = ctx.multiply(prod, ctx.divide(1 - d2, 1 + d2))
        prefix = prev + prod
        out.append(float(ctx.divide(prod, prev * prefix)))
        prev = prefix
    return out


def float_log_pmf(walk: dict, n: np.ndarray) -> np.ndarray:
    """Closed-form log pmf in float64 over an index array (``has_closed_form`` walks)."""
    x = n.astype(np.float64)
    if walk["family"] == "constant":
        if walk["p"] == 0.5:
            return -np.log(x) - np.log(x + 1.0)
        lr = math.log((1.0 - walk["p"]) / walk["p"])
        if lr < 0:
            lomp = lambda m: np.log(-np.expm1(m * lr))  # noqa: E731
        else:
            lomp = lambda m: m * lr + np.log(-np.expm1(-m * lr))  # noqa: E731
        with np.errstate(divide="ignore"):
            return 2.0 * math.log(abs(math.expm1(lr))) + x * lr - lomp(x) - lomp(x + 1.0)
    return np.log(2.0 * x + 1.0) - 2.0 * np.log(x) - 2.0 * np.log(x + 1.0)


def hit_banded(walk: dict, a: int, b: int) -> list[float]:
    """P_k(hit a before b) for k = a..b from P_k = p_k P_{k+1} + q_k P_{k-1}."""
    m = b - a + 1
    # Unknowns P_{a+1}..P_{b-1}; Thomas algorithm on the interior rows.
    lower, diag, upper, rhs = [], [], [], []
    for site in range(a + 1, b):
        pk = 1.0 if site == 0 else 0.5 + drift(walk, site)
        lower.append(1.0 - pk)
        diag.append(-1.0)
        upper.append(pk)
        rhs.append(-(1.0 - pk) if site == a + 1 else 0.0)
    size = m - 2
    for i in range(1, size):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    x = [0.0] * size
    for i in range(size - 1, -1, -1):
        x[i] = (rhs[i] - (upper[i] * x[i + 1] if i + 1 < size else 0.0)) / diag[i]
    return [1.0, *x, 0.0]


# --- table checks -----------------------------------------------------------

def _spot_depths(n_max: int) -> list[int]:
    ns = {1, 2, 3, 10, n_max}
    d = 100
    while d <= n_max:
        ns.add(d)
        d *= 10
    return sorted(x for x in ns if x <= n_max)


def check_table(walk, n_col, pmf, log_pmf, cumulative) -> tuple[list[str], float | None]:
    """Check a pmf table for n = 1..n_max; returns (failures, max abs log error).

    Arrays hold rows n = 1..n_max in order (no placeholder row 0); ``n_col``
    may be None when the rows come from the API rather than CLI output.
    Full-column checks run in chunks so the checker adds little to the
    peak memory of the process it runs in.
    """
    fails: list[str] = []
    n_max = len(pmf)
    if n_max == 0:
        return ["dist:empty"], None
    if abs(pmf[0] - (0.5 - drift(walk, 1))) > 1e-15:
        fails.append("dist:pmf_n1")
    closed = has_closed_form(walk)
    sums: list[float] = []
    prev_cum = 0.0
    for lo in range(0, n_max, _CHECK_CHUNK):
        hi = min(n_max, lo + _CHECK_CHUNK)
        n = np.arange(lo + 1, hi + 1)
        p, lp, cum = pmf[lo:hi], log_pmf[lo:hi], cumulative[lo:hi]
        if n_col is not None and not np.array_equal(n_col[lo:hi], n):
            fails.append("dist:n_sequence")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(cum))):
            fails.append("dist:nonfinite")
            break
        if np.any(np.diff(cum) < 0) or cum[0] < prev_cum or cum[-1] > 1 or cum[0] < 0:
            fails.append("dist:cumulative_bounds")
        if np.any(p < 0) or np.any(p > 1):
            fails.append("dist:pmf_bounds")
        # pmf is exp(log_pmf) to a few ulps (or both below the normal
        # range); row n = 1 is 1 - p_1, set directly.
        with np.errstate(under="ignore"):
            e = np.exp(lp)
        if np.any((np.abs(p - e) > PMF_EXP_RTOL * e + _TINY) & (n > 1)):
            fails.append("dist:pmf_vs_log_pmf")
        # Cumulative against an independent running sum: pairwise sums per
        # chunk, chained with an exactly rounded sum of the chunk totals.
        ref = np.cumsum(p) + math.fsum(sums)
        if np.any(np.abs(np.minimum(ref, 1.0) - cum) > CUMULATIVE_ATOL):
            fails.append("dist:cumulative_vs_sum")
        sums.append(float(np.sum(p)))
        prev_cum = cum[-1]
        if closed:
            ref_log = float_log_pmf(walk, n)
            if np.any(np.abs(lp - ref_log) > GROSS_LOG_RTOL * np.maximum(1.0, np.abs(ref_log))):
                fails.append("dist:log_pmf_gross")
    # 50-digit spot checks; documented tolerances inside their documented range.
    err = None
    if closed:
        err = 0.0
        for n in _spot_depths(n_max):
            want = oracle_log_pmf(walk, n)
            got = float(log_pmf[n - 1])
            err = max(err, abs(got - want))
            n_doc, rtol = (C1_N, C1_RTOL) if walk.get("p") == 0.5 else (C2_N, C2_RTOL)
            if n <= n_doc and abs(math.expm1(got - want)) > rtol:
                fails.append("dist:oracle_documented_range")
    else:
        small = min(n_max, 64)
        for n, want in enumerate(brute_pmf(walk, small), start=1):
            if abs(pmf[n - 1] - want) > C2_RTOL * want:
                fails.append("dist:brute_small_n")
                break
    return sorted(set(fails)), err


# --- CLI output parsing -----------------------------------------------------

def parse_json(data: bytes) -> tuple[list[str], list, dict]:
    """Columns, rows and meta of a CLI JSON document."""
    doc = json.loads(data)
    return doc["columns"], doc["rows"], doc["meta"]


def dist_arrays(fmt: str, data: bytes):
    """(n, pmf, log_pmf, cumulative) arrays from ``lmax dist`` output."""
    if fmt == "csv":
        head, _, body = data.partition(b"\n")
        if head != b"n,pmf,log_pmf,cumulative":
            raise ValueError("unexpected CSV header")
        table = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.float64, ndmin=2)
    else:
        doc = json.loads(data)
        if doc["columns"] != ["n", "pmf", "log_pmf", "cumulative"]:
            raise ValueError("unexpected JSON columns")
        table = np.array(doc["rows"], dtype=np.float64).reshape(-1, 4)
    return table[:, 0], table[:, 1], table[:, 2], table[:, 3]


def check_dist(op: dict, data: bytes) -> tuple[list[str], float | None, int]:
    """Failures, max abs log error and row count of one ``lmax dist`` output."""
    try:
        n, pmf, log_pmf, cum = dist_arrays(op["format"], data)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"dist:unparseable:{type(exc).__name__}"], None, 0
    fails, err = check_table(op["walk"], n, pmf, log_pmf, cum)
    if len(n) != op["n_max"]:
        fails.append("dist:row_count")
    return fails, err, len(n)


def check_sim(op: dict, data: bytes) -> tuple[list[str], int]:
    """Failures and row count of one ``lmax simulate``/``compare`` JSON output."""
    try:
        columns, rows, meta = parse_json(data)
        n = [int(r[0]) for r in rows]
        total = int(meta["total"])
        censored = int(meta["censored_height"]) + int(meta["censored_steps"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"sim:unparseable:{type(exc).__name__}"], 0
    fails = []
    if len(rows) != op["cap_height"] - 1:
        fails.append("sim:row_count")
    if n != list(range(1, len(rows) + 1)):
        fails.append("sim:n_sequence")
    if total != op["excursions"]:
        fails.append("sim:total")
    if op["command"] == "simulate":
        if columns != ["n", "count", "empirical"]:
            return ["sim:columns"], len(rows)
        counts = [int(r[1]) for r in rows]
        if any(float(r[2]) != c / total for r, c in zip(rows, counts)):
            fails.append("sim:empirical")
    else:
        if columns != ["n", "exact", "empirical", "stderr", "z"]:
            return ["sim:columns"], len(rows)
        counts = [round(float(r[2]) * total) for r in rows]
        if any(float(r[2]) != c / total for r, c in zip(rows, counts)):
            fails.append("sim:empirical")
    # Conservation: every excursion is tallied by its maximum or censored.
    if min(counts, default=0) < 0 or sum(counts) + censored != total:
        fails.append("sim:conservation")
    return fails, len(rows)


def exact_column(data: bytes) -> list[float]:
    """The ``exact`` column of ``lmax compare`` JSON output."""
    _, rows, _ = parse_json(data)
    return [float(r[1]) for r in rows]


def pmf_column(data: bytes) -> list[float]:
    """The ``pmf`` column of ``lmax dist`` CSV output."""
    _, pmf, _, _ = dist_arrays("csv", data)
    return pmf.tolist()

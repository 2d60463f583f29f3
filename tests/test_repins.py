"""Every re-pinned stdout column, measured against its high-precision oracle.

When a change moves the bytes of a ``GOLDEN_STDOUT`` pin (``test_cli.py``),
each column that moved must move toward its oracle: neither its worst nor
its mean error, in units in the last place of the oracle's double, may
grow.  ``REPINNED`` names, for each moved column, the oracle and the worst
and mean error of the bytes the pin held before.  Perturbed-walk tables
were re-pinned when ``series.build`` took the compensated block scan,
constant-walk tables when it took the gambler's-ruin closed form, the hit
pin when ``hit_before`` came to sum its window's shifted products, and the
constant walk's product shape when ``resolve_shape`` took L from the
tables' own 40-digit rounding, and the return pin when ``return_prob``
took the closed-form integral bound on its remainder and again when its
ends came to round outward; those ends are measured by whether they hold
the 50-digit return probability.  ``c_hat`` is
measured against the exact constant at n: the exact value over the exact
shape.

Oracles (``_oracles.py``): ``geometric`` is the 50-digit closed form of the
constant walk; ``drifts`` sums the products of the perturbed walk's double
drifts in 40 digits (50 for a hitting probability and for a return
probability, whose depth-1 tail is then summed in closed form).  Long
tables are measured on every row to 300 and every 97th row after it.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import mpmath as mp
import numpy as np
import pytest

from lmax import ConstantWalk, PerturbedWalk
from lmax.asymptotics import ShapeTarget, log_shape, resolve_shape
from lmax.cli import main
from lmax.series import build
from lmax.walk import signed_drift_array

from _oracles import (
    drift_log_tables,
    geometric_log_tables,
    hit_prob_from_drifts,
    return_prob_from_drifts,
    ulps,
)


def _output(cmd: str):
    """(columns, rows, meta) of a command's stdout; meta is {} for CSV."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        assert main(cmd.split()) == 0
    text = buf.getvalue()
    if text.startswith("{"):
        doc = json.loads(text)
        return doc["columns"], doc["rows"], doc["meta"]
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [[_cell(x) for x in row] for row in lines[1:]], {}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _rows(n_max: int) -> list[int]:
    """Every row to 300, then every 97th: the rows a long pin is measured on."""
    return sorted(set(range(1, min(n_max, 300) + 1)) | set(range(301, n_max + 1, 97)))


def _logs(spec, n_max: int, rows) -> dict:
    """{n: (log P_n, log S_n)} from the walk's oracle, at rows and the rows before them."""
    need = sorted(set(rows) | {n - 1 for n in rows})
    if isinstance(spec, ConstantWalk):
        return {n: geometric_log_tables(spec.p, n) for n in need}
    return drift_log_tables(spec, n_max, need)


def _dist_errors(cmd: str, spec, n_max: int) -> dict:
    cols, rows, _ = _output(cmd)
    pick = _rows(n_max)
    logs = _logs(spec, n_max, pick)
    errs = {"pmf": [], "log_pmf": [], "cumulative": []}
    with mp.workdps(50):
        for n in pick:
            row = dict(zip(cols, rows[n - 1]))
            log_pmf = logs[n][0] - logs[n - 1][1] - logs[n][1]
            errs["log_pmf"].append(ulps(row["log_pmf"], log_pmf))
            errs["pmf"].append(ulps(row["pmf"], mp.exp(log_pmf)))
            errs["cumulative"].append(ulps(row["cumulative"], -mp.expm1(-logs[n][1])))
    return errs


def _log_shape_exact(shape, n: int):
    """The shape's log at n from the walk's exact parameters, in the working precision.

    Covers the shapes of the asympt pins: a constant walk's product, r^n, and log chains.
    """
    if shape.kind == "geometric":
        assert shape.target is ShapeTarget.PRODUCT
        return n * mp.log((1 - mp.mpf(shape.spec.p)) / shape.spec.p)
    assert shape.kind == "logchain"
    total = 0
    for depth, exponent in shape.factors:
        x = mp.mpf(n)
        for _ in range(depth):
            x = mp.log(x)
        total += exponent * mp.log(x)
    return -total


def _asympt_errors(cmd: str, spec, n_hi: int, target: str) -> dict:
    """Errors of ``exact``, ``shape`` and ``c_hat``, the last against exact / exact shape."""
    cols, rows, meta = _output(cmd)
    shape = resolve_shape(spec, ShapeTarget(target))
    ns = [int(r[0]) for r in rows]
    logs = _logs(spec, n_hi, ns + [n_hi, n_hi // 2])

    def log_exact(n):
        if target == "product":
            return logs[n][0]
        return logs[n][0] - logs[n - 1][1] - logs[n][1]

    errs = {"exact": [], "shape": [], "c_hat": []}
    with mp.workdps(50):
        for n, row in zip(ns, rows):
            row = dict(zip(cols, row))
            log_s = _log_shape_exact(shape, n)
            errs["exact"].append(ulps(row["exact"], mp.exp(log_exact(n))))
            errs["shape"].append(ulps(row["shape"], mp.exp(log_s)))
            errs["c_hat"].append(ulps(row["c_hat"], mp.exp(log_exact(n) - log_s)))
        if meta:
            log_c = [log_exact(n) - log_shape(shape, n) for n in (n_hi, n_hi // 2)]
            errs["drift"] = [ulps(meta["drift"], abs(mp.expm1(log_c[0] - log_c[1])))]
    return errs


def _return_errors(cmd: str, spec) -> dict:
    """``value`` in ulps of P(return); ``lower`` and ``upper`` by containment of it.

    An end's error is how many ulps it lies on the wrong side of the
    50-digit P(return), 0 where the bracket holds it: an end rounded
    outward moves away from its own integral bound, and only its side of
    the value is a claim.
    """
    cols, rows, _ = _output(cmd)
    row = dict(zip(cols, rows[0]))
    exact = return_prob_from_drifts(spec)
    with mp.workdps(50):
        lower = ulps(row["lower"], exact) if row["lower"] > exact else 0.0
        upper = ulps(row["upper"], exact) if row["upper"] < exact else 0.0
        return {"lower": [lower], "upper": [upper], "value": [ulps(row["value"], exact)]}


def _hit_errors(cmd: str, spec, a: int, k: int, b: int) -> dict:
    cols, rows, _ = _output(cmd)
    row = dict(zip(cols, rows[0]))
    exact = hit_prob_from_drifts(signed_drift_array(spec, range(1, b)), a, k, b)
    with mp.workdps(50):
        return {"probability": [ulps(row["probability"], exact)]}


def _compare_errors(cmd: str, spec, cap_height: int) -> dict:
    cols, rows, meta = _output(cmd)
    logs = _logs(spec, cap_height - 1, range(1, cap_height))
    errs = {"exact": [], "stderr": [], "z": []}
    with mp.workdps(50):
        for row in rows:
            row = dict(zip(cols, row))
            n = row["n"]
            exact = mp.exp(logs[n][0] - logs[n - 1][1] - logs[n][1])
            stderr = mp.sqrt(exact * (1 - exact) / meta["total"])
            errs["exact"].append(ulps(row["exact"], exact))
            errs["stderr"].append(ulps(row["stderr"], stderr))
            errs["z"].append(ulps(row["z"], (mp.mpf(row["empirical"]) - exact) / stderr))
    return errs


# pin -> (oracle, measure, its arguments, {column: (worst, mean) error of the bytes
# pinned before, rounded up in the fourth digit}).
# CSV and JSON pins carry the same numbers (test_csv_and_json_carry_identical_numbers),
# so each table is measured once; the asympt JSON pin adds the drift field.
REPINNED = {
    "dist --p 0.4 --n-max 300": (
        "geometric", _dist_errors, (ConstantWalk(0.4), 300),
        {"pmf": (3298.0, 648.5), "log_pmf": (27.12, 8.793)}),
    "dist --p 0.4 --n-max 65537": (
        "geometric", _dist_errors, (ConstantWalk(0.4), 65537),
        {"pmf": (53060.0, 541.7), "log_pmf": (7509.0, 1772.0)}),
    "dist --sign plus --K 1 --B 2 --n-max 300": (
        "drifts", _dist_errors, (PerturbedWalk(1, 2.0, "plus"), 300),
        {"pmf": (140.3, 65.42), "log_pmf": (11.29, 5.6), "cumulative": (4.445, 1.61)}),
    "dist --sign plus --K 2 --B 1.5 --n-max 300": (
        "drifts", _dist_errors, (PerturbedWalk(2, 1.5, "plus"), 300),
        {"pmf": (120.4, 43.48), "log_pmf": (8.454, 3.673), "cumulative": (5.184, 1.923)}),
    "dist --sign minus --K 3 --B -1 --n-max 300": (
        "drifts", _dist_errors, (PerturbedWalk(3, -1.0, "minus"), 300),
        {"pmf": (54.34, 13.84), "log_pmf": (4.766, 1.255), "cumulative": (0.5895, 0.2548)}),
    "dist --sign minus --K 2 --B 1 --n-max 131072": (
        "drifts", _dist_errors, (PerturbedWalk(2, 1.0, "minus"), 131072),
        {"pmf": (2435.0, 511.1), "log_pmf": (49.97, 12.2)}),
    "asympt --sign plus --K 1 --B 0.5 --n-hi 20000 --format json": (
        "drifts", _asympt_errors, (PerturbedWalk(1, 0.5, "plus"), 20000, "max-pmf"),
        {"exact": (525.3, 135.2), "c_hat": (525.9, 130.3), "drift": (73480.0, 73480.0)}),
    # Re-pinned twice: exact with the closed-form tables, then shape and c_hat
    # when the shape took the tables' L, rounded once, so that c_hat reads 1.0.
    "asympt --p 0.4 --target product --n-hi 20000": (
        "geometric", _asympt_errors, (ConstantWalk(0.4), 20000, "product"),
        {"exact": (36510.0, 6228.0), "shape": (1041.0, 169.0), "c_hat": (4096.0, 1032.0)}),
    # Re-pinned four times: with the compensated scan, when return_prob took
    # the integral bound, when its ends came to round outward past every
    # double rounding, and when each end became one 40-digit evaluation
    # rounded outward once; the errors below are the integral-bound bytes'
    # (0.4 and a bracket that holds it).
    "return --sign plus --K 1 --B 2": (
        "drifts", _return_errors, (PerturbedWalk(1, 2.0, "plus"),),
        {"value": (0.3273, 0.3273), "lower": (0.0, 0.0), "upper": (0.0, 0.0)}),
    "hit --sign minus --K 2 --B 2 --a 0 --k 3 --b 500": (
        "drifts", _hit_errors, (PerturbedWalk(2, 2.0, "minus"), 0, 3, 500),
        {"probability": (11.85, 11.85)}),
    "compare --p 0.45 --excursions 20000 --seed 3 --cap-height 32 --format json": (
        "geometric", _compare_errors, (ConstantWalk(0.45), 32),
        {"exact": (10.65, 2.986), "stderr": (6.069, 1.52), "z": (554.8, 61.92)}),
}


@pytest.mark.parametrize("pin", sorted(REPINNED))
def test_repinned_columns_move_toward_their_oracle(pin):
    oracle, measure, args, before = REPINNED[pin]
    errs = measure(pin, *args)
    assert set(before) <= set(errs)
    for column, (worst, mean) in before.items():
        got = (max(errs[column]), float(np.mean(errs[column])))
        assert got[0] <= worst and got[1] <= mean, (column, oracle, got, (worst, mean))

"""The deep-table server: one long-lived process over the library API.

Usage: ``python perfbench/tables.py PLAN_JSON RESULT_JSON`` with ``src`` on
``PYTHONPATH``.  The plan holds the rounds of walks (from
``plan.deep_plan``), the time budget, whether to trace, and where to
append spans.  ``import lmax`` is paid once.  Each walk served is one
operation: ``build`` and ``max_pmf_table`` at full depth, then its query
batch against the shared table.  The reference task of ``calib`` runs
before each operation; checks run after it, both outside its timing.  With tracing on, each walk is served twice, untraced and then
traced, so the overhead of the spans can be read off the same process.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import warnings

import numpy as np

import calib
import checks
from plan import timed_rounds
from spans import Tracer


def _spec(walk: dict):
    if walk["family"] == "constant":
        return lmax.ConstantWalk(walk["p"])
    return lmax.PerturbedWalk(k=walk["k"], b=walk["b"], sign=walk["sign"])


def _query(series, table, spec, q: dict):
    kind = q["kind"]
    if kind in ("hit_before", "hit_small"):
        return lmax.hit_before(series, lmax.HittingQuery(q["a"], q["k"], q["b"]))
    if kind == "tail_mass":
        return lmax.tail_mass(table, q["n"])
    if kind == "return_prob":
        return lmax.return_prob(series)
    if kind == "estimate_constant":
        shape = lmax.resolve_shape(spec, lmax.ShapeTarget.MAX_PMF)
        return lmax.estimate_constant(series, shape, q["n_lo"], q["n_hi"])
    return lmax.series_diagnostic(series)


def _check_query(walk: dict, q: dict, value) -> str | None:
    kind = q["kind"]
    if kind == "hit_before":
        ok = 0.0 <= value <= 1.0
    elif kind == "hit_small":
        want = checks.hit_banded(walk, q["a"], q["b"])[q["k"] - q["a"]]
        ok = abs(value - want) <= checks.C3_ATOL
    elif kind == "tail_mass":
        ok = 0.0 <= value.lower <= value.value <= value.upper <= 1.0
    elif kind == "return_prob":
        ok = 0.0 <= value.lower <= value.value <= value.upper <= 1.0
    elif kind == "estimate_constant":
        ok = bool(np.all(np.isfinite(value.log_c_hat))) and len(value.ns) > 0
    else:
        ok = value.verdict in (lmax.APPARENTLY_CONVERGENT, lmax.APPARENTLY_DIVERGENT)
    return None if ok else f"query:{kind}"


def serve(item: dict, op_id: str, tracer: Tracer | None) -> dict:
    """One operation: build the walk's tables, answer its queries, then check."""
    walk, n = item["walk"], item["n"]
    spec = _spec(walk)
    latencies, values = [], []
    cal = calib.calibrate()
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.op = op_id
        tracer.install()
        span = tracer.span("op")
    try:
        with span:
            t0 = time.perf_counter()
            series = lmax.build(spec, n)
            table = lmax.max_pmf_table(series, n)
            for q in item["queries"]:
                tq = time.perf_counter()
                values.append(_query(series, table, spec, q))
                latencies.append(time.perf_counter() - tq)
            op_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    fails, err = checks.check_table(walk, None, table.pmf[1:], table.log_pmf[1:],
                                    table.cumulative[1:])
    fails += [f for q, v in zip(item["queries"], values) if (f := _check_query(walk, q, v))]
    return {"op": op_id, "walk": walk, "entries": n, "op_s": op_s, "traced": tracer is not None,
            "calib_s": cal,
            "query_s": latencies, "kinds": [q["kind"] for q in item["queries"]],
            "failures": sorted(set(fails)), "max_abs_log_err": err}


def main(plan_path: str, result_path: str, import_ns: tuple[int, int]) -> int:
    with open(plan_path, encoding="utf-8") as f:
        config = json.load(f)
    warnings.simplefilter("ignore", lmax.ConvergenceWarning)
    tracer = Tracer("setup") if config["trace"] else None
    if tracer is not None:
        tracer.spans.append({"id": -1, "name": "import.lmax", "parent": None, "op": "setup",
                             "start": import_ns[0], "end": import_ns[1]})
    ops = []
    for r, items in timed_rounds(config["rounds"], config["seconds"]):
        for i, item in enumerate(items):
            op_id = f"{r}.{i}"
            ops.append(serve(item, op_id, None))
            if tracer is not None:
                ops.append(serve(item, op_id, tracer))
    if tracer is not None:
        tracer.dump(config["spans_path"])
    result = {"import_s": (import_ns[1] - import_ns[0]) / 1e9, "ops": ops,
              "absent": tracer.absent if tracer is not None else []}
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    t_import = time.perf_counter_ns()
    import lmax  # the set-up cost this workload pays once

    sys.exit(main(sys.argv[1], sys.argv[2], (t_import, time.perf_counter_ns())))

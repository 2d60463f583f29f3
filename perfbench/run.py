"""lmax benchmark: three closed-loop workloads, timed end to end and per module.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {dist-emit,deep-table,simulate} \\
        --seed N --seconds S --trace {0,1}

One client issues one operation at a time.  ``dist-emit`` and ``simulate``
run the CLI as fresh ``python -m lmax`` subprocesses with ``src`` on
``PYTHONPATH``; ``deep-table`` serves walks from one long-lived process
over the library API.  Each run does whole rounds of its seeded plan and
starts another round only while the previous round's time still fits in
``--seconds``.  Every output is checked.

``--trace 0`` reports the end-to-end metrics, with times restated at the
reference speed of ``calib`` (the raw values are kept in the report).
``--trace 1`` runs every operation twice, untraced and then through the
span shim, and reports the per-layer metrics computed from the spans,
plus the tracing overhead.
The last line of stdout is the result object; the line before it is the
full report (sample counts, failures by cause, run facts, per-span
times), which is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calib
import checks
import plan
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
OP_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
ITEMS = {"dist-emit": "rows", "deep-table": "table entries", "simulate": "excursions"}


class Child(NamedTuple):
    """Result of one subprocess: wall time, peak RSS, exit code and output."""

    wall_s: float
    rss_mb: float
    code: int
    out: bytes
    err: str


class Launcher:
    """Runs subprocesses through ``launcher.py``, which stays small (see there)."""

    def __init__(self, env: dict, out_dir: Path):
        self.out_path, self.err_path = out_dir / "stdout.bin", out_dir / "stderr.txt"
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
        req = {"argv": argv, "stdout": str(self.out_path), "stderr": str(self.err_path),
               "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall_s"], reply["rss_kb"] / 1024.0, reply["code"],
                     self.out_path.read_bytes(),
                     self.err_path.read_bytes().decode("utf-8", "replace"))

    def close(self) -> None:
        # End of input stops the launcher once its current child, if any,
        # has ended; its own timer kills a child that outlives OP_TIMEOUT_S.
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        self.out_path.unlink(missing_ok=True)
        self.err_path.unlink(missing_ok=True)


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                            if env.get("PYTHONPATH") else "")
    return env


def lmax_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "lmax", *args]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (q in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def timing(values: list[float]) -> dict:
    """Median, and p90 only when at least ten samples lie beyond it."""
    out = {"count": len(values), "p50": quantile(values, 0.5)}
    if len(values) >= 100:
        out["p90"] = quantile(values, 0.9)
    return out


# --- set-up -----------------------------------------------------------------

def measure_setup(workload: str, launcher: Launcher):
    """Several fresh set-ups: their times, the calibration times next to them, failures."""
    times, cal, fails = [], [], []
    for _ in range(SETUP_SAMPLES):
        cal.append(calib.calibrate())
        if workload == "deep-table":
            code = ("import time; t = time.perf_counter(); import lmax; "
                    "print(repr(time.perf_counter() - t))")
            child = launcher.run([sys.executable, "-c", code])
            ok = child.code == 0
            if ok:
                times.append(float(child.out.decode()))
        else:
            child = launcher.run(lmax_argv(["--version"]))
            ok = child.code == 0 and child.out.startswith(b"lmax ")
            if ok:
                times.append(child.wall_s)
        if not ok:
            fails.append(f"setup:exit{child.code}")
    return times, cal, fails


FACTS_CODE = (
    "import json, os, lmax, lmax.montecarlo as m, lmax.series as s\n"
    "k = 'python' if getattr(m, '_drive', None) is getattr(m, '_drive_py', object()) "
    "else 'compiled'\n"
    "env = os.environ.get(s.MAX_TABLE_ENV)\n"
    "print(json.dumps({'kernel': k, 'lmax_max_table': int(env) if env else "
    "s.DEFAULT_MAX_ENTRIES, 'lmax_max_table_source': 'env' if env else 'default'}))\n"
)


def run_facts(launcher: Launcher) -> dict:
    """What the package sees at run time; collected after the timed work."""
    child = launcher.run([sys.executable, "-c", FACTS_CODE])
    facts = json.loads(child.out) if child.code == 0 else {"kernel": "unknown"}
    console = any((Path(d) / "lmax").is_file()
                  for d in os.environ.get("PATH", "").split(os.pathsep) if d)
    facts.update({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cli_invocation": f"{Path(sys.executable).name} -m lmax (PYTHONPATH=src)",
        "console_script_on_path": console,
        "machine_control": "none: no CPU-frequency, cgroup or page-cache control was applied",
    })
    return facts


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


# --- workloads --------------------------------------------------------------

def run_cli_workload(workload, rounds, seconds, trace, launcher, spans_path) -> list[dict]:
    """Closed loop over CLI subprocesses; each record is one checked operation."""
    records = []
    pairs: dict[str, list[dict]] = {}
    exact_ref: dict[str, list[float]] = {}
    for r, ops in plan.timed_rounds(rounds, seconds):
        for i, op in enumerate(ops):
            op_id = f"{r}.{i}"
            for traced in ((False, True) if trace else (False,)):
                cal = calib.calibrate()
                argv = ([sys.executable, str(HERE / "shim.py"), str(spans_path),
                         op_id, *op["argv"]] if traced else lmax_argv(op["argv"]))
                child = launcher.run(argv)
                rec = {"op": op_id, "traced": traced, "op_s": child.wall_s,
                       "rss_mb": child.rss_mb, "bytes_out": len(child.out), "items": 0,
                       "rows": 0, "failures": [], "max_abs_log_err": None,
                       "workers": op.get("workers"), "pair": op.get("pair"),
                       "argv": op["argv"], "calib_s": cal}
                if child.code != 0:
                    rec["failures"].append(f"exit:{child.code}")
                elif workload == "dist-emit":
                    fails, err, rows = checks.check_dist(op, child.out)
                    rec.update(failures=fails, max_abs_log_err=err, rows=rows, items=rows)
                else:
                    fails, rows = checks.check_sim(op, child.out)
                    rec.update(failures=fails, rows=rows, items=op["excursions"])
                    if op["command"] == "compare" and not fails:
                        rec["failures"] += _check_exact(op, child.out, exact_ref, launcher)
                        rec["max_abs_log_err"] = _exact_log_err(op, child.out)
                    pairs.setdefault(f"{op['pair']}/{traced}", []).append(
                        {"rec": rec, "out": child.out})
                records.append(rec)
    for members in pairs.values():
        if len(members) == 2 and members[0]["out"] != members[1]["out"]:
            for m in members:
                m["rec"]["failures"].append("sim:workers_bytes_differ")
    return records


def _check_exact(op, out, cache, launcher) -> list[str]:
    """compare's exact column must equal the pmf column of ``lmax dist`` for the walk."""
    key = f"{json.dumps(op['walk'], sort_keys=True)}/{op['cap_height']}"
    if key not in cache:
        child = launcher.run(lmax_argv(["dist", *plan.walk_args(op["walk"]),
                                        "--n-max", str(op["cap_height"] - 1)]))
        cache[key] = checks.pmf_column(child.out) if child.code == 0 else None
    if cache[key] is None:
        return ["sim:dist_reference_failed"]
    return [] if checks.exact_column(out) == cache[key] else ["sim:exact_vs_dist"]


def _exact_log_err(op, out) -> float | None:
    """Worst |log exact - log oracle| over compare's exact column, where an oracle exists."""
    walk = op["walk"]
    if not checks.has_closed_form(walk):
        return None
    err = 0.0
    for n, e in enumerate(checks.exact_column(out), start=1):
        if n in (1, 2, 10, 100, op["cap_height"] - 1) and e > 0:
            err = max(err, abs(math.log(e) - checks.oracle_log_pmf(walk, n)))
    return err


def run_deep_workload(rounds, seconds, trace, launcher, out_dir, spans_path):
    plan_path, result_path = out_dir / "deep_plan.json", out_dir / "deep_result.json"
    plan_path.write_text(json.dumps({"rounds": rounds, "seconds": seconds, "trace": trace,
                                     "spans_path": str(spans_path)}))
    child = launcher.run([sys.executable, str(HERE / "tables.py"), str(plan_path),
                          str(result_path)], timeout=170.0)
    if child.code != 0:
        sys.stderr.write(child.err[-4000:])
        return [{"op": "server", "traced": False, "op_s": child.wall_s, "items": 0,
                 "failures": [f"exit:{child.code}"], "query_s": []}], child.rss_mb, None
    result = json.loads(result_path.read_text())
    for o in result["ops"]:
        o["items"] = o["entries"]
    return result["ops"], child.rss_mb, result["import_s"]


# --- metrics ----------------------------------------------------------------

def wall_metrics(workload, setup_times, records, server_rss) -> dict:
    """End-to-end metrics as measured, before the speed correction."""
    plain = [r for r in records if not r["traced"]]
    op_times = [r["op_s"] for r in plain]
    busy = sum(op_times)
    rss = server_rss if workload == "deep-table" else statistics.median(
        r["rss_mb"] for r in plain)
    return {
        "setup_s": statistics.median(setup_times),
        "op_s.p50": quantile(op_times, 0.5),
        "items_per_s": sum(r["items"] for r in plain) / busy if busy else 0.0,
        "peak_rss_mb": rss,
    }


def end_to_end(wall: dict, setup_speed: float, op_speed: float) -> dict:
    """Times restated at the reference speed of ``calib``; memory as measured."""
    return {
        "setup_s": wall["setup_s"] * setup_speed,
        "op_s.p50": wall["op_s.p50"] * op_speed,
        "items_per_s": wall["items_per_s"] / op_speed,
        "peak_rss_mb": wall["peak_rss_mb"],
    }


LAYER_UNITS = {
    "import.lmax_s": "s",
    "cli.self_s": "s", "cli.rows": "count", "cli.bytes_out": "B", "cli.ns_per_row": "ns",
    "walk.log_rho_array_s": "s", "walk.ns_per_entry": "ns",
    "series.build_s": "s", "series.scan_s": "s", "series.entries": "count",
    "series.bytes_computed": "B",
    "excursion.max_pmf_table_s": "s", "excursion.tail_mass_s": "s",
    "excursion.max_abs_log_err": "nat",
    "numerics.compensated_cumsum_s": "s",
    "first_passage.hit_before_s.p50": "s", "first_passage.hit_before_s.p90": "s",
    "first_passage.entries_scanned": "count", "first_passage.return_prob_s": "s",
    "asymptotics.estimate_constant_s": "s", "classify.series_diagnostic_s": "s",
    "montecarlo.run_s": "s", "montecarlo.kernel_s": "s", "montecarlo.other_s": "s",
    "montecarlo.kernel_calls": "count", "montecarlo.uniforms_drawn": "count",
    "montecarlo.uniforms_per_s": "1/s", "montecarlo.compare_s": "s",
    "montecarlo.workers2_speedup": "ratio",
    "trace.overhead_s": "s",
}


def per_layer(span_list, records) -> tuple[dict, dict]:
    """Per-layer metrics (per traced operation unless a rate or ratio) and shares."""
    summary = spans.summarize(span_list)
    traced = [r for r in records if r["traced"]]
    n = max(1, len(traced))

    def agg(name, key="total_s"):
        return summary.get(name, {}).get(key, 0)

    kernel_s = agg("montecarlo.run") - agg("montecarlo.run", "self_s")
    rows = sum(r.get("rows", 0) for r in traced)
    hits = summary.get("first_passage.hit_before", {}).get("durations_s", [])
    lr_entries = agg("walk.log_rho_array", "entries")
    build_entries = agg("series.build", "entries")
    errs = [r["max_abs_log_err"] for r in records if r.get("max_abs_log_err") is not None]
    m = {
        "import.lmax_s": statistics.median(
            summary.get("import.lmax", {}).get("durations_s", [0.0])),
        "cli.self_s": agg("cli.main", "self_s") / n,
        "cli.rows": rows / n,
        "cli.bytes_out": sum(r.get("bytes_out", 0) for r in traced) / n,
        "cli.ns_per_row": agg("cli.main", "self_s") * 1e9 / rows if rows else 0.0,
        "walk.log_rho_array_s": agg("walk.log_rho_array") / n,
        "walk.ns_per_entry": agg("walk.log_rho_array") * 1e9 / lr_entries if lr_entries else 0.0,
        "series.build_s": agg("series.build") / n,
        "series.scan_s": agg("series.build", "self_s") / n,
        "series.entries": build_entries / n,
        # Computed from array sizes: log_rho (n) plus log_prod and log_prefix_sum (n+1 each).
        "series.bytes_computed": 8 * (3 * build_entries + 2 * agg("series.build", "calls")) / n,
        "excursion.max_pmf_table_s": agg("excursion.max_pmf_table") / n,
        "excursion.tail_mass_s": agg("excursion.tail_mass") / n,
        "excursion.max_abs_log_err": max(errs, default=0.0),
        "numerics.compensated_cumsum_s": agg("numerics.compensated_cumsum") / n,
        "first_passage.hit_before_s.p50": quantile(hits, 0.5),
        "first_passage.hit_before_s.p90": quantile(hits, 0.9),
        "first_passage.entries_scanned": agg("first_passage.hit_before", "entries") / n,
        "first_passage.return_prob_s": agg("first_passage.return_prob") / n,
        "asymptotics.estimate_constant_s": agg("asymptotics.estimate_constant") / n,
        "classify.series_diagnostic_s": agg("classify.series_diagnostic") / n,
        "montecarlo.run_s": agg("montecarlo.run") / n,
        "montecarlo.kernel_s": kernel_s / n,
        "montecarlo.other_s": agg("montecarlo.run", "self_s") / n,
        "montecarlo.kernel_calls": agg("montecarlo.kernel", "calls") / n,
        # Counted from the length of each uniform chunk handed to the kernel.
        "montecarlo.uniforms_drawn": agg("montecarlo.kernel", "entries") / n,
        "montecarlo.uniforms_per_s": (agg("montecarlo.kernel", "entries") / kernel_s
                                      if kernel_s else 0.0),
        "montecarlo.compare_s": agg("montecarlo.compare") / n,
        "montecarlo.workers2_speedup": _speedup(span_list, traced),
        "trace.overhead_s": (quantile([r["op_s"] for r in traced], 0.5)
                             - quantile([r["op_s"] for r in records if not r["traced"]], 0.5)),
    }
    busy = sum(r["op_s"] for r in traced)
    layers: dict[str, float] = {}
    for name, s in summary.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self_s"]
    shares = {k: v / busy for k, v in sorted(layers.items())} if busy else {}
    table = {k: {"calls": v["calls"], "total_s": v["total_s"], "self_s": v["self_s"]}
             for k, v in sorted(summary.items())}
    return m, {"self_share_of_op_time": shares, "spans": table}


def _speedup(span_list, traced) -> float:
    """Median over --workers pairs of run time with 1 worker over run time with 2."""
    run_s: dict[str, float] = {}
    for s in span_list:
        if s["name"] == "montecarlo.run":
            run_s[s["op"]] = run_s.get(s["op"], 0.0) + (s["end"] - s["start"]) / 1e9
    pairs: dict[str, dict[int, float]] = {}
    for rec in traced:
        if rec.get("pair") and rec["op"] in run_s:
            pairs.setdefault(rec["pair"], {})[rec["workers"]] = run_s[rec["op"]]
    ratios = [p[1] / p[2] for p in pairs.values() if p.get(1) and p.get(2)]
    return statistics.median(ratios) if ratios else 0.0


# --- main -------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lmax" / "__init__.py").is_file():
        print(f"error: no lmax sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    rounds = plan.PLANS[args.workload](args.seed)
    launcher = Launcher(package_env(), out_dir)
    try:
        setup_times, setup_cal, setup_fails = measure_setup(args.workload, launcher)
        if not setup_times:
            print("error: every set-up attempt failed: " + ", ".join(setup_fails),
                  file=sys.stderr)
            return 1
        t_run = time.perf_counter()
        server_rss, server_import = None, None
        if args.workload == "deep-table":
            records, server_rss, server_import = run_deep_workload(
                rounds, args.seconds, bool(args.trace), launcher, out_dir, spans_path)
        else:
            records = run_cli_workload(args.workload, rounds, args.seconds, bool(args.trace),
                                       launcher, spans_path)
        run_s = time.perf_counter() - t_run
        facts = run_facts(launcher)
    finally:
        launcher.close()

    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    causes: dict[str, int] = {}
    for r in records:
        for c in r["failures"]:
            causes[c] = causes.get(c, 0) + 1
    for c in setup_fails:
        causes[c] = causes.get(c, 0) + 1

    plain = [r for r in records if not r["traced"]]
    wall = wall_metrics(args.workload, setup_times, records, server_rss)
    setup_speed = calib.speed(setup_cal)
    op_speed = calib.speed([r["calib_s"] for r in plain if "calib_s" in r] or setup_cal)
    e2e = end_to_end(wall, setup_speed, op_speed)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "run_s": run_s, "items": ITEMS[args.workload],
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "wall": wall,
        "speed": {"setup": setup_speed, "ops": op_speed, "reference_s": calib.REFERENCE_S,
                  "setup_calib_s": setup_cal},
        "samples": {"setup": len(setup_times), "ops": len(plain),
                    "rounds": len({r["op"].split(".")[0] for r in plain})},
        "op_s": timing([r["op_s"] for r in plain]),
        "failed_ratio": {"value": failed / attempted if attempted else 1.0,
                         "attempted": attempted, "failed": failed, "causes": causes},
        "facts": facts,
    }
    if server_import is not None:
        report["server_import_s"] = server_import
    if args.workload == "deep-table":
        report["query_s"] = timing([q for r in plain for q in r.get("query_s", [])])
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        layer, detail = per_layer(spans.load([spans_path]) if spans_path.exists() else [],
                                  records)
        report["per_layer"] = layer
        report["layers"] = detail
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
    print(json.dumps(report))
    report["ops"] = records
    (out_dir / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0 and not setup_fails, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

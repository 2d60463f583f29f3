"""Tests of the benchmark itself (not of the package).

Run from the repository root: ``python3 -m pytest -q perfbench``.  The
smoke test runs every workload once with a one-second budget, so one
round each; it takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("workload", sorted(plan.PLANS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = plan.PLANS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("workload", sorted(plan.PLANS))
def test_seed_changes_arrangement_not_amount(workload):
    def sizes(rounds):
        keys = ("n_max", "format", "excursions", "workers", "command", "n")
        return sorted(json.dumps({k: op.get(k) for k in keys}) for op in rounds[0])

    assert sizes(plan.PLANS[workload](1)) == sizes(plan.PLANS[workload](2))


def test_dist_plan_covers_sizes_and_formats():
    ops = plan.dist_plan(3)[0]
    for fmt in ("csv", "json"):
        assert max(op["n_max"] for op in ops if op["format"] == fmt) == 1_000_000
    assert min(op["n_max"] for op in ops) == 10_000


def _dist_csv(p: float, n_max: int) -> bytes:
    """A correct ``lmax dist`` CSV for a constant walk, built from the closed form."""
    rows, cum = ["n,pmf,log_pmf,cumulative"], 0.0
    for k in range(1, n_max + 1):
        lp = checks.oracle_log_pmf({"family": "constant", "p": p}, k)
        pmf = 1.0 - p if k == 1 else math.exp(lp)
        cum += pmf
        rows.append(f"{k},{pmf!r},{lp!r},{min(cum, 1.0)!r}")
    return ("\n".join(rows) + "\n").encode()


def test_checker_accepts_correct_dist_and_rejects_one_mutated_float():
    op = {"format": "csv", "n_max": 300, "walk": {"family": "constant", "p": 0.42}}
    good = _dist_csv(0.42, 300)
    fails, err, rows = checks.check_dist(op, good)
    assert fails == [] and rows == 300 and err < 1e-12
    lines = good.decode().splitlines()
    for row, col in ((17, 1), (250, 2), (120, 3), (5, 0)):
        fields = lines[row].split(",")
        v = float(fields[col])
        fields[col] = repr(v * 1.001 if v else 1e-3)
        bad = "\n".join(lines[:row] + [",".join(fields)] + lines[row + 1:]) + "\n"
        fails, _, _ = checks.check_dist(op, bad.encode())
        assert fails, f"mutation in row {row}, column {col} not caught"


def test_banded_oracle_matches_closed_form():
    # Gambler's ruin with p = 1/2: P_k(hit 0 before b) = 1 - k/b.
    got = checks.hit_banded({"family": "constant", "p": 0.5}, 0, 10)
    assert all(abs(g - (1 - k / 10)) < 1e-14 for k, g in enumerate(got))


def test_telescoping_brute_force_agrees_with_closed_form():
    walk = {"family": "perturbed", "sign": "minus", "k": 1, "b": 1.0}
    for n, v in enumerate(checks.brute_pmf(walk, 20), start=1):
        assert abs(v - (1 / n**2 - 1 / (n + 1) ** 2)) < 1e-15


def _sim_json(counts, censored_h=0, censored_s=0) -> bytes:
    total = sum(counts) + censored_h + censored_s
    rows = [[n, c, c / total] for n, c in enumerate(counts, start=1)]
    meta = {"total": total, "censored_height": censored_h, "censored_steps": censored_s}
    return json.dumps({"meta": meta, "columns": ["n", "count", "empirical"],
                       "rows": rows}).encode()


def test_checker_conservation():
    op = {"command": "simulate", "cap_height": 4, "excursions": 10}
    assert checks.check_sim(op, _sim_json([5, 3, 1], censored_s=1))[0] == []
    broken = json.loads(_sim_json([5, 3, 1], censored_s=1))
    broken["rows"][1][1] = 2
    broken["rows"][1][2] = 0.2
    assert "sim:conservation" in checks.check_sim(op, json.dumps(broken).encode())[0]


def test_workers_pair_with_different_bytes_fails(tmp_path):
    import run

    outputs = iter([_sim_json([5, 3, 1], censored_s=1), _sim_json([5, 2, 2], censored_s=1)])

    class FakeLauncher:
        def run(self, argv, timeout=0):
            return run.Child(0.1, 10.0, 0, next(outputs), "")

    op = {"argv": [], "command": "simulate", "walk": {"family": "constant", "p": 0.42},
          "pair": "0.0", "excursions": 10, "cap_height": 4}
    records = run.run_cli_workload("simulate", [[dict(op, workers=1), dict(op, workers=2)]],
                                   1.0, False, FakeLauncher(), tmp_path / "spans.jsonl")
    assert [r["failures"] for r in records] == [["sim:workers_bytes_differ"]] * 2


def test_self_time_subtracts_union_of_children():
    recs = [
        {"id": 0, "name": "a", "parent": None, "op": "x", "start": 0, "end": 100},
        {"id": 1, "name": "b", "parent": 0, "op": "x", "start": 10, "end": 50},
        {"id": 2, "name": "b", "parent": 0, "op": "x", "start": 30, "end": 60},
    ]
    s = spans.summarize(recs)
    assert s["a"]["self_s"] == pytest.approx(50e-9)
    # Overlapping siblings (pool threads) count once: 10..60, not 40 + 30.
    assert s["b"]["calls"] == 2 and s["b"]["total_s"] == pytest.approx(50e-9)


def test_tracer_wraps_and_restores(monkeypatch):
    import types

    mod = types.ModuleType("fake_mod")
    mod.f = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_mod", mod)
    original = mod.f
    t = spans.Tracer("op1")
    t.install([("fake_mod", "f", "layer.f", None), ("fake_mod", "gone", "layer.g", None)])
    assert mod.f(1) == 2 and t.absent == ["fake_mod.gone"]
    t.uninstall()
    assert mod.f is original
    assert [(r["name"], r["op"]) for r in t.spans] == [("layer.f", "op1")]


@pytest.mark.parametrize("workload", sorted(plan.PLANS))
def test_smoke_run_completes(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=400, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_benchmark_json_matches_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(plan.PLANS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_speed_correction_scales_times_not_memory():
    import run

    wall = {"setup_s": 2.0, "op_s.p50": 4.0, "items_per_s": 100.0, "peak_rss_mb": 50.0}
    assert run.end_to_end(wall, 0.5, 0.25) == {
        "setup_s": 1.0, "op_s.p50": 1.0, "items_per_s": 400.0, "peak_rss_mb": 50.0}

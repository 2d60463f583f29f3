import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lmax import ConstantWalk, PerturbedWalk, _native, cli, montecarlo
from lmax.cli import main
from lmax.series import DEFAULT_MAX_ENTRIES
from lmax.walk import spec_from_params

DIST_3 = ["dist", "--p", "0.5", "--n-max", "3"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _csv_rows(out):
    lines = out.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_dist_csv_small_table(capsys):
    code, out = _run(capsys, DIST_3)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["n", "pmf", "log_pmf", "cumulative"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    pmf = [float(r[1]) for r in rows]
    assert pmf == pytest.approx([0.5, 1 / 6, 1 / 12], rel=1e-14)
    assert float(rows[2][3]) == pytest.approx(0.75, rel=1e-14)


def test_dist_perturbed_first_bin(capsys):
    argv = ["dist", "--family", "perturbed", "--sign", "plus", "--K", "1", "--B", "2",
            "--n-max", "1"]
    code, out = _run(capsys, argv)
    assert code == 0
    _, rows = _csv_rows(out)
    # The drift is frozen below its admissibility point, so q_1 = 1/4.
    assert float(rows[0][1]) == 0.25


def test_dist_family_inferred_from_flags(capsys):
    code, out = _run(capsys, ["dist", "--sign", "minus", "--K", "1", "--B", "1", "--n-max", "2"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert float(rows[1][1]) == pytest.approx(1 / 4 - 1 / 9, rel=1e-12)


def test_csv_and_json_carry_identical_numbers(capsys):
    _, csv_out = _run(capsys, DIST_3)
    _, json_out = _run(capsys, DIST_3 + ["--format", "json"])
    _, csv_rows = _csv_rows(csv_out)
    doc = json.loads(json_out)
    assert doc["columns"] == ["n", "pmf", "log_pmf", "cumulative"]
    for csv_row, json_row in zip(csv_rows, doc["rows"]):
        assert int(csv_row[0]) == json_row[0]
        for cell, value in zip(csv_row[1:], json_row[1:]):
            assert float(cell) == value
            assert cell == repr(float(value))


def test_bad_probability_exits_two(capsys):
    code = main(["dist", "--p", "1.5", "--n-max", "5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_incomplete_perturbed_exits_two(capsys):
    code = main(["dist", "--family", "perturbed", "--sign", "plus", "--n-max", "5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "'k'" in err and "'b'" in err and "'sign'" not in err


def test_missing_walk_exits_two(capsys):
    code, _ = _run(capsys, ["classify"])
    assert code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_table_cap_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    code = main(["dist", "--p", "0.5", "--n-max", "200"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_classify_output(capsys):
    code, out = _run(capsys, ["classify", "--p", "0.5", "--n-max", "1000", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [["null-recurrent", "criterion", "apparently divergent"]]
    assert doc["meta"]["growth_exponent"] == pytest.approx(1.0, abs=0.05)


def test_hit_output(capsys):
    code, out = _run(capsys, ["hit", "--p", "0.5", "--a", "0", "--k", "3", "--b", "9"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert rows[0][:3] == ["0", "3", "9"]
    assert float(rows[0][3]) == pytest.approx(2 / 3, rel=1e-12)


def test_hit_bad_levels_exits_two(capsys):
    code, _ = _run(capsys, ["hit", "--p", "0.5", "--a", "3", "--k", "2", "--b", "9"])
    assert code == 2


def test_json_meta_reads_back_as_the_same_walk(capsys):
    # Command fields must not overwrite the walk's keys: hit's query once
    # replaced the walk's "k" and "b" with its own.
    walks = {"--p 0.45": ConstantWalk(0.45),
             "--sign minus --K 2 --B 2": PerturbedWalk(2, 2.0, "minus")}
    commands = ["dist --n-max 5", "classify --n-max 100", "asympt --n-hi 2000",
                "hit --a 0 --k 3 --b 500", "return --min-terms 100",
                "simulate --excursions 100 --seed 1 --cap-height 8",
                "compare --excursions 100 --seed 1 --cap-height 8"]
    for flags, spec in walks.items():
        for cmd in commands:
            code, out = _run(capsys, f"{cmd} {flags} --format json".split())
            assert code == 0, cmd
            meta = json.loads(out)["meta"]
            assert spec_from_params(meta) == spec, (cmd, flags)
            if cmd.startswith("hit"):
                assert (meta["hit_a"], meta["hit_k"], meta["hit_b"]) == (0, 3, 500)


def test_return_output(capsys):
    code, out = _run(capsys, ["return", "--p", str(2 / 3)])
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["value", "lower", "upper", "n_terms", "method", "tolerance_met"]
    assert float(rows[0][0]) == pytest.approx(0.5, abs=1e-9)
    assert rows[0][5] == "true"


def test_asympt_output(capsys):
    code, out = _run(capsys, ["asympt", "--p", "0.5", "--n-hi", "1000", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["branch"] == "constant rho=1"
    assert doc["meta"]["drift"] < 1e-12
    assert doc["columns"] == ["n", "exact", "shape", "c_hat"]
    for row in doc["rows"]:
        assert row[3] == pytest.approx(1.0, abs=1e-12)


def test_compare_output(capsys):
    argv = ["compare", "--p", "0.5", "--excursions", "20000", "--seed", "4",
            "--cap-steps", "100000", "--cap-height", "32", "--format", "json"]
    code, out = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["n_flagged"] == 0
    assert doc["meta"]["flagged_bins"] == []
    assert doc["meta"]["chi_square_dof"] >= 1
    assert 0.0 <= doc["meta"]["chi_square_pvalue"] <= 1.0


SIM_ARGS = ["simulate", "--p", "0.5", "--excursions", "2000", "--seed", "31",
            "--cap-steps", "500", "--cap-height", "16", "--format", "json"]


def test_simulate_rerun_from_meta_is_byte_identical(capsys):
    code, first = _run(capsys, SIM_ARGS)
    assert code == 0
    meta = json.loads(first)["meta"]
    argv = [
        "simulate",
        "--p", str(meta["p"]),
        "--excursions", str(meta["excursions"]),
        "--seed", str(meta["seed"]),
        "--cap-steps", str(meta["cap_steps"]),
        "--cap-height", str(meta["cap_height"]),
        "--format", "json",
    ]
    _, again = _run(capsys, argv)
    assert again == first


def test_simulate_workers_absent_from_output(capsys):
    _, first = _run(capsys, SIM_ARGS)
    _, again = _run(capsys, SIM_ARGS[:-2] + ["--workers", "4", "--format", "json"])
    assert again == first
    assert "workers" not in json.loads(first)["meta"]


def test_simulate_auto_seed_is_reported_and_reproducible(capsys):
    argv = ["simulate", "--p", "0.5", "--excursions", "500", "--cap-steps", "200",
            "--cap-height", "8", "--format", "json"]
    _, first = _run(capsys, argv)
    meta = json.loads(first)["meta"]
    assert 0 <= meta["seed"] < 2**64
    _, again = _run(capsys, argv + ["--seed", str(meta["seed"])])
    assert json.loads(again)["rows"] == json.loads(first)["rows"]


# SHA-256 of stdout, recorded from the implementation these pins guard.
# JSON meta carries the package version, so a version bump re-records them.
# The dist pins were re-recorded when ``cumulative`` became 1 - 1/S_n read
# off the prefix sums: n, pmf and log_pmf kept their bytes.  The compare pin
# was re-recorded when the package took over the chi-square p-value from
# scipy.special.chdtrc: only chi_square_pvalue moved, from 0.7876610150786842
# to 0.7876610150786841, the double nearest 0.78766101507868408843...
GOLDEN_STDOUT = [
    ('dist --p 0.4 --n-max 300',
     'ab5f062ebf80d667c72df645a3a2cda45348719192b549a222084e9333cad98f'),
    ('dist --p 0.4 --n-max 300 --format json',
     'e6e09982bc038fa82807bc10b1b35306ee7b378d71d63601d2a5958207563af9'),
    # k = 1: the iterated-log chain loop never runs.
    ('dist --sign plus --K 1 --B 2 --n-max 300',
     '9e77fc043ac8d3abb2e39f4b3199aa905993f8a43006bbd816ceeeaa8ab5292a'),
    ('dist --sign plus --K 1 --B 2 --n-max 300 --format json',
     '9af33270d8830183ff11307aaf321097f5e2ee88a78cc861b2b158444bc2a64f'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300',
     '12efcbb0cf641af0c98e9a928acd6bdf5982d7e7a6e7324fabbd40a12779d763'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300 --format json',
     '5e8f6f1aec4b38c1b1385db608af95cd144a234be6f6d9499a84ab448ae22ca9'),
    ('dist --sign minus --K 3 --B -1 --n-max 300',
     '9e5d63245f1e79c6df4f921092a49a698026656b2d136b7736db35567f0718a8'),
    ('dist --sign minus --K 3 --B -1 --n-max 300 --format json',
     '2e34b709606c9f33245697b7884a69f46ae06b6a3758832d6749252dd2e02f7e'),
    ('asympt --sign plus --K 1 --B 0.5 --n-hi 20000 --format json',
     '27bb6d7db664f65c92b3111fc2d711f27fa9550c34ec0602c7452c8dc8620a9f'),
    ('asympt --p 0.4 --target product --n-hi 20000',
     '925f19cf2e9236cdfe911865558331959eebf40c2afd82021cc575ef76ab79cc'),
    ('hit --sign minus --K 2 --B 2 --a 0 --k 3 --b 500',
     'b64e55894b01b8af52fac719e449f48045d68d550ad432404de2853a60c1ffc6'),
    # value, lower and upper moved from 0.6666666666666665 to 0.6666666666666667,
    # the double nearest (1 - p)/p (test_return_constant_walk_is_the_float_of_q_over_p).
    ('return --p 0.6 --format json',
     'c88ca14a2e3d7effb7c801b15557857be577d71c507661d4e8a5b0833044c7e4'),
    ('return --sign plus --K 1 --B 2',
     '3716202b174680111253400baf1ecd19ebf881113b2cc32d0d936fa1ea7fa54f'),
    ('simulate --p 0.5 --excursions 3000 --seed 5 --cap-steps 400 --cap-height 40 --format json',
     '9660b71dcd2a9714715a475c0a8ca30f0f842ed23c76bad6b443353bb778c194'),
    ('simulate --sign minus --K 2 --B 1 --excursions 3000 --seed 9 --cap-steps 400 --cap-height 30',
     'ff2f2d780abfd37783d0aff41d72ea57b4ae39aa595222a0bb5099a038f70055'),
    ('compare --p 0.45 --excursions 20000 --seed 3 --cap-height 32 --format json',
     '6a3bbd3fb50ac00f7c44d77ddcc145db229893cb077224fe2b8f31a4c6af7089'),
    # One row past, and exactly on, the emitter's chunk seams (65536 rows).
    ('dist --p 0.4 --n-max 65537',
     'fa2cc2dacde4af3b9acc51c2b04b491e51b03ba11004c25d79340252e17c7267'),
    ('dist --p 0.4 --n-max 65537 --format json',
     '610f40951e6c997df59436e503f0de611c35832540390ce455cd055acd065550'),
    ('dist --sign minus --K 2 --B 1 --n-max 131072',
     '60dc0f004a744ed17d591335664a0049e1d1c254633c69883037965ab84a8787'),
    ('dist --sign minus --K 2 --B 1 --n-max 131072 --format json',
     'd706ab97f559b8c2e2ea5192f21597d8dbe02cd5174d621e57eecbdc6268d8de'),
]


@pytest.mark.parametrize("cmd,digest", GOLDEN_STDOUT)
def test_stdout_bytes_pinned(capsys, cmd, digest):
    code, out = _run(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("cmd,digest", GOLDEN_STDOUT)
def test_stdout_bytes_pinned_on_python_path(capsys, monkeypatch, cmd, digest):
    # Every native kernel forced off: _cells renders, _drive_py simulates.
    info = montecarlo.KernelInfo("python", "forced")
    monkeypatch.setattr(_native, "_kernel", lambda: (None, info))
    code, out = _run(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _fmt_oracle(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit_oracle(fmt, meta, columns, rows) -> str:
    """The row-list rendering the columnar emitter replaced, kept as its reference."""
    if fmt == "json":
        doc = {"meta": meta, "columns": columns, "rows": rows}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()  # the csv module quotes cells holding a comma, a quote or LF
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_oracle(v) for v in row] for row in rows)
    return buf.getvalue()


SPECIAL = np.array([0.0, float("inf"), -0.0, float("-inf"), float("nan"), 1e-310, 0.1, -2.5e300])
EMIT_CASES = {
    "floats": {"n": range(1, 9), "x": SPECIAL, "y": SPECIAL[::-1].tolist()},
    "return-shape": {"value": [0.5], "lower": [float("-inf")], "upper": [float("nan")],
                     "n_terms": [100000], "method": ["shape-tail"], "tolerance_met": [False]},
    "mixed": {"n": np.arange(5, dtype=np.int64), "ok": [True, False, True, True, False],
              "label": ["a", "b,\"c\"", "\u00e9", "", "inf"], "x": SPECIAL[:5]},
    "one-row": {"n": range(7, 8), "p": np.array([float("inf")])},
    "empty": {"n": range(1, 1), "p": np.empty(0), "q": []},
}


@pytest.mark.parametrize("chunk", [1, 2, 3, 65_536])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_emitter_matches_row_oracle(capsys, monkeypatch, case, fmt, chunk):
    columns = EMIT_CASES[case]
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    meta = {"command": "test", "z": float("nan"), "a": [1, 2]}
    assert cli._emit(fmt, meta, columns) == 0
    out = capsys.readouterr().out
    names = list(columns)
    values = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns.values()]
    rows = [list(row) for row in zip(*values)]
    assert out == _emit_oracle(fmt, meta, names, rows)


def test_csv_string_cells_read_back_through_the_csv_module(capsys):
    # CR is quoted too: a CSV reader ends an unquoted row there.
    labels = ["plain", "a,b", 'say "x"', "line\nbreak", "carriage\rreturn", "crlf\r\n", ""]
    assert cli._emit("csv", {}, {"label": labels, "n": range(len(labels))}) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows == [["label", "n"], *([s, str(i)] for i, s in enumerate(labels))]


def _dist_peak_per_row(monkeypatch, fmt, n, chunk):
    """Traced peak bytes per row of a dist call with stdout discarded."""
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["dist", "--p", "0.5", "--n-max", str(n), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak / n


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dist_memory_per_row_is_bounded(monkeypatch, fmt):
    # 5e4 rows in chunks of 4096 keep the table-to-chunk ratio of the
    # default 65536-row chunks at 8e5 rows.  Traced peak: 58 B/row (CSV)
    # and 62 B/row (JSON) streamed, 321 and 441 B/row in one chunk.
    n = 50_000
    assert _dist_peak_per_row(monkeypatch, fmt, n, chunk=4096) < 200
    # Control: with every row in one chunk the bound must fail.
    assert _dist_peak_per_row(monkeypatch, fmt, n, chunk=n) > 200


def test_return_warning_is_one_stderr_line():
    cmd = "return --sign plus --K 1 --B 2"
    argv = [sys.executable, "-m", "lmax", *cmd.split()]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == dict(GOLDEN_STDOUT)[cmd]
    (line,) = out.stderr.splitlines()
    assert line.startswith("warning: ") and "--min-terms" in line
    assert ".py:" not in out.stderr


@pytest.mark.parametrize("flags, env", [
    (["-W", "error"], {}),
    (["-W", "ignore"], {}),
    ([], {"PYTHONWARNINGS": "error"}),
], ids=["W-error", "W-ignore", "PYTHONWARNINGS-error"])
def test_return_warning_ignores_interpreter_filters(flags, env):
    # The interpreter's warning filters change neither the exit code nor
    # the one stderr line; an "error" filter must not become a traceback.
    cmd = "return --sign plus --K 1 --B 2"
    argv = [sys.executable, *flags, "-m", "lmax", *cmd.split()]
    out = subprocess.run(argv, env={**os.environ, **env}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == dict(GOLDEN_STDOUT)[cmd]
    (line,) = out.stderr.splitlines()
    assert line.startswith("warning: ") and "--min-terms" in line


def test_bad_table_budget_env_exits_two(capsys, monkeypatch):
    # A budget below 1 is a bad setting (exit 2), not a table too big (exit 1).
    for value in ("abc", "-5"):
        monkeypatch.setenv("LMAX_MAX_TABLE", value)
        code = main(["dist", "--p", "0.5", "--n-max", "10"])
        assert code == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "LMAX_MAX_TABLE" in err


@pytest.mark.parametrize("depth", [0, DEFAULT_MAX_ENTRIES + 1])
@pytest.mark.parametrize("cmd,flag", [
    ("dist", "--n-max"), ("classify", "--n-max"), ("return", "--min-terms"), ("asympt", "--n-hi"),
])
def test_table_depth_error_names_the_flag(capsys, monkeypatch, cmd, flag, depth):
    # Below 1 is a bad argument (2); past the budget, a resource limit (1).
    monkeypatch.delenv("LMAX_MAX_TABLE", raising=False)
    code = main([cmd, "--p", "0.4", flag, str(depth)])
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if depth < 1:
        assert (code, err) == (2, f"error: {flag} must be >= 1, got 0\n")
    else:
        assert code == 1
        assert err.startswith(f"error: {flag}={depth} exceeds the table budget of {DEFAULT_MAX_ENTRIES}")


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_return_bad_tolerance_exits_two(capsys, monkeypatch, tolerance):
    # Checked before the table is built: a budget of 100 would exit 1.
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    code = main(["return", "--p", "0.6", "--tolerance", tolerance])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: --tolerance must be >= 0") and err.count("\n") == 1


def test_return_min_terms_below_shape_threshold_exits_two(capsys):
    argv = ["return", "--sign", "plus", "--K", "3", "--B", "2", "--min-terms", "3"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: --min-terms must be >= 4, got 3\n"
    code, out = _run(capsys, argv[:-1] + ["4"])
    assert code == 0 and _csv_rows(out)[1][0][3] == "4"


def test_asympt_untabulable_threshold_exits_two():
    argv = [sys.executable, "-m", "lmax", "asympt", "--sign", "plus", "--K", "5", "--B", "1",
            "--n-hi", "1000"]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("argv, err", [
    (["--p", "0.4", "--n-hi", "1000", "--n-lo", "5000"],
     "error: --n-lo must be >= 1 and below --n-hi 1000, got 5000\n"),
    (["--sign", "plus", "--K", "2", "--B", "1", "--n-hi", "6"],
     "error: --n-hi must be >= 8 on this walk, got 6\n"),
], ids=["n-lo-above-n-hi", "n-hi-below-twice-threshold"])
def test_asympt_bad_fit_range_names_the_flag(capsys, argv, err):
    code = main(["asympt", *argv])
    assert (code, capsys.readouterr()) == (2, ("", err))


def test_hit_past_the_budget_names_b(capsys, monkeypatch):
    monkeypatch.delenv("LMAX_MAX_TABLE", raising=False)
    code = main(["hit", "--p", "0.5", "--a", "0", "--k", "3", "--b", "30000000"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --b 30000000: table depth=29999999 exceeds the table budget "
                          f"of {DEFAULT_MAX_ENTRIES} entries")
    assert err.count("\n") == 1


def test_return_constant_walk_is_the_float_of_q_over_p(capsys):
    # The geometric remainder is exact, so value, lower and upper are all
    # the double nearest (1 - p)/p, however few terms the table holds.
    for p in (0.6, 2 / 3, 0.8, 0.5000001, 0.999):
        oracle = float((1 - Fraction(p)) / Fraction(p))
        code, out = _run(capsys, ["return", "--p", repr(p), "--min-terms", "10"])
        header, (row,) = _csv_rows(out)
        assert code == 0 and row[:3] == [repr(oracle)] * 3, p
        assert row[4:] == ["geometric-tail", "true"]
    assert capsys.readouterr().err == ""
    code, out = _run(capsys, ["return", "--p", "0.6", "--format", "json"])
    assert json.loads(out)["rows"] == [[0.6666666666666667] * 3 + [100000, "geometric-tail", True]]


def test_asympt_nonpositive_samples_exits_two(capsys):
    code = main(["asympt", "--p", "0.4", "--n-hi", "1000", "--samples", "-1"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


def test_simulate_cap_height_over_budget_exits_one(capsys):
    argv = ["simulate", "--p", "0.5", "--excursions", "10", "--seed", "1",
            "--cap-height", "100000000000"]
    code = main(argv)
    assert code == 1
    assert "table budget" in capsys.readouterr().err


def test_simulate_huge_excursion_count_exits_one(capsys):
    argv = ["simulate", "--p", "0.5", "--excursions", "100000000000000000", "--seed", "1"]
    t0 = time.perf_counter()
    code = main(argv)
    assert code == 1
    assert "excursion blocks" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 5.0


def test_compare_checks_config_before_table_budget(capsys):
    # excursions=0 is a bad argument (2), found before the 3e7-entry table
    # would exceed the budget (1).
    argv = ["compare", "--p", "0.5", "--excursions", "0", "--cap-height", "30000000"]
    code = main(argv)
    assert code == 2
    assert "excursions" in capsys.readouterr().err


def test_python_kernel_keeps_simulator_pins(tmp_path):
    # gcc off PATH and an empty cache: the simulator falls back to the Python kernel.
    pins = [(c, d) for c, d in GOLDEN_STDOUT if c.split()[0] in ("simulate", "compare")]
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "from lmax.cli import main\n"
        "from lmax.montecarlo import kernel_info\n"
        "digests = []\n"
        "for cmd in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert main(cmd.split()) == 0\n"
        "    digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())\n"
        "print(json.dumps([kernel_info().name, digests]))\n"
    )
    env = {**os.environ, "PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    argv = [sys.executable, "-c", code, json.dumps([c for c, _ in pins])]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    kernel, digests = json.loads(out.stdout)
    assert kernel == "python"
    assert len(pins) == 3 and digests == [d for _, d in pins]


def test_import_leaves_heavy_modules_unloaded():
    # subprocess is only needed to build the native library, never to load
    # it, so the library is built here first (the child shares the cache);
    # hashlib would load OpenSSL, which no table command needs, and
    # concurrent.futures, with the logging it imports, only a simulator run.
    _native.kernel_info()
    code = (
        "import sys, lmax\n"
        "heavy = lambda: sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "                       ('numba', 'scipy', 'subprocess', 'hashlib', 'concurrent', 'logging'))\n"
        "after_import = heavy()\n"
        "from lmax.cli import main\n"
        "main(['dist', '--p', '0.5', '--n-max', '10', '--format', 'json'])\n"
        "print(after_import, heavy(), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() == "[] []"


def test_simulator_commands_leave_scipy_and_openssl_unloaded():
    # The p-value is computed in the package, the kernel's cache file is
    # named with zlib, and the C kernel draws its own Philox stream, so
    # neither loading the kernel (which info does) nor simulate and compare
    # need scipy, numpy.random or hashlib, with the OpenSSL that _hashlib
    # loads.  The library is built here first, so the child runs on C.
    assert _native.kernel_info().name == "c"
    code = (
        "import sys\n"
        "from lmax.cli import main\n"
        "from lmax.montecarlo import kernel_info\n"
        "heavy = ('scipy', 'hashlib', '_hashlib')\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in heavy or m.startswith('numpy.random'))\n"
        "assert main(['info']) == 0\n"
        "after_info = loaded()\n"
        "assert main(['compare', '--p', '0.45', '--excursions', '2000', '--seed', '3',\n"
        "             '--cap-height', '16']) == 0\n"
        "assert main(['simulate', '--p', '0.5', '--excursions', '500', '--seed', '1',\n"
        "             '--cap-height', '8', '--workers', '2']) == 0\n"
        "print(kernel_info().name, after_info, loaded(), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.strip() == "c [] []"


def test_info_reports_kernel_versions_and_budget(capsys, monkeypatch):
    monkeypatch.delenv("LMAX_MAX_TABLE", raising=False)
    code, out = _run(capsys, ["info", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"command": "info", "version": cli.__version__}
    row = dict(zip(doc["columns"], doc["rows"][0]))
    kernel = montecarlo.kernel_info()
    assert (row["kernel"], row["kernel_reason"]) == (kernel.name, kernel.reason or "")
    assert row["python"] == ".".join(map(str, sys.version_info[:3]))
    assert row["numpy"] == np.__version__
    assert (row["table_budget"], row["table_budget_source"]) == (20_000_000, "default")
    monkeypatch.setenv("LMAX_MAX_TABLE", "12345")
    code, out = _run(capsys, ["info"])
    assert code == 0
    header, (row,) = _csv_rows(out)
    assert dict(zip(header, row))["table_budget"] == "12345"
    assert dict(zip(header, row))["table_budget_source"] == "LMAX_MAX_TABLE"


def test_info_quotes_a_multiline_fallback_reason_in_csv(capsys, monkeypatch):
    reason = '_BuildError: gcc exited 1: drive.c:1:1: error: expected "=", ",", \nbefore'
    info = montecarlo.KernelInfo("python", reason)
    monkeypatch.setattr(_native, "_kernel", lambda: (None, info))
    code, out = _run(capsys, ["info"])
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["kernel_reason"] == reason


def test_info_bad_table_budget_env_exits_two():
    for value in ("2e7", "0", "-5"):
        env = {**os.environ, "LMAX_MAX_TABLE": value}
        argv = [sys.executable, "-m", "lmax", "info"]
        out = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert out.returncode == 2, value
        assert out.stdout == ""
        assert out.stderr.startswith("error:") and "LMAX_MAX_TABLE" in out.stderr
        assert out.stderr.count("\n") == 1


def test_every_module_is_reachable():
    # A module that neither the package nor the CLI imports is dead code.
    code = (
        "import pathlib, sys, lmax, lmax.cli\n"
        "names = sorted(p.stem for p in pathlib.Path(lmax.__file__).parent.glob('*.py'))\n"
        "print([n for n in names if n not in ('__init__', '__main__')\n"
        "       and f'lmax.{n}' not in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_closed_stdout_pipe_exits_quietly():
    argv = [sys.executable, "-m", "lmax", "dist", "--p", "0.5", "--n-max", "200000"]
    # The with block closes stderr and waits, so no pipe is left open.
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline() == b"n,pmf,log_pmf,cumulative\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
    assert err == b""


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "lmax", "dist", "--p", "0.5", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[1].startswith("1,0.5,")


def test_console_script_installed():
    exe = shutil.which("lmax")
    assert exe is not None
    out = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("lmax ")

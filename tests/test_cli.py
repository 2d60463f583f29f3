import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from lmax import (ConstantWalk, PerturbedWalk, __version__, _native, build, cli, excursion,
                  max_pmf_table, montecarlo)
from lmax.cli import main
from lmax.series import BLOCK, DEFAULT_MAX_ENTRIES
from lmax.walk import spec_from_params, spec_params

from _oracles import geometric_pmf

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


@pytest.mark.parametrize("argv, flags", [
    (["--p", "0.3", "--K", "1"], "--K"),
    (["--family", "perturbed", "--p", "0.3", "--sign", "plus", "--K", "1", "--B", "2"], "--p"),
    (["--family", "constant", "--p", "0.3", "--sign", "plus", "--B", "2"], "--sign, --B"),
], ids=["constant-with-K", "perturbed-with-p", "constant-with-sign-and-B"])
def test_flag_of_the_other_family_exits_two(capsys, argv, flags):
    code = main(["dist", *argv, "--n-max", "2"])
    family = "perturbed" if "perturbed" in argv else "constant"
    assert (code, capsys.readouterr()) == (2, ("", f"error: a {family} walk takes no {flags}\n"))


def test_missing_walk_exits_two(capsys):
    code, _ = _run(capsys, ["classify"])
    assert code == 2


def test_no_subcommand_is_usage_error(capsys):
    # A parse error is one error: line and exit 2, like every other bad argument.
    code = main([])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: the following arguments are required: command\n"))


@pytest.mark.parametrize("argv", [
    ["dist", "--p", "0.5"],
    ["dist", "--p", "0.5", "--n-max", "2", "--bogus"],
    ["dist", "--p", "x", "--n-max", "2"],
    ["nope"],
    ["asympt", "--p", "0.4", "--n", "5"],
], ids=["missing-flag", "unknown-flag", "bad-float", "unknown-command", "ambiguous-flag"])
def test_parse_error_is_one_error_line(capsys, argv):
    # No usage block: argparse's would print several lines before its own "lmax dist: error:".
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-2.5e+0", "-.001", "-1"])
def test_negative_exponent_values_parse(capsys, value):
    split = _run(capsys, ["dist", "--sign", "minus", "--K", "1", "--B", value, "--n-max", "2"])
    joined = _run(capsys, ["dist", "--sign", "minus", "--K", "1", f"--B={value}", "--n-max", "2"])
    assert split == joined and split[0] == 0


def test_negative_infinity_is_a_value(capsys):
    code = main(["dist", "--sign", "minus", "--K", "1", "--B", "-inf", "--n-max", "2"])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: perturbation coefficient b must be finite, got -inf\n"))


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_table_cap_exits_one(capsys, monkeypatch):
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    code = main(["dist", "--p", "0.5", "--n-max", "200"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_memory_exhaustion_exits_one(capsys, monkeypatch):
    # Below the table budget, memory can still run out; that is the same
    # resource limit: exit 1 with one line, not a traceback.  No real
    # allocation: the table's first block is patched to fail as numpy does,
    # once the output has begun to be drawn, and stdout stays empty.
    def max_pmf_blocks(spec, n_max):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)")
        yield

    monkeypatch.setattr(excursion, "max_pmf_blocks", max_pmf_blocks)
    code = main(["dist", "--p", "0.4", "--n-max", "10"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: out of memory: Unable to allocate 74.5 GiB for an array "
                                "with shape (10000000001,)"]
    assert "Traceback" not in err


@pytest.mark.parametrize("p", [1e-300, 1e-14, 1 - 2**-53])
def test_dist_constant_walk_at_extreme_p(capsys, p):
    # Forming p - 1/2 loses p's digits at these p (NaN rows at 1e-300).
    # Against the 50-digit geometric law, every row is finite and within
    # 2 ulp, log_pmf[1] = log(1 - p) included.
    n_max = 40
    code = main(["dist", "--p", repr(p), "--n-max", str(n_max)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    header, rows = _csv_rows(out)
    assert header == ["n", "pmf", "log_pmf", "cumulative"] and len(rows) == n_max
    with mpmath.workdps(50):
        rho = (1 - mpmath.mpf(p)) / mpmath.mpf(p)
        for n, pmf, log_pmf, cumulative in ((int(r[0]), *map(float, r[1:])) for r in rows):
            assert math.isfinite(log_pmf)
            want = mpmath.log1p(-mpmath.mpf(p)) if n == 1 else mpmath.log(geometric_pmf(p, n))
            assert abs(log_pmf - want) <= 2 * math.ulp(abs(float(want))), n
            assert abs(pmf - mpmath.exp(want)) <= 2 * math.ulp(float(mpmath.exp(want))) or n > 1
            mass = 1 - (rho - 1) / (rho ** (n + 1) - 1)  # 1 - 1/S_n
            assert abs(cumulative - mass) <= 2 * math.ulp(float(mass)), n


def test_classify_output(capsys):
    code, out = _run(capsys, ["classify", "--p", "0.5", "--n-max", "1000", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [["null-recurrent", "criterion", "apparently divergent"]]
    assert doc["meta"]["growth_exponent"] == pytest.approx(1.0, abs=0.05)


def test_classify_needs_two_terms_for_its_diagnostic(capsys):
    # n_max = 1 leaves the diagnostic's last half empty; 2 is the least depth.
    assert main(["classify", "--p", "0.5", "--n-max", "1"]) == 2
    assert capsys.readouterr() == ("", "error: --n-max must be >= 2, got 1\n")
    code, out = _run(capsys, ["classify", "--p", "0.5", "--n-max", "2"])
    assert (code, _csv_rows(out)[1]) == (0, [["null-recurrent", "criterion", "apparently divergent"]])


def test_hit_output(capsys):
    code, out = _run(capsys, ["hit", "--p", "0.5", "--a", "0", "--k", "3", "--b", "9"])
    assert code == 0
    _, rows = _csv_rows(out)
    assert rows[0][:3] == ["0", "3", "9"]
    assert float(rows[0][3]) == pytest.approx(2 / 3, rel=1e-12)


def test_hit_bad_levels_exits_two(capsys):
    # a == b leaves no site between the levels: the ratio of sums is 0/1.
    for a, k, b in [("3", "2", "9"), ("3", "3", "3")]:
        code = main(["hit", "--p", "0.5", "--a", a, "--k", k, "--b", b])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


def test_compare_without_an_eligible_bin_prints_a_null_pvalue(capsys):
    argv = ["compare", "--p", "0.5", "--excursions", "50", "--seed", "3", "--cap-height", "8",
            "--format", "json"]
    code, out = _run(capsys, argv)
    meta = json.loads(out)["meta"]
    assert code == 0
    assert (meta["chi_square"], meta["chi_square_dof"], meta["chi_square_pvalue"]) == (0.0, 0, None)


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
# Every pin that prints a perturbed walk's table or reads one re-pinned
# when series.build took the compensated block scan, and every one that
# prints or reads a constant walk's table (dist --p 0.4, asympt --p 0.4,
# the exact column of compare --p 0.45) when it took the gambler's-ruin
# closed form: only the columns test_repins.py names moved, each toward
# its 40- or 50-digit oracle, in worst and in mean ulp error.
# The dist pins were re-recorded when ``cumulative`` became 1 - 1/S_n read
# off the prefix sums: n, pmf and log_pmf kept their bytes.  The compare pin
# was re-recorded when the package took over the chi-square p-value from
# scipy.special.chdtrc: only chi_square_pvalue moved, from 0.7876610150786842
# to 0.7876610150786841, the double nearest 0.78766101507868408843...
GOLDEN_STDOUT = [
    ('dist --p 0.4 --n-max 300',
     'aa8e2f3628937acde0e58d971ed5cee9e3918885c88e9600d9e3ea5752e27fe1'),
    ('dist --p 0.4 --n-max 300 --format json',
     'fa8fa6d923caba778114bd9ee2355703ebd7625410abd3dea5d831cd363c1458'),
    # k = 1: the iterated-log chain loop never runs.
    ('dist --sign plus --K 1 --B 2 --n-max 300',
     '87e4ef6400bb7439e04515b891c390305b3867c5f24402c55c239839ba6bafe3'),
    ('dist --sign plus --K 1 --B 2 --n-max 300 --format json',
     'b8655a3f81939b2dd19853e5a762fde41db344ae1e89bcaefc95c3c6b36445a6'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300',
     '9dff41a2d2572b91af75507fe97fc0a56489127a4bb1c3199d672bd49347acce'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300 --format json',
     '8db7c214852fe3678c4c69a76f2ff0f6b0ed48a5eb8ef70913ac4299276b9943'),
    ('dist --sign minus --K 3 --B -1 --n-max 300',
     '91517c86dfa2b4dfa613326d1a0411a137afb68d34275a56c9fa6af6df739f2d'),
    ('dist --sign minus --K 3 --B -1 --n-max 300 --format json',
     '1d509f403fce92ddbe09b74ca21c3b4aebfb5e9e8ef6017a1bac88eb89cbf844'),
    ('asympt --sign plus --K 1 --B 0.5 --n-hi 20000 --format json',
     '9fd30c408d1fc6bb1a3bc5bbb169930b1a99f8cc703190d0d889e0896dca4c5d'),
    ('asympt --p 0.4 --target product --n-hi 20000',
     'c9b0467ace4bf2216751c8379f2d759a3a86026e971f59831c1697d47ecb85d7'),
    # probability moved from 0.9999995237606495 to 0.9999995237606508 when
    # hit_before came to sum the products shifted by the window's largest:
    # 0.15 ulp from the 50-digit 0.99999952376065080472..., down from 11.85
    # (test_repins.py, test_hit_before_matches_mpmath_sum_at_depth).
    ('hit --sign minus --K 2 --B 2 --a 0 --k 3 --b 500',
     'fa81bf2f78b67054dc2d916b0f8926578d6f7e22d75f24f31e245c00e415565e'),
    # value, lower and upper moved from 0.6666666666666665 to 0.6666666666666667,
    # the double nearest (1 - p)/p (test_return_constant_walk_is_the_float_of_q_over_p).
    ('return --p 0.6 --format json',
     'c88ca14a2e3d7effb7c801b15557857be577d71c507661d4e8a5b0833044c7e4'),
    # Re-pinned when return_prob took the closed-form integral bound: value
    # moved from 0.3999988000071999 to 0.4, 0.33 ulp from the 50-digit
    # 0.40000000000000000404..., and [lower, upper] now holds it
    # (test_repins.py, test_return_prob_contains_depth_one_oracle).  Re-pinned
    # again when each end came to round outward past every rounding: lower
    # 0.39999999997600016 -> 0.3999999999759999, upper 0.4000000000239999 ->
    # 0.40000000002400016, value unchanged.  Re-pinned when each end came to
    # be one 40-digit evaluation stepped once outward: lower and upper moved
    # back to 0.39999999997600016 and 0.4000000000239999, toward the oracle
    # and still holding it; value unchanged.
    ('return --sign plus --K 1 --B 2',
     '80f0bcd1a6caa3ec0153c4a8c8c0a80f931191ba5a710c942af6be03b0f06b11'),
    ('simulate --p 0.5 --excursions 3000 --seed 5 --cap-steps 400 --cap-height 40 --format json',
     '9660b71dcd2a9714715a475c0a8ca30f0f842ed23c76bad6b443353bb778c194'),
    ('simulate --sign minus --K 2 --B 1 --excursions 3000 --seed 9 --cap-steps 400 --cap-height 30',
     'ff2f2d780abfd37783d0aff41d72ea57b4ae39aa595222a0bb5099a038f70055'),
    ('compare --p 0.45 --excursions 20000 --seed 3 --cap-height 32 --format json',
     '7b9cf157eeb5b8e7809812c313f3ca51b98ce1829b9d38c54d805409c8c99b0e'),
    # One row past, and exactly on, the emitter's chunk seams (65536 rows).
    ('dist --p 0.4 --n-max 65537',
     '4bc925d10a3750fa8b2e77b6b4a8ce3c40a12afdc4209874c9b01849155f8370'),
    ('dist --p 0.4 --n-max 65537 --format json',
     '2c068a47c6da5f484037d89847dfa5db432ba115cf2ec1cad79d52edb6d14908'),
    ('dist --sign minus --K 2 --B 1 --n-max 131072',
     '513598cb20ced7d58bc3c84d5bc603149e91c065ab1ec3292d427908bcb20599'),
    ('dist --sign minus --K 2 --B 1 --n-max 131072 --format json',
     'bac5b4b2b7bfba4fba497bfb6e58e1aac8e64238a74c87e75a24f49c7a213dbd'),
]


@pytest.mark.parametrize("cmd,digest", GOLDEN_STDOUT)
def test_stdout_bytes_pinned(capsys, cmd, digest):
    code, out = _run(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("cmd,digest", GOLDEN_STDOUT)
def test_stdout_bytes_pinned_on_python_path(capsys, monkeypatch, cmd, digest):
    # Every native kernel forced off: _cells renders, _block_py simulates.
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
                     "n_terms": [100000], "method": ["integral-bound"], "tolerance_met": [False]},
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


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("walk", ["--p 0.4", "--sign plus --K 2 --B 1.5"])
def test_streamed_dist_writes_the_whole_table_bytes(capsysbinary, monkeypatch, walk, fmt, kernel):
    # dist's rows, computed block by block, against max_pmf_table's whole
    # arrays emitted as dict columns, at depths around the block seams.
    if kernel == "python":
        monkeypatch.setattr(_native, "_kernel", lambda: (None, montecarlo.KernelInfo("python", "forced")))
    elif _native._kernel()[0] is None:
        pytest.fail(f"the native library did not load: {_native.kernel_info().reason}")
    for n in (1, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
        argv = ["dist", *walk.split(), "--n-max", str(n), "--format", fmt]
        assert main(argv) == 0
        streamed = capsysbinary.readouterr().out
        spec = cli._walk_from_args(cli.build_parser().parse_args(argv))
        table = max_pmf_table(build(spec, n), n)
        meta = {**spec_params(spec), "command": "dist", "version": __version__, "n_max": n}
        columns = {"n": range(1, n + 1), "pmf": table.pmf[1:], "log_pmf": table.log_pmf[1:],
                   "cumulative": table.cumulative[1:]}
        assert cli._emit(fmt, meta, columns) == 0
        assert streamed == capsysbinary.readouterr().out, n


def test_csv_string_cells_read_back_through_the_csv_module(capsys):
    # CR is quoted too: a CSV reader ends an unquoted row there.
    labels = ["plain", "a,b", 'say "x"', "line\nbreak", "carriage\rreturn", "crlf\r\n", ""]
    assert cli._emit("csv", {}, {"label": labels, "n": range(len(labels))}) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows == [["label", "n"], *([s, str(i)] for i, s in enumerate(labels))]


def _dist_peak(monkeypatch, fmt, n):
    """Traced peak bytes of a dist call with stdout discarded."""
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["dist", "--p", "0.5", "--n-max", str(n), "--format", fmt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dist_memory_per_row_is_bounded(monkeypatch, fmt):
    # dist holds a few blocks of the table and one block's text whatever
    # --n-max: traced peaks of 2.0-2.2 MB (CSV) and 2.7 MB (JSON) at both
    # 5e4 and 8e5 rows, where the whole table's law alone is 19 MB.
    small, large = (_dist_peak(monkeypatch, fmt, n) for n in (50_000, 800_000))
    assert small / 50_000 < 200
    assert large < 1.25 * small, (small, large)
    # Control: tracemalloc sees numpy's arrays, so a table-length one would show.
    tracemalloc.start()
    try:
        table = build(ConstantWalk(0.5), 800_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak > table.log_prod.nbytes + table.log_prefix_sum.nbytes > 1.25 * small


def _limit_address_space(limit):
    import resource

    return lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux only")
def test_dist_streams_in_bounded_address_space():
    # 3e6 rows under a 250 MB address space.  The interpreter and numpy take
    # most of it; a whole table and its law (five arrays of 24 MB) do not fit.
    argv = [sys.executable, "-m", "lmax", "dist", "--p", "0.4", "--n-max", "3000000"]
    tail, size = b"", 0
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          preexec_fn=_limit_address_space(250 << 20)) as proc:
        while chunk := proc.stdout.read(1 << 20):  # the 120 MB of text are never held
            tail, size = (tail + chunk)[-200:], size + len(chunk)
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")
    assert tail.endswith(b"\n2999999,0.0,-1216396.710618854,1.0\n"
                         b"3000000,0.0,-1216397.1160839621,1.0\n"), tail
    assert size > 3_000_000 * 30


# The one-row commands at the 2e7 budget, their last lines, and the call one
# entry past it.  Each reads at most a few blocks' worth of entries.
ONE_ROW_CALLS = {
    "return --p 0.6 --min-terms 20000000":
        "0.6666666666666667,0.6666666666666667,0.6666666666666667,20000000,geometric-tail,true",
    "classify --p 0.4 --n-max 20000000": "positive-recurrent,criterion,apparently divergent",
    "asympt --p 0.4 --n-hi 20000000": "20000000,0.0,0.0,1.0",
    "hit --p 0.6 --a 19999000 --k 19999010 --b 19999500":
        "19999000,19999010,19999500,0.017341529915832633",
    "return --sign plus --K 2 --B 1.5 --min-terms 20000000":
        "0.155988089190908,0.155988088919917,0.15598808946189902,20000000,integral-bound,true",
    "classify --sign plus --K 2 --B 1.5 --n-max 20000000":
        "transient,criterion,apparently divergent",
    "asympt --sign plus --K 2 --B 1.5 --n-hi 20000000":
        "20000000,1.5154414660983974e-11,7.253878419937576e-10,0.020891464929066718",
    "hit --sign plus --K 2 --B 1.5 --a 19999000 --k 19999010 --b 19999500":
        "19999000,19999010,19999500,0.9799997331273373",
}


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux only")
@pytest.mark.parametrize("cmd", ONE_ROW_CALLS,
                         ids=lambda cmd: cmd.split()[0] + (" --p" if "--p" in cmd else " --sign plus"))
def test_one_row_commands_hold_no_table(monkeypatch, cmd):
    # A depth at the 2e7 budget runs in a 250 MB address space that its two
    # tables (320 MB) would not fit: a constant walk computes the blocks that
    # hold the entries read, a perturbed walk streams its blocks to the last
    # one.  One entry past the budget still exits 1.
    monkeypatch.delenv("LMAX_MAX_TABLE", raising=False)
    limit = _limit_address_space(250 << 20)
    out = subprocess.run([sys.executable, "-m", "lmax", *cmd.split()], capture_output=True,
                         preexec_fn=limit)
    assert (out.returncode, out.stderr) == (0, b"")
    assert out.stdout.decode().splitlines()[-1] == ONE_ROW_CALLS[cmd]
    past = cmd.replace("20000000", "20000001").replace("--b 19999500", "--b 20000002")
    out = subprocess.run([sys.executable, "-m", "lmax", *past.split()], capture_output=True,
                         preexec_fn=limit)
    assert (out.returncode, out.stdout) == (1, b"")
    assert b"exceeds the table budget of 20000000 entries" in out.stderr


# Calls that compute no table, and the numpy they load: none.
NUMPY_FREE_CALLS = [
    "--version",
    "--help",
    "dist --help",
    "hit --help",
    "dist --p 0.5",                                  # argparse: --n-max missing
    "dist --p 0.5 --n-max ten",                      # argparse: not an int
    "dist --n-max 3",                                # no walk
    "dist --p 1.5 --n-max 3",                        # p outside (0, 1)
    "dist --p 0.5 --K 2 --n-max 3",                  # a flag of the other family
    "dist --family perturbed --K 2 --B 1 --n-max 3",  # no --sign
    "dist --sign plus --K 0 --B 1 --n-max 3",        # k < 1
    "dist --sign plus --K 2 --B inf --n-max 3",      # b not finite
    "dist --p 0.5 --n-max 0",                        # depth below 1
    "hit --p 0.5 --a 3 --k 1 --b 5",                 # levels out of order
    "hit --p 0.6 --a 19999000 --k 19999010 --b 19999500",
    "hit --p 0.5 --a 0 --k 0 --b 5",
]


def test_calls_that_compute_no_table_load_no_numpy():
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr))\n"
        "from lmax.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    for cmd in NUMPY_FREE_CALLS:
        out = subprocess.run([sys.executable, "-c", code, *cmd.split()], capture_output=True,
                             text=True)
        assert out.returncode in (0, 2), (cmd, out.stderr)
        assert out.stderr.splitlines()[-1] == "numpy loaded: False", (cmd, out.stderr)


# A bracket 4.8e-7 wide, held to 1e-9: the command warns.
WIDE_RETURN = "return --sign plus --K 1 --B 2 --min-terms 1000 --tolerance 1e-9"


def _stdout(cmd: str) -> str:
    """What ``main`` writes to stdout for ``cmd``, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert main(cmd.split()) == 0
    return buf.getvalue()


def test_return_warning_is_one_stderr_line():
    argv = [sys.executable, "-m", "lmax", *WIDE_RETURN.split()]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == _stdout(WIDE_RETURN)
    assert out.stdout.endswith(",integral-bound,false\n")
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
    argv = [sys.executable, *flags, "-m", "lmax", *WIDE_RETURN.split()]
    out = subprocess.run(argv, env={**os.environ, **env}, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == _stdout(WIDE_RETURN)
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
    # Below the least depth (2 for classify, else 1) is a bad argument (2);
    # past the budget, a resource limit (1).
    monkeypatch.delenv("LMAX_MAX_TABLE", raising=False)
    code = main([cmd, "--p", "0.4", flag, str(depth)])
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    if depth < 1:
        least = 2 if cmd == "classify" else 1
        assert (code, err) == (2, f"error: {flag} must be >= {least}, got 0\n")
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


def test_return_min_terms_below_i0_is_a_bracket(capsys):
    # i0 = 4 on this walk: the frozen sites past the table are summed in
    # closed form, so 3 terms give a finite bracket that holds the one at 4.
    argv = ["return", "--sign", "plus", "--K", "3", "--B", "2", "--min-terms", "3"]
    brackets = []
    for terms in ("3", "4"):
        code, out = _run(capsys, argv[:-1] + [terms])
        (row,) = _csv_rows(out)[1]
        assert code == 0 and row[3:5] == [terms, "integral-bound"]
        brackets.append((float(row[1]), float(row[2])))
    (lo3, hi3), (lo4, hi4) = brackets
    assert 0.0 < lo3 <= lo4 <= hi4 <= hi3 < 1.0


@pytest.mark.parametrize("walk", ["--p 1e-9", "--sign minus --K 1 --B 3"])
def test_asympt_and_dist_agree_on_the_first_row(capsys, walk):
    # Both read P(M = 1) = q_1 from the one pinned log (0.999999999 and 0.875).
    _, asympt = _run(capsys, f"asympt {walk} --n-lo 1 --n-hi 4 --samples 4".split())
    _, dist = _run(capsys, f"dist {walk} --n-max 1".split())
    assert _csv_rows(asympt)[1][0][1] == _csv_rows(dist)[1][0][1]


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


@pytest.mark.parametrize("target", ["max-pmf", "product"])
@pytest.mark.parametrize("p", ["1e-320", "5e-324"])
def test_asympt_subnormal_p_is_finite(p, target):
    # Below p = 1/DBL_MAX the odds ratio overflows; the shape takes its log
    # from log_odds, so no column or meta field is NaN and numpy warns of nothing.
    argv = [sys.executable, "-m", "lmax", "asympt", "--p", p, "--n-hi", "100",
            "--target", target, "--format", "json"]
    out = subprocess.run(argv, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    doc = json.loads(out.stdout)
    assert not any(math.isnan(v) for v in doc["meta"].values() if isinstance(v, float))
    assert not any(math.isnan(v) for row in doc["rows"] for v in row)
    assert 0.0 <= doc["meta"]["drift"] < 1e-9
    assert all(row[3] == pytest.approx(1.0, rel=1e-9) for row in doc["rows"])


def test_asympt_nonpositive_samples_exits_two(capsys):
    code = main(["asympt", "--p", "0.4", "--n-hi", "1000", "--samples", "-1"])
    assert code == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["101", str(2**63)])
def test_asympt_samples_past_the_budget_exits_one(capsys, monkeypatch, samples):
    # The sample grid is an array of --samples entries: 2**63 used to raise IndexError.
    monkeypatch.setenv("LMAX_MAX_TABLE", "100")
    code = main(["asympt", "--p", "0.4", "--n-hi", "100", "--samples", samples])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --samples={samples} exceeds the table budget of 100 entries")


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
    # concurrent.futures, with the logging it imports, no command needs.
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
    # loads; the simulator's threads are plain ones, so a run on two workers
    # loads no concurrent.futures, nor the logging it imports.  The library
    # is built here first, so the child runs on C.
    assert _native.kernel_info().name == "c"
    code = (
        "import sys\n"
        "from lmax.cli import main\n"
        "from lmax.montecarlo import kernel_info\n"
        "heavy = ('scipy', 'hashlib', '_hashlib', 'concurrent', 'logging')\n"
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
    # A module that neither the package's exports nor the CLI imports is
    # dead code.  Exports load on first use, so the star import loads them.
    code = (
        "import pathlib, sys, lmax, lmax.cli\n"
        "from lmax import *\n"
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

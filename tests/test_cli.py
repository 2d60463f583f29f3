import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from lmax.cli import main

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
    code, _ = _run(capsys, ["dist", "--family", "perturbed", "--sign", "plus", "--n-max", "5"])
    assert code == 2


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
GOLDEN_STDOUT = [
    ('dist --p 0.4 --n-max 300',
     '65df49f9e0657088d61964359c544f3541635f41dc45a13bbf5d02e4d42f9993'),
    ('dist --p 0.4 --n-max 300 --format json',
     '1cc40ca423c4c3346dd352983cf408a99bd410d6de1498825316676492a30bc8'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300',
     '0f0bcbb60b0ac4e38ba0e4b7dcec5cb5e5d94d449021f1d8163796179d5d6eec'),
    ('dist --sign plus --K 2 --B 1.5 --n-max 300 --format json',
     '7a8f3b19f22e40c6519a1c6694e8993171a5c97473e29ea5e4a39263f77a1afc'),
    ('dist --sign minus --K 3 --B -1 --n-max 300',
     '6a6c3b80d542db82e2b70450d7c465766623b289642000041f7a2a8d6d9fd8a9'),
    ('dist --sign minus --K 3 --B -1 --n-max 300 --format json',
     'ccb2cc2df436264027bf0d71666bd4b98c2d86b31b567b531637da446501a7a3'),
    ('asympt --sign plus --K 1 --B 0.5 --n-hi 20000 --format json',
     '27bb6d7db664f65c92b3111fc2d711f27fa9550c34ec0602c7452c8dc8620a9f'),
    ('asympt --p 0.4 --target product --n-hi 20000',
     '925f19cf2e9236cdfe911865558331959eebf40c2afd82021cc575ef76ab79cc'),
    ('hit --sign minus --K 2 --B 2 --a 0 --k 3 --b 500',
     'b64e55894b01b8af52fac719e449f48045d68d550ad432404de2853a60c1ffc6'),
    ('return --p 0.6 --format json',
     '6ff11bf9e4d7a17841c1597f8703fa3e06309c28419dae8daf8abae9a32eb513'),
    ('return --sign plus --K 1 --B 2',
     '3716202b174680111253400baf1ecd19ebf881113b2cc32d0d936fa1ea7fa54f'),
    ('simulate --p 0.5 --excursions 3000 --seed 5 --cap-steps 400 --cap-height 40 --format json',
     '9660b71dcd2a9714715a475c0a8ca30f0f842ed23c76bad6b443353bb778c194'),
    ('simulate --sign minus --K 2 --B 1 --excursions 3000 --seed 9 --cap-steps 400 --cap-height 30',
     'ff2f2d780abfd37783d0aff41d72ea57b4ae39aa595222a0bb5099a038f70055'),
    ('compare --p 0.45 --excursions 20000 --seed 3 --cap-height 32 --format json',
     '6548977325ef864603b7a07b1bb49899d923ca580adade052f2cbd56c03d1f63'),
]


@pytest.mark.filterwarnings("ignore::lmax.errors.ConvergenceWarning")
@pytest.mark.parametrize("cmd,digest", GOLDEN_STDOUT)
def test_stdout_bytes_pinned(capsys, cmd, digest):
    code, out = _run(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bad_table_budget_env_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("LMAX_MAX_TABLE", "abc")
    code = main(["dist", "--p", "0.5", "--n-max", "10"])
    assert code == 2
    assert "LMAX_MAX_TABLE" in capsys.readouterr().err


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


def test_import_leaves_heavy_modules_unloaded():
    code = "import sys, lmax; print(sorted({'numba', 'scipy.stats'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    # -W error: pytest's warning filter does not reach the subprocess.
    argv = [sys.executable, "-W", "error", str(demo)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout

"""A fuzzer over the command line's argument grammar: every input maps to an exit code.

Each example checks four things: the exit code is 0, 1 or 2; nothing prints
a traceback; every stderr line starts with ``error:`` or ``warning:``; and on
exit 0, stdout parses as the requested CSV or JSON with no NaN in it.

Most examples run in process through ``cli.main`` under a 64-entry table
budget.  That budget also bounds the simulator: ``cap_height`` is at most 65
and the excursion count at most 100 (the largest valid count in the value
pool; the next ones, 2**63 and up, exceed the budget's blocks).  Walks with
a large ``--B`` run in a subprocess under an address-space limit, so a
search that grew memory with i0 would fail there instead of taking the
test process down.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmax.cli import build_parser, main

# Flag values: NaN, infinities, subnormals, the ends of the double range,
# 2**63 and 2**64 and their negatives, zeros, negatives in every spelling,
# valid small values, and the words some flags take.
VALUES = [
    "nan", "-nan", "inf", "-inf", "5e-324", "-5e-324", "2.2250738585072014e-308",
    "1e-300", "1e308", "-1e308", str(2**63), str(2**64), str(-(2**63)), str(-(2**64)),
    "0", "-0.0", "-1", "-1e-3", "-2.5", "0.4", "0.5", "0.6", "1", "1.5", "2", "3", "7",
    "64", "100", "1e9", "1e300", "plus", "minus", "constant", "perturbed", "max-pmf",
    "product", "csv", "json", "", "x",
]
# Values that pass each flag's own check, so that half the draws reach the
# computation; the other half come from VALUES.
VALID = {
    "--p": ["0.4", "0.5", "0.6", "1e-300", "5e-324", "0.9999999999999999"],
    "--family": ["constant", "perturbed"], "--sign": ["plus", "minus"],
    "--K": ["1", "2", "3"], "--B": ["-2.5", "-1e-3", "0", "1", "1.5", "2", "1e9"],
    "--format": ["csv", "json"], "--n-max": ["2", "3", "64"],
    "--target": ["max-pmf", "product"], "--n-lo": ["1", "4"], "--n-hi": ["8", "64"],
    "--samples": ["1", "5", "33"], "--a": ["0", "1"], "--k": ["1", "3"], "--b": ["3", "7", "65"],
    "--min-terms": ["8", "64"], "--tolerance": ["0", "1e-6", "inf"],
    "--excursions": ["1", "7", "100"], "--seed": ["0", "1", str(2**64 - 1)],
    "--workers": ["1", "2"], "--cap-steps": ["1", "100", str(2**63)],
    "--cap-height": ["2", "7", "65"], "--bogus": ["1"],
}
WALK = ["--p", "--family", "--sign", "--K", "--B"]
SIM = ["--excursions", "--seed", "--workers", "--cap-steps", "--cap-height"]
COMMANDS = {
    "dist": ["--n-max"],
    "classify": ["--n-max"],
    "asympt": ["--target", "--n-lo", "--n-hi", "--samples"],
    "hit": ["--a", "--k", "--b"],
    "return": ["--min-terms", "--tolerance"],
    "simulate": SIM,
    "compare": SIM,
    "info": [],
}
# Flags every draw of the command gives: the required ones, and those whose
# defaults exceed the 64-entry budget.
USUAL = {"dist": ["--n-max"], "classify": ["--n-max"], "asympt": ["--n-hi"],
         "hit": ["--a", "--k", "--b"], "return": ["--min-terms"],
         "simulate": ["--excursions", "--cap-height"], "compare": ["--excursions", "--cap-height"]}


def _pair(flag):
    """``flag value`` or ``flag=value``, the value valid for the flag or any of VALUES."""
    value = st.one_of(st.sampled_from(VALID[flag]), st.sampled_from(VALUES))
    return st.tuples(value, st.booleans()).map(
        lambda t: [f"{flag}={t[0]}"] if t[1] else [flag, t[0]])


@st.composite
def argvs(draw):
    """A subcommand, often a walk and its usual flags, then any of its flags."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    walk = draw(st.sampled_from([["--p"], ["--sign", "--K", "--B"], []]))
    for flag in ([] if command == "info" else walk) + USUAL.get(command, []):
        argv += draw(_pair(flag))
    flags = COMMANDS[command] + ["--format", "--bogus"] + (WALK if command != "info" else [])
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        argv += draw(_pair(flag))
    return argv


def check_contract(argv, code, out, err):
    """The four promises of the command line, for one call."""
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    for line in err.splitlines():
        assert line.startswith(("error:", "warning:")), (argv, err)
    if code != 0:
        assert out == "", (argv, out)
        return
    if build_parser().parse_args(argv).format == "json":
        nan = []  # json reads Infinity and -Infinity too, through parse_constant
        doc = json.loads(out, parse_constant=lambda c: nan.append(c) if c == "NaN" else float(c))
        assert sorted(doc) == ["columns", "meta", "rows"] and not nan, (argv, out[:200])
        width, rows = len(doc["columns"]), doc["rows"]
    else:
        header, *rows = list(csv.reader(io.StringIO(out)))
        width = len(header)
        for row in rows:
            for cell in row:
                with contextlib.suppress(ValueError):
                    assert not math.isnan(float(cell)), (argv, row)
    assert rows and all(len(row) == width for row in rows), (argv, out[:200])


@pytest.fixture(scope="module")
def small_budget():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LMAX_MAX_TABLE", "64")
        yield


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argv=argvs())
def test_every_argument_list_keeps_the_contract(small_budget, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    check_contract(argv, code, out.getvalue(), err.getvalue())


_ADDRESS_SPACE = 1536 << 20  # 1.5 GiB: the interpreter and numpy, with room to spare

def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux only")
@settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(argv=st.tuples(st.sampled_from(["dist", "classify"]), st.sampled_from(["plus", "minus"]),
                      st.sampled_from(["1", "2", "3"]), st.sampled_from(["1e15", "-1e15", "1e100"]))
       .map(lambda t: [t[0], "--sign", t[1], "--K", t[2], "--B", t[3], "--n-max", "10"]),
       want=st.none())
# i0 = 500,000,001: a valid walk.
@example(argv="dist --sign plus --K 1 --B 1e9 --n-max 10".split(), want=0)
# i0 lies near 1e296, past 2**53: refused as a bad argument.
@example(argv="classify --sign minus --K 3 --B 1e300 --n-max 3".split(), want=2)
@example(argv="dist --p 1e-300 --n-max 4".split(), want=0)
def test_large_coefficients_in_bounded_memory(argv, want):
    env = {**os.environ, "LMAX_MAX_TABLE": "64"}
    out = subprocess.run([sys.executable, "-m", "lmax", *argv], capture_output=True, text=True,
                         env=env, preexec_fn=_limit_address_space, timeout=60)
    check_contract(argv, out.returncode, out.stdout, out.stderr)
    assert want in (None, out.returncode), out.stderr
    if out.returncode == 2:
        assert out.stderr.count("\n") == 1

"""The compiled renderer's layout: its room and its counted column, at every size.

``lmax_render`` writes each cell and separator with fixed-size stores, so
these tests check that no store lands at or past the room ``render_rows``
gives it, that a counted ``range`` column spells ``int.__repr__`` across
every digit rollover, and that a benchmark-sized ``dist`` table has the
same bytes on the compiled path and the Python one.
"""

import hashlib
import re
import sys

import numpy as np
import pytest

from lmax import _native, cli
from lmax._native import KernelInfo

CSV = ("", "\n", ",", "\n", "inf", "-inf", "nan")
JSON = ("    [\n      ", "\n    ],\n    [\n      ", ",\n      ", "\n    ]",
        "Infinity", "-Infinity", "NaN")


@pytest.fixture(scope="module")
def lib():
    try:
        return _native._load_c()
    except (_native._BuildError, OSError) as exc:
        pytest.fail(f"the native library did not load, so the renderer goes untested: {exc}")


def _reference(columns, words) -> bytes:
    fmt = "json" if words[4] == "Infinity" else "csv"
    head, row_sep, cell_sep, tail = words[:4]
    cells = [cli._cells(c, fmt) for c in columns]
    return (head + row_sep.join(map(cell_sep.join, zip(*cells))) + tail).encode("ascii")


def _room(n_rows: int, n_cols: int, words) -> int:
    """The bytes render_rows promises the kernel: 24 a cell, plus every separator and word."""
    head, row_sep, cell_sep, tail = words[:4]
    return (len(head) + len(tail) + n_rows * (n_cols * 24 + (n_cols - 1) * len(cell_sep))
            + (n_rows - 1) * len(row_sep))


def test_cell_max_is_the_sources():
    defined = re.search(r"#define CELL_MAX (\d+)", _native._C_SOURCE)
    assert defined and int(defined.group(1)) == _native._CELL_MAX


@pytest.mark.parametrize("n_rows", [1, 5, 10_000])
@pytest.mark.parametrize("words", [CSV, JSON], ids=["csv", "json"])
def test_render_never_writes_past_its_room(lib, words, n_rows):
    # The widest cells close the chunk, so its last fixed-size stores sit
    # at the very end of the room.
    rng = np.random.default_rng(n_rows)
    widest = (-2.2250738585072014e-308, -(2**63), -np.inf)
    floats = rng.uniform(-1, 1, n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    ints = rng.integers(-(2**63), 2**63 - 1, n_rows, dtype=np.int64, endpoint=True)
    columns = [range(2**63 - n_rows, 2**63), floats, ints, floats.copy()]
    columns[1][-1], columns[2][-1], columns[3][-1] = widest
    cap = _room(n_rows, len(columns), words)
    buf = bytearray(b"\xa5" * (cap + 64))
    text = bytes(_native.render_rows(lib, columns, words, buf))
    assert text == _reference(columns, words)
    assert len(buf) == cap + 64  # render_rows did not grow what was already large enough
    assert buf[cap:] == b"\xa5" * 64


def _counts(r: range) -> bytes:
    return "\n".join(map(int.__repr__, r)).encode("ascii")


ROLLOVERS = ([range(10**k - 3, 10**k + 3) for k in range(1, 19)]
             + [range(0, 1), range(0, 12), range(0, 1003), range(2**63 - 3, 2**63)])


@pytest.mark.parametrize("r", ROLLOVERS, ids=lambda r: f"{r.start}-{r.stop}")
def test_counted_column_at_every_rollover(lib, r):
    words = ("", "\n", ",", "", *CSV[4:])
    assert bytes(_native.render_rows(lib, [r], words, bytearray())) == _counts(r)


def test_counted_column_over_a_million_rows(lib):
    r = range(1, 10**6 + 1)
    words = ("", "\n", ",", "", *CSV[4:])
    assert bytes(_native.render_rows(lib, [r], words, bytearray())) == _counts(r)


@pytest.mark.parametrize("r", [range(5, 70_000, 3), range(-5, 5), range(10, 0, -1),
                               range(-(2**63), -(2**63) + 3)])
def test_other_ranges_render_as_their_ints(lib, r):
    assert bytes(_native.render_rows(lib, [r], CSV, bytearray())) == _reference([r], CSV)


class _Digest:
    """A stdout whose binary buffer keeps only the SHA-256 of what it is given."""

    encoding, errors = "utf-8", "strict"

    def __init__(self):
        self.buffer, self.sha = self, hashlib.sha256()

    def write(self, data):
        self.sha.update(data)
        return len(data)

    def flush(self):
        pass


def _dist_digest(argv) -> str:
    out = _Digest()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        assert cli.main(argv) == 0
    return out.sha.hexdigest()


WALKS = {"plus K2 B1.5": ["--sign", "plus", "--K", "2", "--B", "1.5"], "p 0.43": ["--p", "0.43"]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("walk", list(WALKS))
def test_benchmark_sized_dist_is_the_same_on_both_paths(monkeypatch, lib, walk, fmt):
    argv = ["dist", *WALKS[walk], "--n-max", "1000000", "--format", fmt]
    digests = []
    for kernel, info in ((lib, KernelInfo("c", None)), (None, KernelInfo("python", "forced"))):
        with monkeypatch.context() as mp:
            mp.setattr(_native, "_kernel", lambda k=kernel, i=info: (k, i))
            digests.append(_dist_digest(argv))
    assert digests[0] == digests[1]

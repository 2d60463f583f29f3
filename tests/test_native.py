"""The compiled row renderer against the Python one: the same bytes for every value.

``cli._cells`` (``float.__repr__``, ``int.__repr__`` and JSON's spellings
of the nonfinite floats) is the reference; ``_native.render_rows`` must
return its ASCII encoding byte for byte.  The values behind the pinned outputs are
covered in ``test_cli``, whose digests hold on both paths.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

from lmax import _native, cli
from lmax._native import KernelInfo

SPELLINGS = {"csv": ("inf", "-inf", "nan"), "json": ("Infinity", "-Infinity", "NaN")}
LINES = ("", "\n", ",", "\n")  # one CSV cell per line: head, row separator, cell separator, tail


@pytest.fixture(scope="module")
def lib():
    try:
        return _native._load_c()
    except (_native._BuildError, OSError) as exc:
        pytest.fail(f"the native library did not load, so the renderer goes untested: {exc}")


def _reference(columns, fmt, words) -> str:
    head, row_sep, cell_sep, tail = words[:4]
    cells = [cli._cells(c, fmt) for c in columns]
    return head + row_sep.join(map(cell_sep.join, zip(*cells))) + tail


def _assert_renders_as_repr(lib, x, fmt="csv"):
    """One value per line, compiled against Python; names the first value that differs."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    words = (*LINES, *SPELLINGS[fmt])
    got = bytes(_native.render_rows(lib, [x], words, bytearray()))
    want = _reference([x], fmt, words).encode("ascii")
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"))
        i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
        pytest.fail(f"{x[i].hex()} renders as {g.decode()!r}, repr gives {w.decode()!r}")


def test_random_bit_patterns(lib):
    # 1e7 doubles drawn as raw 64-bit patterns: every exponent, both signs,
    # subnormals and a few NaN payloads, mostly 16- and 17-digit strings.
    rng = np.random.default_rng(20_201)
    total, size = 10_000_000, 1 << 17
    for lo in range(0, total, size):
        bits = rng.integers(0, 2**64, size=min(size, total - lo), dtype=np.uint64)
        _assert_renders_as_repr(lib, bits.view(np.float64))


def test_every_decade_and_the_positional_edges(lib):
    # repr is positional for 1e-4 <= |x| < 1e16: random values in every
    # decade across both edges, and the powers of ten with their neighbours.
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(1.0, 10.0, 20_000) * 10.0**e for e in range(-5, 18)])
    powers = 10.0 ** np.arange(-8, 24)
    x = np.concatenate([x, powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                        np.arange(1.0, 2.0**53, 2.0**53 / 4099)])
    _assert_renders_as_repr(lib, np.concatenate([x, -x]))


def test_short_decimals_at_every_exponent(lib):
    # The doubles nearest 1- to 17-digit decimals: repr gives back the short
    # string, so the one-digit-shorter candidate and every layout are hit.
    rng = random.Random(11)
    x = [float(f"{rng.randrange(10 ** rng.randint(1, 17))}e{rng.randint(-340, 310)}")
         for _ in range(200_000)]
    _assert_renders_as_repr(lib, np.array(x))


def test_binade_endpoints_subnormals_and_specials(lib):
    exps = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    low = np.uint64(1) << np.uint64(52)
    ends = np.concatenate([exps, exps + np.uint64(1), exps + np.uint64(2),
                           exps + low - np.uint64(1), exps + low - np.uint64(2),
                           exps[1:] - np.uint64(1)])
    subnormal = np.concatenate([np.arange(1, 5000, dtype=np.uint64),
                                low - np.arange(1, 5000, dtype=np.uint64)])
    x = np.concatenate([ends, subnormal]).view(np.float64)
    specials = np.array([0.0, np.inf, np.nan, 5e-324, 2.0**-1022, 1.7976931348623157e308,
                         1e23, 2.0**53, 2.0**53 + 2, 2.0**63, 9007199254740993.0, 0.1, 0.3])
    nan_payloads = np.array([0x7FF0000000000001, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF],
                            dtype=np.uint64).view(np.float64)
    both = np.concatenate([x, specials, nan_payloads])
    for fmt in ("csv", "json"):
        _assert_renders_as_repr(lib, np.concatenate([both, -both]), fmt)


def test_int64_extremes(lib):
    n = np.array([0, 1, -1, 9, 10, 99, 100, -100, 2**53 + 1, 2**63 - 1, -(2**63)], dtype=np.int64)
    n = np.concatenate([n, np.arange(-100_000, 100_000, 7, dtype=np.int64)])
    words = (*LINES, *SPELLINGS["csv"])
    assert (_native.render_rows(lib, [n], words, bytearray())
            == _reference([n], "csv", words).encode("ascii"))
    r = range(5, 70_000, 3)
    assert (_native.render_rows(lib, [r], words, bytearray())
            == _reference([r], "csv", words).encode("ascii"))


TABLE = {
    "n": range(1, 12),
    "count": np.array([0, 1, -1, 7, 10**12, -(2**63), 2**63 - 1, 3, 4, 5, 6], dtype=np.int64),
    "x": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-5, 1e-4, 1e16, 0.1, -2.5e300]),
    "y": np.geomspace(1e-300, 1e300, 11),
}


@pytest.mark.parametrize("chunk", [1, 3, 65_536])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_the_same_bytes_on_both_paths(capsysbinary, monkeypatch, lib, fmt, chunk):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    calls = []
    real = _native.render_rows
    monkeypatch.setattr(_native, "render_rows", lambda *a: calls.append(1) or real(*a))
    outputs = []
    for kernel, info in ((lib, KernelInfo("c", None)), (None, KernelInfo("python", "forced"))):
        monkeypatch.setattr(_native, "_kernel", lambda k=kernel, i=info: (k, i))
        assert cli._emit(fmt, {"command": "test"}, TABLE) == 0
        outputs.append(capsysbinary.readouterr().out)
    compiled, python = outputs
    assert len(calls) == -(-11 // chunk)  # the compiled path rendered every chunk
    assert compiled == python
    if fmt == "json":
        assert json.loads(compiled.replace(b"NaN", b"null"))["rows"][4][2] is None


def test_render_rows_rejects_what_the_kernel_cannot_take(lib):
    words = (*LINES, *SPELLINGS["csv"])
    with pytest.raises(TypeError):
        _native.render_rows(lib, [np.arange(3, dtype=np.int32)], words, bytearray())
    with pytest.raises(ValueError):
        _native.render_rows(lib, [np.arange(3), np.zeros(2)], words, bytearray())
    with pytest.raises(ValueError):
        _native.render_rows(lib, [np.zeros(2)], words[:6], bytearray())


def test_import_version_and_one_row_commands_load_no_library(tmp_path):
    # An empty cache stays empty, and no call loads the library.
    code = (
        "import contextlib, io, lmax, lmax.cli, lmax._native as native\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    lmax.cli.main(['--version'])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['return', '--p', '0.6'], ['hit', '--p', '0.5', '--a', '0', '--k', '2',\n"
        "                 '--b', '9'], ['classify', '--p', '0.5', '--n-max', '10']):\n"
        "        assert lmax.cli.main(argv) == 0\n"
        "print(native._kernel.cache_info().currsize)\n"
    )
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0\n"
    assert not (tmp_path / "cache").exists()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # The source and flags _compile builds, with every -Wall and -Wextra
    # warning made an error, so that a kernel added later keeps gcc silent.
    src = tmp_path / "lmax.c"
    src.write_text(_native._C_SOURCE.replace("LMAX_G_TABLE", _native._g_table()))
    flags = (*_native._CFLAGS, "-Wall", "-Wextra", "-Werror")
    out = subprocess.run(["gcc", *flags, str(src), "-o", str(tmp_path / "lmax.so")],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_render_rows_reuses_one_buffer(lib):
    # Each render overwrites the buffer the last one grew, and a smaller
    # chunk after a larger one neither grows it nor keeps the larger text.
    words = (*LINES, *SPELLINGS["csv"])
    buf, sizes = bytearray(), []
    big, small = np.geomspace(1e-300, 1e300, 500), np.array([0.1, -2.5, np.nan])
    for x in (big, small, big):
        view = _native.render_rows(lib, [x], words, buf)
        assert view.obj is buf
        assert view == _reference([x], "csv", words).encode("ascii")
        view.release()
        sizes.append(len(buf))
    assert sizes[0] >= 500 * 24 and len(set(sizes)) == 1

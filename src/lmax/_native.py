"""The package's compiled kernels: one C source, one build, one fallback reason.

``_C_SOURCE`` holds every kernel: the simulator (``lmax_block``, see
``montecarlo``), which draws its uniforms from the Philox generator
``lmax_uniforms``, the row renderer (``lmax_render``, see
``render_rows``) and the compensated block sum of a perturbed walk's
tables (``lmax_scan``, see ``series``).  The first call that needs one
loads the library, building it with the system
``gcc -O2 -ffp-contract=off -shared -fPIC`` on a cache miss; the second
flag keeps gcc from fusing a product and a sum into one FMA, which would
round once where numpy rounds twice, on targets that have FMA.  The
shared object is cached in ``$XDG_CACHE_HOME/lmax`` (or ``~/.cache/lmax``)
under a name keyed by a 64-bit checksum (CRC-32 and Adler-32) of the source
template, the flags and the machine type; builds go through a temporary
file and ``os.replace``, so concurrent first calls are safe.  A build
writes its own file and deletes none: a library is about 24 kB, and a new
name appears only when the source, the flags or the machine change.  An
unwritable cache falls back to a per-process temporary directory.  The
cache exists because every CLI call is a fresh process: a build costs
about 0.15-0.2 s there, against about 1 ms to load a cached library
(2-core x86_64, gcc 12).  ctypes releases the GIL during each call.  If
gcc is missing or fails, or the library will not load, every caller runs
its Python reference instead; ``kernel_info()`` names the kernel in use
and the reason for a fallback.  Importing this module loads and builds
nothing.

The renderer writes each float as ``repr`` does.  Its digits come from
Giulietti's Schubfach algorithm ("The Schubfach way to render doubles",
2020): the shortest decimal in the double's rounding interval, the closest
one on a tie of length and the even one on a tie of distance, which is the
digit string of CPython's ``repr`` (Gay's dtoa, mode 0).  The 126-bit powers
of ten it multiplies by are computed here with Python integers and pasted
into the source only when it is compiled, so a cache hit neither computes
nor checksums them.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import tempfile
import zlib
from typing import NamedTuple

import numpy as np

__all__ = ["KernelInfo", "kernel_info", "render_rows"]

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
   3", SC'11) with Random123's constants, as numpy's Philox runs it: the
   256-bit counter is incremented before each block of four words. */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

/* u[0:n] = the doubles Generator(Philox(key, counter=ctr)).random(n)
   returns, (x >> 11) 2^-53 of each word x.  ctr[0..3] holds the counter
   last used and is advanced by ceil(n / 4); a last block's spare words
   are dropped. */
void lmax_uniforms(double *u, int64_t n, const uint64_t *key, uint64_t *ctr)
{
    for (int64_t i = 0; i < n; i += 4) {
        if (++ctr[0] == 0 && ++ctr[1] == 0 && ++ctr[2] == 0) ++ctr[3];
        uint64_t x0 = ctr[0], x1 = ctr[1], x2 = ctr[2], x3 = ctr[3];
        uint64_t k0 = key[0], k1 = key[1];
        for (int r = 0; r < 10; r++) {
            unsigned __int128 a = (unsigned __int128)PHILOX_M0 * x0;
            unsigned __int128 b = (unsigned __int128)PHILOX_M1 * x2;
            x0 = (uint64_t)(b >> 64) ^ x1 ^ k0;
            x1 = (uint64_t)b;
            x2 = (uint64_t)(a >> 64) ^ x3 ^ k1;
            x3 = (uint64_t)a;
            k0 += PHILOX_W0;
            k1 += PHILOX_W1;
        }
        const uint64_t x[4] = {x0, x1, x2, x3};
        for (int w = 0; w < 4 && i + w < n; w++) u[i + w] = (double)(x[w] >> 11) * 0x1p-53;
    }
}

/* The simulator: block j's n_exc excursions on the stream keyed (seed, j),
   drawn LMAX_DRAWS at a time; montecarlo._block_py, its reference, repeats
   this loop line for line in Python. */
#define LMAX_DRAWS 256
void lmax_block(uint64_t seed, uint64_t j, int64_t n_exc, int64_t *counts, int64_t *censored,
                const double *p, int64_t cap_steps, int64_t cap_height)
{
    const uint64_t key[2] = {seed, j};
    uint64_t ctr[4] = {0, 0, 0, 0};
    double u[LMAX_DRAWS];
    int64_t i = LMAX_DRAWS;
    for (; n_exc > 0; n_exc--) {
        int64_t pos = 1, steps = 0, m = 1;
        while (pos > 0 && pos < cap_height && steps < cap_steps) {
            if (i == LMAX_DRAWS) {
                lmax_uniforms(u, LMAX_DRAWS, key, ctr);
                i = 0;
            }
            if (u[i++] < p[pos]) { if (++pos > m) m = pos; } else pos -= 1;
            steps += 1;
        }
        if (pos == 0) counts[m] += 1;
        else if (pos >= cap_height) censored[0] += 1;
        else censored[1] += 1;
    }
}

/* The prefix scan of series._PerturbedScan, one block at a time:
   s[0] = z[0] and s[i] = s[i-1] + z[i], in order, as numpy's cumsum adds.
   Unless an s[i] is NaN or 256 max|s[i]| <= |carry|, each s[i] then gains
   the running total of the exact rounding errors of the additions up to
   it (TwoSum; Higham, "Accuracy and Stability of Numerical Algorithms",
   section 4), each step spelled as series._two_sum_err spells it, so the
   sums equal the numpy reference bit for bit. */
#define LMAX_ABS_MAX(a, top) (__builtin_fabs(a) > (top) ? __builtin_fabs(a) : (top))
void lmax_scan(const double *z, double *s, int64_t n, double carry)
{
    /* Two running maxima, of the odd and the even sums, so that neither
       waits on the other and the scan runs at the speed of its additions. */
    double acc = z[0], top0 = __builtin_fabs(acc), top1 = top0;
    int64_t i = 1;
    s[0] = acc;
    for (; i + 1 < n; i += 2) {
        acc += z[i];
        s[i] = acc;
        top0 = LMAX_ABS_MAX(acc, top0);
        acc += z[i + 1];
        s[i + 1] = acc;
        top1 = LMAX_ABS_MAX(acc, top1);
    }
    if (i < n) {
        acc += z[i];
        s[i] = acc;
        top0 = LMAX_ABS_MAX(acc, top0);
    }
    /* A NaN sum stays NaN to the last, where numpy's max(s.max(), -s.min())
       is NaN and its test false. */
    if (acc != acc || !(256.0 * (top0 > top1 ? top0 : top1) > __builtin_fabs(carry))) return;
    double prev = s[0], err = 0.0;
    s[0] += 0.0; /* numpy adds the errors' sum from 0.0 on, which turns -0.0 to 0.0 */
    for (i = 1; i < n; i++) {
        double si = s[i], t = si - prev;
        double e = (z[i] - t) + (prev - (si - t));
        err += e;
        s[i] = si + err;
        prev = si;
    }
}

/* The renderer.  A double is c 2^q with c < 2^53; Schubfach scales its
   rounding interval by 10^-k and reads the candidates off 64-bit products
   with g(k) = floor(10^-k 2^-r) + 1, 2^125 <= g < 2^126, stored as
   {g >> 63, g mod 2^63}. */
#define K_MIN (-324)
#define Q_MIN (-1074)
#define C_MIN (1ULL << 52)
#define MASK63 0x7fffffffffffffffULL
#define CELL_MAX 24 /* "-2.2250738585072014e-308"; an int64 needs 20 */

static const uint64_t G[][2] = {
LMAX_G_TABLE
};

static const char DIGITS2[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* floor(log10(2^e)), floor(log10(3/4 2^e)) and floor(log2(10^e)) for |e| < 2^20. */
static inline int flog10pow2(int e) { return (int)((int64_t)e * 661971961083LL >> 41); }
static inline int flog10_34pow2(int e)
{
    return (int)(((int64_t)e * 661971961083LL - 274743187321LL) >> 41);
}
static inline int flog2pow10(int e) { return (int)((int64_t)e * 913124641741LL >> 38); }

/* floor(g cp / 2^127), with its last bit set when the fraction is not 0. */
static inline uint64_t rop(const uint64_t *g, uint64_t cp)
{
    unsigned __int128 x = (unsigned __int128)g[1] * cp, y = (unsigned __int128)g[0] * cp;
    uint64_t z = ((uint64_t)y >> 1) + (uint64_t)(x >> 64);
    uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | (((z & MASK63) + MASK63) >> 63);
}

/* The shortest d 10^e that rounds to c 2^q (c > 0); *e receives e. */
static uint64_t shortest(int q, uint64_t c, int *e)
{
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* a power of two: the gap below is half the gap above */
        cbl = cb - 1;
        k = flog10_34pow2(q);
    }
    int h = q + flog2pow10(-k) + 2;
    const uint64_t *g = G[k - K_MIN];
    uint64_t vb = rop(g, cb << h), vbl = rop(g, cbl << h), vbr = rop(g, cbr << h);
    /* The scaled interval [vbl, vbr] / 4 is 1 to 10 wide, so it holds at most
       one multiple of ten, which is shorter than any other candidate. */
    uint64_t s = vb >> 2, sp10 = s / 10 * 10, tp10 = sp10 + 10, t = s + 1;
    *e = k;
    int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
    if (upin != wpin) return upin ? sp10 : tp10;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win) return uin ? s : t;
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && !(s & 1)) ? s : t;
}

/* The decimal digits of u > 0, written to end at *end; returns their start. */
static inline char *digits(char *end, uint64_t u)
{
    while (u >= 100) {
        uint64_t r = u % 100;
        u /= 100;
        end -= 2;
        memcpy(end, DIGITS2 + 2 * r, 2);
    }
    if (u >= 10) {
        end -= 2;
        memcpy(end, DIGITS2 + 2 * u, 2);
    } else
        *--end = (char)('0' + u);
    return end;
}

static char *put_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    char buf[20], *end = buf + sizeof buf, *d = end;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    if (u)
        d = digits(end, u);
    else
        *--d = '0';
    memcpy(p, d, (size_t)(end - d));
    return p + (end - d);
}

/* repr(x): positional for 1e-4 <= |x| < 1e16, else d.ddde+XX; words and
   len hold the spellings of inf, -inf and nan. */
static char *put_double(char *p, double x, const char *const *words, const size_t *len)
{
    uint64_t bits, f;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & (C_MIN - 1);
    int be = (int)(bits >> 52) & 0x7ff, e;
    if (be == 0x7ff) {
        int i = frac ? 2 : (int)(bits >> 63);
        memcpy(p, words[i], len[i]);
        return p + len[i];
    }
    if (bits >> 63) *p++ = '-';
    if (be == 0) {
        if (!frac) {
            memcpy(p, "0.0", 3);
            return p + 3;
        }
        f = shortest(Q_MIN, frac, &e);
    } else {
        uint64_t c = C_MIN | frac;
        int q = be - 1075;
        if (-53 < q && q <= 0 && !(c & ((1ULL << -q) - 1))) { /* an integer below 2^53 */
            f = c >> -q;
            e = 0;
        } else
            f = shortest(q, c, &e);
    }
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    char buf[20], *end = buf + sizeof buf, *d = digits(end, f);
    int n = (int)(end - d), dp = n + e; /* x = 0.d1d2...dn 10^dp */
    if (-4 < dp && dp <= 16) {
        if (dp <= 0) {
            memcpy(p, "0.000", 2 - dp);
            p += 2 - dp;
            memcpy(p, d, n);
            p += n;
        } else if (dp < n) {
            memcpy(p, d, dp);
            p += dp;
            *p++ = '.';
            memcpy(p, d + dp, n - dp);
            p += n - dp;
        } else {
            memcpy(p, d, n);
            p += n;
            memset(p, '0', dp - n);
            p += dp - n;
            memcpy(p, ".0", 2);
            p += 2;
        }
        return p;
    }
    *p++ = d[0];
    if (n > 1) {
        *p++ = '.';
        memcpy(p, d + 1, n - 1);
        p += n - 1;
    }
    int x10 = dp - 1;
    *p++ = 'e';
    *p++ = x10 < 0 ? '-' : '+';
    if (x10 < 0) x10 = -x10;
    if (x10 >= 100) {
        *p++ = (char)('0' + x10 / 100);
        x10 %= 100;
    }
    memcpy(p, DIGITS2 + 2 * x10, 2);
    return p + 2;
}

/* Render n_rows rows of n_cols int64 or float64 columns into out[0:cap]:
   words[0], the rows joined by words[1], the cells of a row joined by
   words[2], then words[3]; words[4..6] spell inf, -inf and nan.  Returns
   the bytes written, or -1 if cap could be too small. */
int64_t lmax_render(char *out, int64_t cap, int64_t n_rows, int64_t n_cols,
                    const int64_t *is_float, const void *const *cols, const char *const *words)
{
    size_t len[7];
    for (int i = 0; i < 7; i++) len[i] = strlen(words[i]);
    if (len[4] > CELL_MAX || len[5] > CELL_MAX || len[6] > CELL_MAX) return -1;
    int64_t row_max = n_cols * (CELL_MAX + (int64_t)len[2]) + (int64_t)len[1];
    char *p = out, *end = out + cap;
    if (cap < (int64_t)(len[0] + len[3])) return -1;
    memcpy(p, words[0], len[0]);
    p += len[0];
    for (int64_t r = 0; r < n_rows; r++) {
        if (end - p < row_max + (int64_t)len[3]) return -1;
        if (r) {
            memcpy(p, words[1], len[1]);
            p += len[1];
        }
        for (int64_t j = 0; j < n_cols; j++) {
            if (j) {
                memcpy(p, words[2], len[2]);
                p += len[2];
            }
            if (is_float[j])
                p = put_double(p, ((const double *)cols[j])[r], words + 4, len + 4);
            else
                p = put_int(p, ((const int64_t *)cols[j])[r]);
        }
    }
    memcpy(p, words[3], len[3]);
    return p + len[3] - out;
}
"""
# -ffp-contract=off: no a*b + c is fused into an FMA, so every product and
# sum rounds as numpy's rounds it.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_CELL_MAX = 24  # CELL_MAX in the source
_K_MIN, _K_MAX = -324, 292  # the range of k = floor(log10(2^q)) over finite doubles


class KernelInfo(NamedTuple):
    """The native kernels in use: ``"c"`` or ``"python"``, and why not C."""

    name: str
    reason: str | None


class _BuildError(Exception):
    """gcc is missing or rejected the kernel source."""


def _g_table() -> str:
    """The rows of the source's ``G``: g(k) = floor(10^-k 2^-r) + 1 for k in [_K_MIN, _K_MAX].

    r = floor(log2(10^-k)) - 125, the source's ``flog2pow10(-k) - 125``, so
    that 2^125 <= g < 2^126 (Giulietti 2020, section 9).
    """
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = ((-k * 913124641741) >> 38) - 125
        if k <= 0:
            g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        rows.append(f"    {{0x{g >> 63:016x}ULL, 0x{g & (2**63 - 1):016x}ULL}},")
    return "\n".join(rows)


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "lmax")


def _compile(gcc: str, out_dir: str, name: str) -> str:
    """Build ``out_dir/name`` in a private temporary directory, then move it into place.

    ``os.replace`` is atomic, so processes building at once never see a
    partial file.
    """
    import subprocess  # only a cache miss needs it; ``import lmax`` stays lean

    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        src = os.path.join(work, "lmax.c")
        with open(src, "w") as f:
            f.write(_C_SOURCE.replace("LMAX_G_TABLE", _g_table()))
        out = os.path.join(work, name)
        with subprocess.Popen([gcc, *_CFLAGS, src, "-o", out], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                err = proc.communicate()[1]
            finally:  # reap gcc after Ctrl-C too, which ``with`` alone does not do
                proc.kill()
                proc.wait()
        if proc.returncode:
            raise _BuildError(f"gcc exited {proc.returncode}: {err.strip()[:300]}")
        path = os.path.join(out_dir, name)
        os.replace(out, path)
    return path


def _load_c() -> ctypes.CDLL:
    """Return the library with every kernel's signature declared, building it on a cache miss.

    Raises:
        _BuildError: gcc is missing or failed.
        OSError: the library did not load.
    """
    # The template, not the generated table, so a cache hit never computes
    # it; a change to _g_table must therefore also change the template.
    key = "\0".join((_C_SOURCE, *_CFLAGS, platform.machine())).encode()
    # zlib is in sys.modules once numpy is imported; hashlib would load OpenSSL.
    name = f"native-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    cache = _cache_dir()
    path = os.path.join(cache, name)
    lib = None
    if not os.path.exists(path):
        gcc = shutil.which("gcc")
        if gcc is None:
            raise _BuildError("gcc not found on PATH")
        try:
            os.makedirs(cache, exist_ok=True)
            _compile(gcc, cache, name)
        except OSError:
            # Unwritable cache: build per process; the mapping outlives the file.
            with tempfile.TemporaryDirectory(prefix="lmax-") as tmp:
                lib = ctypes.CDLL(_compile(gcc, tmp, name))
    if lib is None:
        # Should the file go (a user clears the cache) before this call,
        # CDLL raises OSError and the Python kernels run.
        lib = ctypes.CDLL(path)
    f64, i64, u64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                     for t in (np.float64, np.int64, np.uint64))
    c64, cu64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
    lib.lmax_uniforms.argtypes = [f64, c64, u64, u64]
    lib.lmax_uniforms.restype = None
    lib.lmax_block.argtypes = [cu64, cu64, c64, i64, i64, f64, c64, c64]
    lib.lmax_block.restype = None
    lib.lmax_render.argtypes = [ptr, c64, c64, c64, ptr, ptr, ptr]
    lib.lmax_render.restype = c64
    lib.lmax_scan.argtypes = [ptr, ptr, c64, ctypes.c_double]
    lib.lmax_scan.restype = None
    return lib


@functools.cache
def _kernel() -> tuple:
    """The loaded library, or None, and its ``KernelInfo``, chosen once per process."""
    try:
        return _load_c(), KernelInfo("c", None)
    except (_BuildError, OSError) as exc:
        return None, KernelInfo("python", f"{type(exc).__name__}: {exc}")


def kernel_info() -> KernelInfo:
    """Name the native kernels in use and the reason for a Python fallback.

    Loads the library if nothing has yet (building it on a cache miss);
    writes nothing to stdout.
    """
    return _kernel()[1]


def render_rows(lib: ctypes.CDLL, columns: list, words: tuple[str, ...],
                buf: bytearray) -> memoryview:
    """Render equal-length int64/float64 arrays (or ranges) as rows of ASCII text.

    ``words`` is (head, row separator, cell separator, tail, inf, -inf,
    nan), all ASCII.  Ints are decimal and floats ``repr``, nonfinite ones
    spelled by the last three words; the text is ``head``, the rows joined
    by the row separator, then ``tail``.  It is rendered into ``buf``, grown
    to the room the rows may take (24 bytes a cell) and kept for the next
    call, and returned as a memoryview of its used part, for a binary
    stream to take as it is; the next render into ``buf`` overwrites it,
    and ``buf`` cannot grow while the view is held.
    """
    arrays = [np.arange(c.start, c.stop, c.step, dtype=np.int64) if isinstance(c, range)
              else np.ascontiguousarray(c) for c in columns]
    if any(a.dtype not in (np.int64, np.float64) or a.ndim != 1 for a in arrays):
        raise TypeError("render_rows takes 1-D int64 and float64 columns")
    n_rows, n_cols = len(arrays[0]), len(arrays)
    if any(len(a) != n_rows for a in arrays) or len(words) != 7:
        raise ValueError("columns differ in length, or words are not the seven render_rows takes")
    head, row_sep, cell_sep, tail = words[:4]
    cap = len(head) + len(tail) + n_rows * (n_cols * (_CELL_MAX + len(cell_sep)) + len(row_sep))
    if len(buf) < max(cap, 1):  # a bytearray exports no address while empty
        buf += bytes(max(cap, 1) - len(buf))
    is_float = np.array([a.dtype == np.float64 for a in arrays], dtype=np.int64)
    ptrs = (ctypes.c_void_p * n_cols)(*(a.ctypes.data for a in arrays))
    texts = (ctypes.c_char_p * len(words))(*(w.encode("ascii") for w in words))
    at = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    used = lib.lmax_render(at, cap, n_rows, n_cols, is_float.ctypes.data, ptrs, texts)
    if used < 0:
        raise RuntimeError("lmax_render needs more room than render_rows gave it")
    return memoryview(buf)[:used]

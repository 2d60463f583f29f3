"""The package's compiled kernels: one C source, one build, one fallback reason.

``_C_SOURCE`` holds every kernel: the simulator (``lmax_block``, see
``montecarlo``), which draws numpy's Philox stream itself, the row
renderer (``lmax_render``, see ``render_rows``), and for a perturbed walk's
tables (see ``series``) the compensated block sum ``lmax_scan`` and
``lmax_products``, which runs the log P half of the scan over many
blocks in one call, so a thread holds the GIL only between such calls.
The simulator makes no double of a draw: it steps up iff the draw's top
53 bits X are below the site's threshold ceil(p 2^53), which is the
test u < p for u = X 2^-53 (2^53 scales p exactly, and an integer is
below a real y iff it is below ceil(y)), and it steps without a branch
on that test.  The first call that needs one loads the library,
building it with the system
``gcc -O2 -ffp-contract=off -shared -fPIC`` on a cache miss; the second
flag keeps gcc from fusing a product and a sum into one FMA, which would
round once where numpy rounds twice, on targets that have FMA.  The
shared object is cached in ``$XDG_CACHE_HOME/lmax`` (or ``~/.cache/lmax``)
under a name keyed by a 64-bit checksum (CRC-32 and Adler-32) of the source
template, the flags and the machine type; builds go through a temporary
file and ``os.replace``, so concurrent first calls are safe.  A build
writes its own file and deletes none: a library is about 28 kB, and a new
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
nor checksums them.  The digit string, scaled to 17 digits, is a first
digit and two halves of 8 that are converted side by side in 32-bit
lanes, as Ryū's printer does (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018), and the zeros that end the halves are dropped by
counting zero bytes.  Each cell and separator is laid out with stores of
a fixed size that end within ``CELL_MAX`` bytes of its start, and the
cursor then moves by its length, so ``render_rows`` gives the kernel
``CELL_MAX`` bytes a cell and nothing past that room is written.  A
``range`` of step 1 (the ``n`` column of ``dist`` and ``simulate``) is
an ASCII counter in the kernel, which adds one a row.
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

/* Advance the counter by one and write the four words of its block to x.
   *ctr is the counter's low word; the three above it stay 0, since a
   block's counter starts at 0 and would need 2^64 blocks, 2^66 draws, to
   carry out of that word.  The ten rounds are unrolled, which -O2 does not
   do by itself; on x86_64 that made the simulator's step about a quarter
   cheaper, with the same words. */
static inline void philox(uint64_t *x, const uint64_t *key, uint64_t *ctr)
{
    uint64_t x0 = ++*ctr, x1 = 0, x2 = 0, x3 = 0;
    uint64_t k0 = key[0], k1 = key[1];
#pragma GCC unroll 10
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
    x[0] = x0;
    x[1] = x1;
    x[2] = x2;
    x[3] = x3;
}

/* x[0:4] = the top 53 bits, x >> 11, of the next four words. */
static inline void draws(int64_t *x, const uint64_t *key, uint64_t *ctr)
{
    uint64_t y[4];
    philox(y, key, ctr);
    for (int w = 0; w < 4; w++) x[w] = (int64_t)(y[w] >> 11);
}

/* The simulator: block j's n_exc excursions on the stream keyed (seed, j),
   used LMAX_DRAWS at a time.  montecarlo._block_py, its reference, runs
   the same loop in Python and departs from it in form only.  It steps up
   iff u < p[pos] for the uniform u = X 2^-53 of the word's top 53 bits
   X = x >> 11; here the step compares X with t[pos] = ceil(p[pos] 2^53)
   (montecarlo._thresholds), which is the same test: 2^53 is a power of
   two, so p 2^53 is exact and u < p iff X < p 2^53, and for an integer X
   and a real y, X < y iff X < ceil(y) (y <= ceil(y) < y + 1).  The step
   takes no branch on that test, which goes either way at random on a walk
   near 1/2, and no double is made of the draw.  While the steps use one
   buffer of draws, every fourth step makes four of the next buffer's, in
   stream order, so that Philox's rounds run beside the steps instead of
   between them.  totals[0] and totals[1] count the excursions censored at
   cap_height and at cap_steps, and totals[2] gains every step taken. */
#define LMAX_DRAWS 256
void lmax_block(uint64_t seed, uint64_t j, int64_t n_exc, int64_t *counts, int64_t *totals,
                const int64_t *t, int64_t cap_steps, int64_t cap_height)
{
    const uint64_t key[2] = {seed, j};
    uint64_t ctr = 0;
    int64_t buf[2][LMAX_DRAWS], *x = buf[0], *next = buf[1];
    int64_t i = 0, walked = 0;
    for (int w = 0; w < LMAX_DRAWS; w += 4) draws(x + w, key, &ctr);
    for (; n_exc > 0; n_exc--) {
        int64_t pos = 1, steps = 0, m = 1;
        while (pos > 0 && pos < cap_height && steps < cap_steps) {
            if (i % 4 == 0) draws(next + i, key, &ctr);
            pos += 2 * (x[i++] < t[pos]) - 1;
            m = pos > m ? pos : m;
            steps += 1;
            if (i == LMAX_DRAWS) {
                int64_t *used = x;
                x = next;
                next = used;
                i = 0;
            }
        }
        walked += steps;
        if (pos == 0) counts[m] += 1;
        else if (pos >= cap_height) totals[0] += 1;
        else totals[1] += 1;
    }
    totals[2] += walked;
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

/* series._PerturbedScan.products over entries lo .. lo + n - 1: x
   holds log rho there and is overwritten with log P, block by block, the
   blocks cut at the multiples of block.  pair[0] + pair[1] is the carried
   log P before x[0], updated as series._two_sum updates it.  Each block is
   the numpy reference's steps: z = [pair[1], x...], s = the lmax_scan of z
   with carry pair[0], then x = s[1:] + pair[0].  z and s hold block + 1. */
void lmax_products(double *x, int64_t lo, int64_t n, int64_t block, double *z, double *s,
                   double *pair)
{
    for (int64_t i = 0, m; i < n; i += m) {
        double hi = pair[0];
        m = block - (lo + i) % block;
        m = m < n - i ? m : n - i;
        z[0] = pair[1];
        memcpy(z + 1, x + i, m * sizeof *x);
        lmax_scan(z, s, m + 1, hi);
        for (int64_t j = 0; j < m; j++) x[i + j] = s[j + 1] + hi;
        double w = s[m], t = hi + w, u = t - hi;
        pair[0] = t;
        pair[1] = (hi - (t - u)) + (w - u);
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
/* The widest cell is "-2.2250738585072014e-308"; an int64 needs 20 bytes.
   A cell or separator is written with stores that end by CELL_MAX bytes
   past its start, and the next one starts where its text ends. */
#define CELL_MAX 24
#define ASCII0 0x3030303030303030ULL

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the renderer stores digits as little-endian words"
#endif

static const uint64_t G[][2] = {
LMAX_G_TABLE
};

static const char DIGITS2[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 10^0 to 10^17; a double's shortest digits number at most 17. */
static const uint64_t POW10[18] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL, 100000000ULL,
    1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL, 100000000000000000ULL,
};

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
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    int64_t cmp = (int64_t)(vb - ((s + t) << 1));
    /* Computed whole and picked without a branch: which case holds
       depends on the value's last digits, and a branch would guess it. */
    uint64_t r = s + ((cmp > 0) | ((cmp == 0) & (int)s));
    r = uin != win ? s + win : r;
    return upin != wpin ? sp10 + 10 * wpin : r;
}

/* The eight decimal digits of v < 10^8 as the bytes of a word, the first
   digit in the lowest byte, each as a value 0-9.  v splits into two halves
   of 4 digits, each half into 2 and each of those into 1, every split done
   in all lanes of the word at once: x 10486 >> 20 is x / 100 for x < 10^4,
   and x 103 >> 10 is x / 10 for x < 100. */
static inline uint64_t bcd8(uint32_t v)
{
    uint64_t hi = v / 10000, x = hi | (uint64_t)(v - (uint32_t)hi * 10000) << 32;
    uint64_t q = x * 10486 >> 20 & 0x0000007f0000007fULL;
    x = q | (x - q * 100) << 16;
    q = x * 103 >> 10 & 0x000f000f000f000fULL;
    return q | (x - q * 10) << 8;
}

/* v < 10^8 in decimal at p, with one 8-byte store. */
static inline char *put_small(char *p, uint32_t v)
{
    uint64_t b = bcd8(v);
    int lead = b ? __builtin_ctzll(b) >> 3 : 7; /* zeros before the first digit; 0 keeps one */
    uint64_t a = (b + ASCII0) >> 8 * lead;
    memcpy(p, &a, 8);
    return p + 8 - lead;
}

/* u in decimal at p; the stores end by p + 20. */
static inline char *put_uint(char *p, uint64_t u)
{
    if (u < 100000000) return put_small(p, (uint32_t)u);
    uint64_t hi = u / 100000000;
    uint64_t lo = bcd8((uint32_t)(u - hi * 100000000)) + ASCII0;
    if (hi < 100000000)
        p = put_small(p, (uint32_t)hi);
    else {
        uint64_t top = hi / 100000000;
        uint64_t mid = bcd8((uint32_t)(hi - top * 100000000)) + ASCII0;
        p = put_small(p, (uint32_t)top);
        memcpy(p, &mid, 8);
        p += 8;
    }
    memcpy(p, &lo, 8);
    return p + 8;
}

static inline char *put_int(char *p, int64_t v)
{
    *p = '-';
    p += v < 0;
    return put_uint(p, v < 0 ? 0 - (uint64_t)v : (uint64_t)v);
}

/* repr(x): positional for 1e-4 <= |x| < 1e16, else d.ddde+XX; pad and len
   hold the spellings of inf, -inf and nan.  The stores end by p + 24. */
static inline char *put_double(char *p, double x, const char (*pad)[CELL_MAX], const size_t *len)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t frac = bits & (C_MIN - 1);
    int be = (int)(bits >> 52) & 0x7ff, e;
    if (be == 0x7ff) {
        int i = frac ? 2 : (int)(bits >> 63);
        memcpy(p, pad[i], CELL_MAX);
        return p + len[i];
    }
    *p = '-';
    p += bits >> 63;
    if (!(bits << 1)) {
        memcpy(p, "0.0", 4);
        return p + 3;
    }
    int q = (be ? be : 1) - 1075;
    uint64_t c = frac | (uint64_t)(be != 0) << 52;
    if (-53 < q && q <= 0 && !(c & ((1ULL << -q) - 1))) { /* an integer below 2^53 < 10^16 */
        uint64_t v = c >> -q;
        if (v < 10) { /* 1.0, the cumulative law's last value, and the other one-digit ones */
            uint32_t w = (uint32_t)('0' + v) | '.' << 8 | '0' << 16;
            memcpy(p, &w, 4);
            return p + 3;
        }
        p = put_uint(p, v);
        memcpy(p, ".0", 2);
        return p + 2;
    }
    uint64_t f = shortest(q, c, &e);
    /* f < 10^17 has nd digits, 16 or 17 unless x is subnormal.  Scaled to
       17, it is a first digit and two halves of 8, converted side by
       side; the zeros that end the halves are not significant, which
       leaves n digits. */
    int t = (64 - __builtin_clzll(f)) * 1233 >> 12;
    int nd = f >= POW10[15] ? 16 + (f >= POW10[16]) : t + (f >= POW10[t]);
    uint64_t f17 = f * POW10[17 - nd], hi = f17 / 100000000;
    uint32_t top = (uint32_t)(hi / 100000000);
    uint64_t bm = bcd8((uint32_t)hi - top * 100000000), bl = bcd8((uint32_t)(f17 - hi * 100000000));
    int n = bl ? 17 - (__builtin_clzll(bl) >> 3) : bm ? 9 - (__builtin_clzll(bm) >> 3) : 1;
    int dp = nd + e; /* x = 0.d1d2...dn 10^dp */
    uint64_t am = bm + ASCII0, al = bl + ASCII0;
    char d0 = (char)('0' + top);
    if (-4 < dp && dp <= 16) {
        if (dp <= 0) {
            memcpy(p, "0.000000", 8);
            p += 2 - dp;
        } else if (dp < n) { /* the point goes in after digit dp, at byte dp - 1 of am:al */
            int k = dp - 1;
            uint64_t m = (1ULL << 8 * (k & 7)) - 1, dot = (uint64_t)'.' << 8 * (k & 7);
            p[0] = d0;
            p[17] = (char)(al >> 56);
            if (k < 8) {
                al = al << 8 | am >> 56;
                am = (am & m) | dot | (am & ~m) << 8;
            } else
                al = (al & m) | dot | (al & ~m) << 8;
            memcpy(p + 1, &am, 8);
            memcpy(p + 9, &al, 8);
            return p + n + 1;
        } else { /* digits n + 1 to 17 are zeros, and dp <= 16 */
            p[0] = d0;
            memcpy(p + 1, &am, 8);
            memcpy(p + 9, &al, 8);
            memcpy(p + dp, ".0", 2);
            return p + dp + 2;
        }
        p[0] = d0;
        memcpy(p + 1, &am, 8);
        memcpy(p + 9, &al, 8);
        return p + n;
    }
    p[0] = d0;
    p[1] = '.';
    memcpy(p + 2, &am, 8);
    memcpy(p + 10, &al, 8);
    p += n > 1 ? n + 1 : 1;
    int x10 = dp - 1;
    unsigned ax = x10 < 0 ? -x10 : x10;
    p[0] = 'e';
    p[1] = x10 < 0 ? '-' : '+';
    if (ax >= 100) {
        p[2] = (char)('0' + ax / 100);
        ax %= 100;
        p++;
    }
    memcpy(p + 2, DIGITS2 + 2 * ax, 2);
    return p + 4;
}

/* A separator, with one CELL_MAX-byte store when it fits: a cell's CELL_MAX
   bytes of room follow it. */
static inline char *put_word(char *p, const char *w, const char *pad, size_t len)
{
    if (len <= CELL_MAX)
        memcpy(p, pad, CELL_MAX);
    else
        memcpy(p, w, len);
    return p + len;
}

/* A counted column's 64 bytes: its first value as an int64, which the
   kernel replaces by the counter's length, then the counter's ASCII
   digits, ending at byte COUNTER_END and with zeros before them. */
#define COUNTER_END 40

/* Render n_rows rows of n_cols columns into out[0:cap]: words[0], the rows
   joined by words[1], the cells of a row joined by words[2], then words[3];
   words[4..6] spell inf, -inf and nan.  kind[j] says what cols[j] points
   at: 0 int64 and 1 float64 cells, 2 a counted column (the values v, v + 1,
   ... from v >= 0 below 2^63; see COUNTER_END), which the kernel writes to.
   A row may take n_cols CELL_MAX + (n_cols - 1) len(words[2]) bytes, plus
   len(words[1]) after the first.  Returns the bytes written, or -1 if
   cap could be too small; nothing is written at or past out + cap. */
int64_t lmax_render(char *out, int64_t cap, int64_t n_rows, int64_t n_cols,
                    const int64_t *kind, void *const *cols, const char *const *words)
{
    size_t len[7];
    char pad[7][CELL_MAX];
    for (int i = 0; i < 7; i++) {
        len[i] = strlen(words[i]);
        memset(pad[i], 0, CELL_MAX);
        memcpy(pad[i], words[i], len[i] < CELL_MAX ? len[i] : CELL_MAX);
    }
    if (n_cols < 1 || len[4] > CELL_MAX || len[5] > CELL_MAX || len[6] > CELL_MAX) return -1;
    for (int64_t j = 0; j < n_cols; j++) {
        if (kind[j] != 2) continue;
        int64_t *c = cols[j], v = c[0];
        char digits[24], *d = digits;
        if (v < 0) return -1;
        int64_t n = put_uint(d, (uint64_t)v) - d;
        memset(c, 0, 64);
        memcpy((char *)c + COUNTER_END - n, digits, n);
        c[0] = n;
    }
    int64_t row_max = n_cols * CELL_MAX + (n_cols - 1) * (int64_t)len[2];
    char *p = out, *end = out + cap;
    if (cap < (int64_t)(len[0] + len[3])) return -1;
    memcpy(p, words[0], len[0]);
    p += len[0];
    for (int64_t r = 0; r < n_rows; r++) {
        if (end - p < (r ? (int64_t)len[1] : 0) + row_max + (int64_t)len[3]) return -1;
        if (r) p = put_word(p, words[1], pad[1], len[1]);
        for (int64_t j = 0; j < n_cols; j++) {
            if (j) p = put_word(p, words[2], pad[2], len[2]);
            if (kind[j] == 1)
                p = put_double(p, ((const double *)cols[j])[r], pad + 4, len + 4);
            else if (kind[j] == 0)
                p = put_int(p, ((const int64_t *)cols[j])[r]);
            else { /* print the counter, then add one to it */
                int64_t *c = cols[j], n = c[0];
                char *last = (char *)c + COUNTER_END - 1, *d = last;
                memcpy(p, last + 1 - n, CELL_MAX);
                p += n;
                while (*d == '9') *d-- = '0';
                if (d <= last - n) {
                    *d = '1';
                    c[0] = n + 1;
                } else
                    ++*d;
            }
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
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    c64, cu64, ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p
    lib.lmax_block.argtypes = [cu64, cu64, c64, i64, i64, i64, c64, c64]
    lib.lmax_block.restype = None
    lib.lmax_render.argtypes = [ptr, c64, c64, c64, ptr, ptr, ptr]
    lib.lmax_render.restype = c64
    lib.lmax_scan.argtypes = [ptr, ptr, c64, ctypes.c_double]
    lib.lmax_scan.restype = None
    lib.lmax_products.argtypes = [ptr, c64, c64, c64, ptr, ptr, ptr]
    lib.lmax_products.restype = None
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
    by the row separator, then ``tail``.  A range of step 1 inside
    [0, 2^63) is not expanded: the kernel counts it, an ASCII counter that
    gains one a row.  Any other range is expanded into an int64 array.
    The text is rendered into ``buf``, grown to the room the rows may take
    (24 bytes a cell plus the separators) and kept for the next call, and
    returned as a memoryview of its used part, for a binary stream to take
    as it is; the next render into ``buf`` overwrites it, and ``buf``
    cannot grow while the view is held.
    """
    kinds, arrays, lengths = [], [], []
    for c in columns:
        if isinstance(c, range) and c.step == 1 and 0 <= c.start and c.stop <= 2**63:
            # The kernel reads the first value and keeps its counter in the other 56 bytes.
            kinds.append(2)
            arrays.append(np.array([c.start, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64))
            lengths.append(len(c))
            continue
        a = (np.arange(c.start, c.stop, c.step, dtype=np.int64) if isinstance(c, range)
             else np.ascontiguousarray(c))
        if a.dtype not in (np.int64, np.float64) or a.ndim != 1:
            raise TypeError("render_rows takes 1-D int64 and float64 columns")
        kinds.append(int(a.dtype == np.float64))
        arrays.append(a)
        lengths.append(len(a))
    n_rows, n_cols = lengths[0], len(arrays)
    if lengths.count(n_rows) != n_cols or len(words) != 7:
        raise ValueError("columns differ in length, or words are not the seven render_rows takes")
    head, row_sep, cell_sep, tail = words[:4]
    # lmax_render's worst case: CELL_MAX bytes a cell, and every separator.
    cap = (len(head) + len(tail) + n_rows * (n_cols * _CELL_MAX + (n_cols - 1) * len(cell_sep))
           + max(n_rows - 1, 0) * len(row_sep))
    if len(buf) < max(cap, 1):  # a bytearray exports no address while empty
        buf += bytes(max(cap, 1) - len(buf))
    kind = np.array(kinds, dtype=np.int64)
    ptrs = (ctypes.c_void_p * n_cols)(*(a.ctypes.data for a in arrays))
    texts = (ctypes.c_char_p * len(words))(*(w.encode("ascii") for w in words))
    at = ctypes.addressof(ctypes.c_char.from_buffer(buf))
    used = lib.lmax_render(at, cap, n_rows, n_cols, kind.ctypes.data, ptrs, texts)
    if used < 0:
        raise RuntimeError("lmax_render needs more room than render_rows gave it")
    return memoryview(buf)[:used]

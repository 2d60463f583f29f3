"""Closed-form decay shapes and numerical estimation of their constants.

Large-n behavior of both the odds-ratio products and the excursion-maximum
pmf is a product of iterated-log powers (perturbed walks) or a geometric
law (constant drift).  The multiplicative constant in front is not known
in closed form for the perturbed families, so shapes are exposed with the
constant set to 1 and ``estimate_constant`` fits it numerically from the
exact tables, reporting a slow-variation drift indicator rather than
claiming a limit.

Branch table for the pmf shape (constant set to 1 unless shown):

    constant drift      rho = 1:   1 / (n (n+1))
                        rho < 1:   (1-rho)^2 rho^n
                        rho > 1:   (1-rho)^2 rho^-(n+1)
    perturbed "plus"    b = 1:     1 / (n log n ... log_{k-1} n (log_k n)^2)
                        b > 1:     1 / (n log n ... log_{k-2} n (log_{k-1} n)^b)
                        b < 1:     1 / (n log n ... log_{k-2} n (log_{k-1} n)^(2-b))
    perturbed "minus"   k = 1:     1/n^(b+2) if b > -1;  1/(n log^2 n) if b = -1;
                                   n^b if b < -1
                        k > 1:     1 / (n^3 log n ... log_{k-2} n (log_{k-1} n)^b)

and for the product shape: 1 / (n log n ... log_{k-2} n (log_{k-1} n)^b)
for "plus", its reciprocal for "minus", rho^n for constant drift.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .budget import _integer, check_depth
from .constant import _constant_logs
from .errors import DomainError, RangeError
from .excursion import _law
from .series import ProductSeries
from .walk import ConstantWalk, WalkSpec, _least_site, _log_above

__all__ = [
    "ShapeTarget",
    "AsymptoticShape",
    "resolve_shape",
    "log_shape",
    "ConstantFit",
    "estimate_constant",
]

# Iterated-log factors below this are treated as not yet in the asymptotic
# regime: shapes blow up spuriously where a factor crosses 0.
_MIN_FACTOR = 0.1

_LOG_DBL_MIN = math.log(2.2250738585072014e-308)


class ShapeTarget(enum.Enum):
    PRODUCT = "product"
    MAX_PMF = "max-pmf"


@dataclass(frozen=True)
class AsymptoticShape:
    """Resolved decay branch for one (walk, target) pair.

    ``factors`` lists (depth, exponent) pairs: the shape is the product of
    ``iterated_log(depth, n) ** -exponent`` over them, times the geometric
    part ``exp(log_coeff + n * n_coeff)``.  The symmetric constant-drift
    pmf branch ``1/(n(n+1))`` is kept as its own kind for exactness.
    """

    target: ShapeTarget
    spec: WalkSpec
    branch: str
    n_min_valid: int
    kind: str  # "logchain" | "simple-null" | "geometric"
    factors: tuple[tuple[int, float], ...] = ()
    log_coeff: float = 0.0
    n_coeff: float = 0.0


def _chain(first_depth: int, last_depth: int) -> list[tuple[int, float]]:
    """Unit-exponent factors log_d n for d in [first_depth, last_depth]."""
    return [(d, 1.0) for d in range(first_depth, last_depth + 1)]


def resolve_shape(spec: WalkSpec, target: ShapeTarget) -> AsymptoticShape:
    """Pick the decay branch for a walk; every parameter value has one.

    Raises:
        ConfigError: if the shape's validity threshold ``n_min_valid`` lies
            past any tabulable index (``PerturbedWalk(5, 1.0, "plus")``'s
            pmf shape needs ``log_5 n > 0.1``, so n > exp(7.9e8)).
    """
    if isinstance(spec, ConstantWalk):
        # L and log(max(r, 1/r) - 1) for r = e^L, each rounded once, as the tables round L.
        L, _, log_m1, _ = _constant_logs(spec.p, 0)
        if target is ShapeTarget.PRODUCT:
            return AsymptoticShape(target, spec, "product constant", 1, "geometric", n_coeff=L)
        if L == 0.0:
            return AsymptoticShape(target, spec, "constant rho=1", 1, "simple-null")
        # (1 - r)^2 r^n = (1/r - 1)^2 r^(n+2) below 1; (r - 1)^2 r^-(n+1) above.
        below = L < 0.0
        return AsymptoticShape(target, spec, "constant rho<1" if below else "constant rho>1", 1,
                               "geometric", log_coeff=2.0 * log_m1 - (1.0 + below) * abs(L),
                               n_coeff=-abs(L))

    k, b = spec.k, spec.b
    if target is ShapeTarget.PRODUCT:
        factors = _chain(0, k - 2) + [(k - 1, b)]
        if spec.sign == "minus":
            factors = [(d, -e) for d, e in factors]
        branch = f"product {spec.sign}"
    elif spec.sign == "plus":
        if b == 1.0:
            factors = _chain(0, k - 1) + [(k, 2.0)]
            branch = "plus b=1"
        elif b > 1.0:
            factors = _chain(0, k - 2) + [(k - 1, b)]
            branch = "plus b>1"
        else:
            factors = _chain(0, k - 2) + [(k - 1, 2.0 - b)]
            branch = "plus b<1"
    elif k == 1:
        if b > -1.0:
            factors = [(0, b + 2.0)]
            branch = "minus k=1 b>-1"
        elif b == -1.0:
            factors = [(0, 1.0), (1, 2.0)]
            branch = "minus k=1 b=-1"
        else:
            factors = [(0, -b)]
            branch = "minus k=1 b<-1"
    else:
        factors = [(0, 3.0)] + _chain(1, k - 2) + [(k - 1, b)]
        branch = "minus k>1"
    # Valid where every factor with a nonzero exponent exceeds _MIN_FACTOR; shallower
    # iterated logs are larger, so the deepest decides (depth 0, n > 0.1, if none).
    deepest = max((d for d, e in factors if e != 0.0), default=0)
    n_min_valid = _least_site(lambda n: _log_above(deepest, _MIN_FACTOR, n),
                              f"the first n with log_{deepest}(n) > {_MIN_FACTOR}")
    return AsymptoticShape(target, spec, branch, n_min_valid, "logchain", tuple(factors))


# math.log entry by entry: on some CPUs np.log differs from it in the last bit.
_math_log = np.frompyfunc(math.log, 1, 1)


def _log(x):
    return np.asarray(_math_log(x), dtype=np.float64)


def log_shape(s: AsymptoticShape, n: int | np.ndarray) -> float | np.ndarray:
    """``log`` of the decay shape at ``n``; always finite for valid ``n``.

    An int gives a float.  An int array gives a float array, equal entry by
    entry to the scalar values, bit for bit.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and n.min() < s.n_min_valid:
        raise DomainError(f"n={n.min()} below the shape's validity threshold {s.n_min_valid}")
    x = n.astype(np.float64)
    if s.kind == "simple-null":
        out = -_log(x) - _log(x + 1.0)
    else:
        total = 0.0
        for depth, exponent in s.factors:
            if exponent != 0.0:
                level = x
                for _ in range(depth + 1):  # log of the depth-fold iterated log
                    level = _log(level)
                total = total + exponent * level
        out = s.log_coeff + n * s.n_coeff - total
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class ConstantFit:
    """Samples of exact/shape with a slow-variation drift indicator.

    ``drift`` is ``|c(n_hi)/c(n_hi//2) - 1|``: small values mean the ratio
    varies slowly at the sampled scale.  This is a convergence *report*,
    never a limit claim.  ``underflowed`` records that some exact values
    left the linear double range and the fit ran purely in log space.
    ``log_shape`` is the shape's log at each sample, so the exact value
    there is ``exp(log_c_hat + log_shape)``.
    """

    target: ShapeTarget
    branch: str
    ns: np.ndarray
    log_c_hat: np.ndarray
    c_hat: np.ndarray
    drift: float
    underflowed: bool
    log_shape: np.ndarray


def estimate_constant(
    series: ProductSeries,
    s: AsymptoticShape,
    n_lo: int,
    n_hi: int,
    samples: int = 33,
) -> ConstantFit:
    """Fit the shape's constant on geometrically spaced n in [n_lo, n_hi].

    Requires ``n_min_valid <= n_lo < n_hi <= series.n_max`` and
    ``n_hi // 2 >= n_min_valid`` so the drift indicator is well defined.

    Non-integers raise ``RangeError``; ``samples`` is a size for ``budget.check_depth``.
    """
    n_lo, n_hi = _integer("n_lo", n_lo), _integer("n_hi", n_hi)
    if not (s.n_min_valid <= n_lo < n_hi <= series.n_max):
        raise RangeError(
            f"need n_min_valid={s.n_min_valid} <= n_lo < n_hi <= n_max={series.n_max}, "
            f"got n_lo={n_lo}, n_hi={n_hi}"
        )
    if n_hi // 2 < s.n_min_valid:
        raise RangeError(f"n_hi//2={n_hi // 2} below validity threshold {s.n_min_valid}")
    samples = check_depth("samples", samples)  # the length of the sample grid
    grid = np.sort(np.geomspace(n_lo, n_hi, samples).round().astype(np.int64))
    ns = grid[np.append(True, grid[1:] != grid[:-1])]  # np.unique, without its hash pass
    # The samples, then the two points of the drift indicator.
    at = np.append(ns, [n_hi, n_hi // 2])
    lp, ls = series.at(np.append(at - 1, at))  # the rows before, then the rows
    if s.target is ShapeTarget.PRODUCT:
        log_exact = lp[len(at):]
    else:
        log_exact = np.empty(len(at))
        _law(series.spec, at, lp[len(at):], ls[: len(at)], ls[len(at):], log_exact)
    log_shape_at = log_shape(s, at)
    log_c_at = log_exact - log_shape_at
    log_c = log_c_at[:-2]
    try:
        drift = abs(math.expm1(log_c_at[-2] - log_c_at[-1]))
    except OverflowError:  # c(n_hi) / c(n_hi // 2) is past e^709 (b = 1e9 at n_hi = 8)
        drift = math.inf
    underflowed = bool(np.any(log_exact[:-2] < _LOG_DBL_MIN))
    with np.errstate(over="ignore"):
        c_hat = np.exp(log_c)
    return ConstantFit(
        target=s.target,
        branch=s.branch,
        ns=ns,
        log_c_hat=log_c,
        c_hat=c_hat,
        drift=float(drift),
        underflowed=underflowed,
        log_shape=log_shape_at[:-2],
    )

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

from .errors import ConfigError, DomainError, RangeError
from .series import ProductSeries
from .walk import ConstantWalk, PerturbedWalk, WalkSpec, iterated_log, rho

__all__ = [
    "ShapeTarget",
    "AsymptoticShape",
    "resolve_shape",
    "log_shape",
    "shape_value",
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


def _n_min_valid(factors: tuple[tuple[int, float], ...]) -> int:
    depths = [d for d, e in factors if e != 0.0]
    if not depths:
        return 1
    deepest = max(depths)
    x = _MIN_FACTOR
    for _ in range(deepest):
        x = math.exp(x)
    n = max(1, math.ceil(x))
    while any(iterated_log(d, float(n)) < _MIN_FACTOR for d in depths):
        n += 1
    return n


def resolve_shape(spec: WalkSpec, target: ShapeTarget) -> AsymptoticShape:
    """Pick the decay branch for a walk; total over all parameter values."""
    if isinstance(spec, ConstantWalk):
        r = rho(spec, 1)
        if target is ShapeTarget.PRODUCT:
            return AsymptoticShape(target, spec, "product constant", 1, "geometric",
                                   n_coeff=math.log(r) if r != 1.0 else 0.0)
        if r == 1.0:
            return AsymptoticShape(target, spec, "constant rho=1", 1, "simple-null")
        if r < 1.0:
            return AsymptoticShape(target, spec, "constant rho<1", 1, "geometric",
                                   log_coeff=2.0 * math.log(1.0 - r), n_coeff=math.log(r))
        return AsymptoticShape(target, spec, "constant rho>1", 1, "geometric",
                               log_coeff=2.0 * math.log(r - 1.0) - math.log(r),
                               n_coeff=-math.log(r))

    k, b = spec.k, spec.b
    if target is ShapeTarget.PRODUCT:
        factors = _chain(0, k - 2) + [(k - 1, b)]
        if spec.sign == "minus":
            factors = [(d, -e) for d, e in factors]
        branch = f"product {spec.sign}"
        ftup = tuple(factors)
        return AsymptoticShape(target, spec, branch, _n_min_valid(ftup), "logchain", ftup)

    if spec.sign == "plus":
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
    ftup = tuple(factors)
    return AsymptoticShape(target, spec, branch, _n_min_valid(ftup), "logchain", ftup)


def log_shape(s: AsymptoticShape, n: int) -> float:
    """``log`` of the decay shape at ``n``; always finite for valid ``n``."""
    n = int(n)
    if n < s.n_min_valid:
        raise DomainError(f"n={n} below the shape's validity threshold {s.n_min_valid}")
    if s.kind == "simple-null":
        return -math.log(n) - math.log(n + 1.0)
    if s.kind == "geometric":
        return s.log_coeff + n * s.n_coeff
    total = 0.0
    for depth, exponent in s.factors:
        if exponent != 0.0:
            total -= exponent * math.log(iterated_log(depth, float(n)))
    return total


def shape_value(s: AsymptoticShape, n: int) -> float:
    """Decay shape at ``n`` in linear scale (may under/overflow; see log_shape)."""
    n = int(n)
    if n < s.n_min_valid:
        raise DomainError(f"n={n} below the shape's validity threshold {s.n_min_valid}")
    if s.kind == "simple-null":
        return 1.0 / (n * (n + 1.0))
    return math.exp(log_shape(s, n))


@dataclass(frozen=True, eq=False)
class ConstantFit:
    """Samples of exact/shape with a slow-variation drift indicator.

    ``drift`` is ``|c(n_hi)/c(n_hi//2) - 1|``: small values mean the ratio
    varies slowly at the sampled scale.  This is a convergence *report*,
    never a limit claim.  ``underflowed`` records that some exact values
    left the linear double range and the fit ran purely in log space.
    """

    target: ShapeTarget
    branch: str
    ns: np.ndarray
    log_c_hat: np.ndarray
    c_hat: np.ndarray
    drift: float
    underflowed: bool


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
    """
    n_lo, n_hi = int(n_lo), int(n_hi)
    if not (s.n_min_valid <= n_lo < n_hi <= series.n_max):
        raise RangeError(
            f"need n_min_valid={s.n_min_valid} <= n_lo < n_hi <= n_max={series.n_max}, "
            f"got n_lo={n_lo}, n_hi={n_hi}"
        )
    if n_hi // 2 < s.n_min_valid:
        raise RangeError(f"n_hi//2={n_hi // 2} below validity threshold {s.n_min_valid}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    ns = np.unique(np.geomspace(n_lo, n_hi, samples).round().astype(np.int64))
    # The samples, then the two points of the drift indicator.
    at = np.append(ns, [n_hi, n_hi // 2])
    if s.target is ShapeTarget.PRODUCT:
        log_exact = series.log_prod[at]
    else:
        log_exact = series.log_max_pmf(at)
    log_c_at = log_exact - np.array([log_shape(s, n) for n in at])
    log_c = log_c_at[:-2]
    drift = abs(math.expm1(log_c_at[-2] - log_c_at[-1]))
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
    )

"""Transition laws for nearest-neighbor walks on the nonnegative integers.

Two families are supported, both reflecting at the origin (a walk at 0
always steps to 1):

* ``ConstantWalk(p)``: step up with the same probability ``p`` from
  every positive site (the classical gambler's-ruin walk).
* ``PerturbedWalk(k, b, sign)``: step-up probability ``1/2 + delta_i``
  where the drift term ``delta_i`` decays like an iterated-logarithm
  series in the site index ``i``:

      lam(k, i, b) = 1/i + 1/(i log i) + ... + b/(i log i ... log_{k-1} i)

  with ``delta_i = +lam/4`` for ``sign="plus"`` and ``-lam/4`` for
  ``sign="minus"``.  Below the cutoff ``i0`` (the first index where the
  perturbation is defined and small enough to keep probabilities inside
  (0, 1)) the term is frozen at its value at ``i0``.

The down/up odds ratio ``rho(spec, i) = q_i / p_i`` drives every exact
formula downstream; it is exposed here in linear and log form.

Sign-symmetry note: for ``k=1`` the walk ``("plus", b)`` coincides with
``("minus", -b)``.  All drift arithmetic is routed through the signed
term ``delta_i`` using expressions that are IEEE-symmetric under
negation, so the two parameterizations produce bitwise-identical
probabilities, not merely close ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "ConstantWalk",
    "PerturbedWalk",
    "WalkSpec",
    "iterated_log",
    "perturbation",
    "compute_i0",
    "drift_term",
    "signed_drift",
    "step_up_prob",
    "rho",
    "log_rho",
    "signed_drift_array",
    "step_up_prob_array",
    "log_rho_array",
    "spec_params",
    "spec_from_params",
]

Sign = Literal["plus", "minus"]

# Largest tolerable start index for the i0 scan.  Deeper iterated-log
# towers put i0 beyond any tabulable range (k=6 needs i0 > exp(3.8e6)).
_I0_SCAN_LIMIT = 2**53


def iterated_log(m: int, x: float) -> float:
    """m-fold natural logarithm: the 0-fold iterate is ``x`` itself.

    Raises:
        DomainError: if any intermediate iterate is <= 0, so the next
            logarithm would leave the positive reals.
    """
    if m < 0:
        raise DomainError("iteration count must be nonnegative")
    if not x > 0:
        raise DomainError(f"iterated_log requires x > 0, got {x}")
    value = float(x)
    for _ in range(m):
        if value <= 0.0:
            raise DomainError(f"iterated log chain left (0, inf) at {value}")
        value = math.log(value)
    return value


def perturbation(k: int, i: float, b: float) -> float:
    """Drift series lam(k, i, b) = 1/i + 1/(i log i) + ... + b/(i log i ... log_{k-1} i).

    For ``k=1`` this is just ``b/i``.  Requires every denominator in the
    chain to be positive, i.e. the (k-1)-fold iterated log of ``i`` must
    be positive.
    """
    if k < 1:
        raise DomainError("perturbation depth k must be >= 1")
    if not i > 0:
        raise DomainError(f"site index must be positive, got {i}")
    if iterated_log(k - 1, float(i)) <= 0.0:
        raise DomainError(f"perturbation(k={k}) undefined at i={i}: iterated log chain is not positive")
    return float(_perturbation_array(k, np.array([float(i)]), b)[0])


def _perturbation_array(k: int, x: np.ndarray, b: float) -> np.ndarray:
    """lam(k, x, b) over a float array whose iterated-log chain is positive."""
    total = np.zeros_like(x)
    chain = x.copy()        # running product x * log x * ... * log_t x
    level = x.copy()        # current iterate log_t x
    for _ in range(k - 1):
        total += 1.0 / chain
        np.log(level, out=level)
        chain *= level
    total += b / chain
    return total


def _chain_start(k: int) -> int:
    """Smallest integer with a positive (k-1)-fold iterated log.

    ``log_{k-1} i > 0`` iff ``i`` exceeds the (k-2)-fold exponential of 1;
    scanning from there skips the (possibly enormous) undefined range.
    """
    if k <= 2:
        return 1
    tower = 1.0
    for _ in range(k - 2):
        # Guard before exponentiating: exp overflows long before the
        # comparison against the scan limit would.
        if tower >= math.log(_I0_SCAN_LIMIT):
            raise ConfigError(
                f"perturbation depth k={k} is unusable: the drift term is "
                f"undefined below exp({tower:.3g}), beyond any tabulable range"
            )
        tower = math.exp(tower)
    return max(1, math.floor(tower))


def compute_i0(k: int, b: float) -> int:
    """First index where the perturbation is defined and small.

    Scans upward for the least ``i`` with ``log_{k-1} i > 0`` and
    ``|lam(k, i, b)| / 4 < 1/2`` (strict).  Such an index always exists
    because the perturbation decays to 0.
    """
    if k < 1:
        raise ConfigError("perturbation depth k must be >= 1")
    i = _chain_start(k)
    while iterated_log(k - 1, float(i)) <= 0.0:
        i += 1
    # The chain is positive from here on; scan it in doubling blocks.
    size = 64
    while True:
        lam = _perturbation_array(k, np.arange(i, i + size, dtype=np.float64), b)
        small = np.abs(lam) / 4.0 < 0.5
        if small.any():
            return i + int(small.argmax())
        i, size = i + size, 2 * size


@dataclass(frozen=True)
class ConstantWalk:
    """Constant-drift walk: step up with probability ``p`` from every site >= 1."""

    p: float

    def __post_init__(self):
        if not (isinstance(self.p, (int, float, np.floating)) and 0.0 < self.p < 1.0):
            raise ConfigError(f"step-up probability must lie in (0, 1), got {self.p}")
        object.__setattr__(self, "p", float(self.p))


@dataclass(frozen=True)
class PerturbedWalk:
    """Iterated-logarithm drift walk with parameters (k, b, sign).

    ``sign="plus"`` means step-up probability ``1/2 + r_i`` (drift away
    from the origin when the perturbation is positive); ``"minus"`` means
    ``1/2 - r_i``.  ``i0`` is derived at construction and cached.
    """

    k: int
    b: float
    sign: Sign
    i0: int = field(init=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ConfigError(f"perturbation depth k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))
        if not (isinstance(self.b, (int, float, np.floating)) and math.isfinite(self.b)):
            raise ConfigError(f"perturbation coefficient b must be finite, got {self.b}")
        if self.sign not in ("plus", "minus"):
            raise ConfigError(f'sign must be "plus" or "minus", got {self.sign!r}')
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "i0", compute_i0(self.k, self.b))


WalkSpec = Union[ConstantWalk, PerturbedWalk]


def _at(array_fn, spec: WalkSpec, i) -> float:
    """Entry ``i`` of an array-path function: how the scalar API evaluates."""
    return float(array_fn(spec, np.array([i]))[0])


def drift_term(spec: PerturbedWalk, i: int) -> float:
    """Unsigned perturbation term ``r_i = lam(k, i, b)/4``, frozen at ``i0`` below it."""
    if not isinstance(spec, PerturbedWalk):
        raise ConfigError("drift_term is defined for PerturbedWalk specs only")
    d = _at(signed_drift_array, spec, i)
    return d if spec.sign == "plus" else -d


def signed_drift(spec: WalkSpec, i: int) -> float:
    """Signed drift ``delta_i = p_i - 1/2`` for either family at site ``i >= 1``."""
    return _at(signed_drift_array, spec, i)


def step_up_prob(spec: WalkSpec, i: int) -> float:
    """Step-up probability ``p_i``; the origin reflects (``p_0 = 1``)."""
    return _at(step_up_prob_array, spec, i)


def rho(spec: WalkSpec, i: int) -> float:
    """Down/up odds ratio ``q_i / p_i`` at site ``i >= 1``.

    For perturbed walks this is evaluated as ``(1 - 2 delta)/(1 + 2 delta)``
    directly from the drift term rather than from ``p_i``; forming ``p_i``
    first would lose the relative accuracy of ``rho - 1 ~ -4 delta`` for
    tiny drifts.
    """
    if i < 1:
        raise DomainError(f"site index must be >= 1, got {i}")
    if isinstance(spec, ConstantWalk):
        return (1.0 - spec.p) / spec.p
    d = signed_drift(spec, i)
    return (1.0 - 2.0 * d) / (1.0 + 2.0 * d)


def log_rho(spec: WalkSpec, i: int) -> float:
    """``log(q_i / p_i)``, kept accurate for drifts near zero via log1p."""
    return _at(log_rho_array, spec, i)


def signed_drift_array(spec: WalkSpec, i: np.ndarray) -> np.ndarray:
    """Vectorized ``delta_i`` over an integer site array (all entries >= 1)."""
    i = np.asarray(i)
    if i.size and i.min() < 1:
        raise DomainError("site indices must be >= 1")
    x = i.astype(np.float64)
    if isinstance(spec, ConstantWalk):
        return np.full_like(x, spec.p - 0.5)
    # Frozen region: evaluate lam at i0; live region: vectorized chain.
    r = _perturbation_array(spec.k, np.maximum(x, float(spec.i0)), spec.b) / 4.0
    return r if spec.sign == "plus" else -r


def step_up_prob_array(spec: WalkSpec, i: np.ndarray) -> np.ndarray:
    """Vectorized ``p_i`` over an integer site array (all entries >= 0).

    The origin reflects (``p_0 = 1``).  Constant walks return ``spec.p``
    itself, since ``0.5 + (p - 0.5)`` is not exact (p = 0.1).
    """
    i = np.asarray(i)
    if i.size and i.min() < 0:
        raise DomainError("site indices must be >= 0")
    if isinstance(spec, ConstantWalk):
        p = np.full(i.shape, spec.p)
    else:
        p = 0.5 + signed_drift_array(spec, np.maximum(i, 1))
    p[i == 0] = 1.0
    return p


def log_rho_array(spec: WalkSpec, i: np.ndarray) -> np.ndarray:
    """Vectorized ``log rho_i``; the workhorse behind series tabulation."""
    d2 = 2.0 * signed_drift_array(spec, i)
    return np.log1p(-d2) - np.log1p(d2)


def spec_params(spec: WalkSpec) -> dict:
    """Plain-dict form of the walk parameters, for report metadata."""
    if isinstance(spec, ConstantWalk):
        return {"family": "constant", "p": spec.p}
    return {"family": "perturbed", "sign": spec.sign, "k": spec.k, "b": spec.b}


def spec_from_params(params) -> WalkSpec:
    """Inverse of ``spec_params``; accepts any mapping with the same keys."""
    family = params.get("family")
    if family == "constant":
        return ConstantWalk(float(params["p"]))
    if family == "perturbed":
        return PerturbedWalk(k=int(params["k"]), b=float(params["b"]), sign=params["sign"])
    raise ConfigError(f"unknown walk family {family!r}")

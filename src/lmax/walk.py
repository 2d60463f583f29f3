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
formula downstream; ``rho`` gives one entry and, for perturbed walks,
``log_rho_array`` the log over a site array.  The families themselves
and their parameter checks are in ``spec``, which imports no numpy; they
are exported here too.

Sign-symmetry note: for ``k=1`` the walk ``("plus", b)`` coincides with
``("minus", -b)``.  All drift arithmetic is routed through the signed
term ``delta_i`` using expressions that are IEEE-symmetric under
negation, so the two parameterizations produce bitwise-identical
probabilities, not merely close ones.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DomainError
from .spec import ConstantWalk, PerturbedWalk, WalkSpec, spec_from_params, spec_params

__all__ = [
    "ConstantWalk",
    "PerturbedWalk",
    "WalkSpec",
    "iterated_log",
    "compute_i0",
    "step_up_prob",
    "rho",
    "signed_drift_array",
    "step_up_prob_array",
    "log_rho_array",
    "spec_params",
    "spec_from_params",
]

# Last site the threshold search (_least_site) probes: a power of two, so the gallop lands on it.
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


def _perturbation_array(k: int, x: np.ndarray, b: float) -> np.ndarray:
    """lam(k, x, b) over a float array whose iterated-log chain is positive."""
    total = 0.0
    chain = level = x       # running product x * log x * ... * log_t x; iterate log_t x
    for _ in range(k - 1):
        total = total + 1.0 / chain
        level = np.log(level)
        chain = chain * level
    return total + b / chain


def _least_site(crossed, what: str) -> int:
    """Least ``n >= 1`` with ``crossed(n)``, for a predicate that stays true once true.

    Gallops up in doubling strides, then bisects the last one (Bentley and
    Yao, Inf. Process. Lett. 5, 1976): O(log n) probes, O(1) memory.

    Raises:
        ConfigError: if ``crossed`` is still false at ``_I0_SCAN_LIMIT``.
    """
    lo, hi = 0, 1
    while not crossed(hi):
        if hi >= _I0_SCAN_LIMIT:
            raise ConfigError(f"{what} lies past 2**53, beyond any tabulable index")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    return hi


def _log_above(depth: int, floor: float, n: int) -> bool:
    """``iterated_log(depth, n) > floor``, false where the chain leaves (0, inf)."""
    try:
        return iterated_log(depth, float(n)) > floor
    except DomainError:
        return False


def compute_i0(k: int, b: float) -> int:
    """First index where the perturbation is defined and small.

    The least ``i`` with ``log_{k-1} i > 0`` and ``|lam(k, i, b)| / 4 < 1/2``
    (strict).  Once the chain is positive, |lam| only falls: every term
    falls for b >= 0, and for b < 0 lam rises wherever it is <= 0 while its
    positive part stays below 2.  So the test stays true once true.
    """
    if k < 1:
        raise ConfigError("perturbation depth k must be >= 1")

    def small(i: int) -> bool:
        return (_log_above(k - 1, 0.0, i)
                and abs(_perturbation_array(k, np.array([float(i)]), b)[0]) / 4.0 < 0.5)

    return _least_site(small, f"i0 of the depth-{k} walk with b={b:g}")


def _at(array_fn, spec: WalkSpec, i) -> float:
    """Entry ``i`` of an array-path function: how the scalar API evaluates."""
    return float(array_fn(spec, np.array([i]))[0])


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
    d = _at(signed_drift_array, spec, i)
    return (1.0 - 2.0 * d) / (1.0 + 2.0 * d)


def signed_drift_array(spec: PerturbedWalk, i: np.ndarray) -> np.ndarray:
    """Vectorized ``delta_i`` of a perturbed walk over an integer site array (all entries >= 1)."""
    i = np.asarray(i)
    if i.size and i.min() < 1:
        raise DomainError("site indices must be >= 1")
    # Frozen region: evaluate lam at i0; live region: vectorized chain.
    x = np.maximum(i, spec.i0).astype(np.float64)
    r = _perturbation_array(spec.k, x, spec.b) / 4.0
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


def log_rho_array(spec: PerturbedWalk, i: np.ndarray) -> np.ndarray:
    """Vectorized ``log rho_i = log((1 - 2 delta)/(1 + 2 delta)) = -2 atanh(2 delta)`` of a perturbed walk.

    One ``arctanh`` per entry; it is odd bit for bit, so the adjoint walk
    (the other sign) gets ``-log rho`` exactly.  Constant walks have one
    odds ratio, which ``series`` rounds once (``log_odds``).
    """
    d = signed_drift_array(spec, i)
    d *= 2.0
    np.arctanh(d, out=d)
    d *= -2.0
    return d

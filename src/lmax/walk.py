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
``log_rho_array`` the log over a range of sites.  The families themselves
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
    "BlockScratch",
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


def _perturbation_array(k: int, x: np.ndarray, b: float, out=None, level=None, term=None):
    """lam(k, x, b) into ``out`` over a float array x whose iterated-log chain is positive.

    The chain runs in place: x becomes the running product x log x ...
    log_t x (so k >= 2 overwrites it), ``level`` the iterate log_t x and
    ``term`` each term past the first, with the operations and the order of
    ``total = 0.0; total + 1/chain ... + b/chain``.  Each buffer is the length of x and
    made where None; ``out`` may be x for k = 1.
    """
    out = np.empty_like(x) if out is None else out
    np.divide(1.0 if k > 1 else b, x, out=out)
    np.add(0.0, out, out=out)  # total = 0.0 + the first term
    if k > 1:
        level = np.empty_like(x) if level is None else level
        term = np.empty_like(x) if term is None else term
    src = x
    for t in range(k - 1):
        np.log(src, out=level)
        src = level
        x *= level
        np.divide(1.0 if t < k - 2 else b, x, out=term)
        out += term
    return out


class BlockScratch:
    """Buffers of the drift chain over ranges of at most ``width`` sites.

    ``offsets`` holds 0.0 .. width - 1, a range's float sites less its
    start.  ``chain`` holds the three buffers of a k >= 2 chain (product,
    level, term), written on every call: one scratch per thread.
    """

    def __init__(self, k: int, width: int):
        self.offsets = np.arange(width, dtype=np.float64)
        self.chain = tuple(np.empty(width) for _ in range(3)) if k > 1 else None


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


def _sites(i, lowest: int) -> range:
    """``i``, checked to be a range of step 1 (the one site form) over sites >= ``lowest``."""
    if not isinstance(i, range) or i.step != 1:
        raise TypeError(f"sites must be a range of step 1, got {i!r:.60}")
    if i and i.start < lowest:
        raise DomainError(f"site indices must be >= {lowest}")
    return i


def _at(array_fn, spec: WalkSpec, i: int) -> float:
    """Entry ``i`` of an array function on the one-site range: how the scalar API evaluates."""
    return float(array_fn(spec, range(i, i + 1))[0])


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


def signed_drift_array(spec: PerturbedWalk, i: range, out=None, scratch: BlockScratch | None = None):
    """Vectorized ``delta_i`` of a perturbed walk over a range of sites >= 1, of step 1.

    The chain runs in place from the float sites ``scratch.offsets + start``
    (a ``BlockScratch``, made where None), with no site array built; below
    2**53 those sums are the integer sites exactly, and each entry is that
    of its one-site range.  The result goes to ``out`` where given.
    """
    m = len(_sites(i, 1))
    scratch = BlockScratch(spec.k, m) if scratch is None else scratch
    out = np.empty(m) if out is None else out
    x, level, term = (out, None, None) if spec.k == 1 else (a[:m] for a in scratch.chain)
    np.add(scratch.offsets[:m], float(i.start), out=x)
    if i.start < spec.i0:  # frozen region: evaluate lam at i0
        np.maximum(x, float(spec.i0), out=x)
    r = _perturbation_array(spec.k, x, spec.b, out, level, term)
    r *= 0.25  # lam / 4 bit for bit, as both round the same real, at a third of the cost
    return r if spec.sign == "plus" else np.negative(r, out=r)


def step_up_prob_array(spec: WalkSpec, i: range) -> np.ndarray:
    """Vectorized ``p_i`` over a range of sites >= 0, of step 1 (errors as ``signed_drift_array``).

    The origin reflects (``p_0 = 1``).  Constant walks return ``spec.p``
    itself, since ``0.5 + (p - 0.5)`` is not exact (p = 0.1).
    """
    origin = int(bool(_sites(i, 0)) and i.start == 0)  # where the sites >= 1 start
    p = np.full(len(i), spec.p if isinstance(spec, ConstantWalk) else 0.5)
    if isinstance(spec, PerturbedWalk):
        p[origin:] += signed_drift_array(spec, i[origin:])
    p[:origin] = 1.0
    return p


def log_rho_array(spec: PerturbedWalk, i: range, out=None, scratch: BlockScratch | None = None):
    """Vectorized ``log rho_i = log((1 - 2 delta)/(1 + 2 delta)) = -2 atanh(2 delta)`` of a perturbed walk.

    Sites (a range of step 1), ``out`` and ``scratch`` as
    ``signed_drift_array``, whose result the three steps overwrite.  One
    ``arctanh`` per entry; it is odd bit for bit, so the adjoint walk (the
    other sign) gets ``-log rho`` exactly.  Constant walks have one odds
    ratio, which ``series`` rounds once (``log_odds``).
    """
    d = signed_drift_array(spec, i, out, scratch)
    d *= 2.0
    np.arctanh(d, out=d)
    d *= -2.0
    return d

"""The parameters of a call, checked without numpy: a walk, a hitting query's levels, a simulation.

``ConstantWalk`` and ``PerturbedWalk`` are the two walk families that
``walk`` describes; ``spec_params`` and ``spec_from_params`` turn them into
plain dicts and back, and decide what each family needs.  ``SimConfig``
holds what ``montecarlo.run`` simulates, its counts checked by
``budget.check_count``.  Nothing here imports numpy, so a CLI call that
fails on its arguments, or that needs no table, does not load it.  A
numpy scalar is accepted where a Python number is; none can exist before
numpy is loaded, so the check looks for numpy's types only once it is.
A perturbed walk's cutoff ``i0`` is computed as the tables compute the
drift, by ``walk.compute_i0``, on numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Literal, Union

from .budget import _integer, check_count
from .errors import ConfigError, RangeError

__all__ = [
    "ConstantWalk",
    "PerturbedWalk",
    "WalkSpec",
    "HittingQuery",
    "SimConfig",
    "spec_params",
    "spec_from_params",
]

Sign = Literal["plus", "minus"]


def _number(x, kind: str) -> bool:
    """Whether ``x`` is a Python int (``kind="integer"``) or real, or a numpy one of that kind."""
    np = sys.modules.get("numpy")
    types = (int,) if kind == "integer" else (int, float)
    return isinstance(x, types) or (np is not None and isinstance(x, getattr(np, kind)))


class _Record:
    """Read-only fields, with the repr, equality and hash of a frozen dataclass.

    ``_fields`` names the fields in order, for the repr; equality and the
    hash read the first ``_compared`` of them.  A frozen dataclass would
    do, but importing ``dataclasses`` (and with it ``inspect``) and
    building the walk and query classes took 12 ms more of ``lmax hit --p``,
    which loads no numpy and takes about 0.09 s in all (2-core x86_64,
    ``python -X importtime``).
    """

    _fields: tuple[str, ...] = ()
    _compared = 0

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields[: self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ConstantWalk(_Record):
    """Constant-drift walk: step up with probability ``p`` from every site >= 1."""

    _fields, _compared = ("p",), 1
    p: float

    def __init__(self, p: float):
        if not (_number(p, "floating") and 0.0 < p < 1.0):
            raise ConfigError(f"step-up probability must lie in (0, 1), got {p}")
        self._set(p=float(p))


class PerturbedWalk(_Record):
    """Iterated-logarithm drift walk with parameters (k, b, sign).

    ``sign="plus"`` means step-up probability ``1/2 + r_i`` (drift away
    from the origin when the perturbation is positive); ``"minus"`` means
    ``1/2 - r_i``.  ``i0`` is derived at construction and cached; it takes
    no part in equality.
    """

    _fields, _compared = ("k", "b", "sign", "i0"), 3
    k: int
    b: float
    sign: Sign
    i0: int

    def __init__(self, k: int, b: float, sign: Sign):
        if not (_number(k, "integer") and k >= 1):
            raise ConfigError(f"perturbation depth k must be a positive integer, got {k}")
        if not (_number(b, "floating") and math.isfinite(b)):
            raise ConfigError(f"perturbation coefficient b must be finite, got {b}")
        if sign not in ("plus", "minus"):
            raise ConfigError(f'sign must be "plus" or "minus", got {sign!r}')
        from .walk import compute_i0  # the drift on numpy, as the tables evaluate it

        self._set(k=int(k), b=float(b), sign=sign, i0=compute_i0(int(k), float(b)))


WalkSpec = Union[ConstantWalk, PerturbedWalk]


class HittingQuery(_Record):
    """Levels for a two-boundary first-passage question: start k, targets a < b."""

    _fields, _compared = ("a", "k", "b"), 3
    a: int
    k: int
    b: int

    def __init__(self, a: int, k: int, b: int):
        for name, level in (("a", a), ("k", k), ("b", b)):
            if not _number(level, "integer"):
                raise RangeError(f"level {name} must be an integer, got {level!r}")
        if not (0 <= a <= k <= b and a < b):
            raise RangeError(f"need 0 <= a <= k <= b with a < b, got a={a}, k={k}, b={b}")
        self._set(a=a, k=k, b=b)


class SimConfig(_Record):
    """Simulation parameters; see ``montecarlo`` for the stream rules.

    ``spec`` must be a ``ConstantWalk`` or a ``PerturbedWalk``.  The counts
    must be integers, ``cap_height`` at least 2 and the others at least 1
    (``RangeError``), and ``seed`` must fit in 64 unsigned bits.
    """

    _fields, _compared = ("spec", "excursions", "seed", "workers", "cap_steps", "cap_height"), 6
    spec: WalkSpec
    excursions: int
    seed: int
    workers: int
    cap_steps: int
    cap_height: int

    def __init__(self, spec: WalkSpec, excursions: int, seed: int, workers: int = 1,
                 cap_steps: int = 1_000_000, cap_height: int = 1_000):
        if not isinstance(spec, (ConstantWalk, PerturbedWalk)):
            raise ConfigError(f"spec must be a ConstantWalk or a PerturbedWalk, got {spec!r}")
        # The C kernel takes C integers; a float or inf must fail here on both kernels.
        excursions = check_count("excursions", excursions)
        seed = _integer("seed", seed)
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        self._set(spec=spec, excursions=excursions, seed=seed,
                  workers=check_count("workers", workers),
                  cap_steps=check_count("cap_steps", cap_steps),
                  cap_height=check_count("cap_height", cap_height, least=2))


def spec_params(spec: WalkSpec) -> dict:
    """Plain-dict form of the walk parameters, for report metadata."""
    if isinstance(spec, ConstantWalk):
        return {"family": "constant", "p": spec.p}
    return {"family": "perturbed", "sign": spec.sign, "k": spec.k, "b": spec.b}


_FAMILY_KEYS = {"constant": ("p",), "perturbed": ("sign", "k", "b")}


def spec_from_params(params) -> WalkSpec:
    """Inverse of ``spec_params``; accepts any mapping with the same keys.

    The one place that decides which parameters each family needs; keys
    the family does not use are ignored.

    Raises:
        ConfigError: if the family is unknown or any of its keys is missing
            (the message names every missing key).
    """
    family = params.get("family")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown walk family {family!r}")
    missing = [key for key in _FAMILY_KEYS[family] if key not in params]
    if missing:
        raise ConfigError(f"{family} walk parameters lack {', '.join(map(repr, missing))}")
    if family == "constant":
        return ConstantWalk(float(params["p"]))
    return PerturbedWalk(k=int(params["k"]), b=float(params["b"]), sign=params["sign"])

"""Transient / null-recurrent / positive-recurrent trichotomy.

The label is decided by closed-form criteria in the walk parameters:

* constant drift: up-drift escapes (transient), symmetric is null
  recurrent, down-drift returns fast (positive recurrent);
* perturbed, depth 1: the sign-b plane splits at b = +-1 into
  transient / null / positive regions (and the "minus" family is the
  "plus" family with b negated);
* perturbed, depth >= 2: "plus" walks are transient iff b > 1 and
  otherwise null recurrent; "minus" walks are positive recurrent iff
  b > 1 and otherwise null recurrent.

For depth >= 2 "plus" walks with b <= 1 the closed-form criterion alone
says only "recurrent"; the null label follows by duality with the
adjoint walk (up/down probabilities swapped): a walk is positive
recurrent iff its adjoint is transient, and adjoint pairs are null
recurrent together.  Such labels carry ``Justification.ADJOINT`` so the
provenance stays visible.

``series_diagnostic`` summarizes the numeric growth of a tabulated
prefix-sum series.  It is advisory only: divergence through iterated
logarithms is slower than anything observable at finite n, so the
diagnostic never overrides the closed-form label.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import RangeError
from .spec import ConstantWalk, WalkSpec

if TYPE_CHECKING:
    from .series import ProductSeries

__all__ = [
    "APPARENTLY_CONVERGENT",
    "APPARENTLY_DIVERGENT",
    "Recurrence",
    "Justification",
    "SeriesDiagnostic",
    "Classification",
    "classify",
    "is_recurrent",
    "series_diagnostic",
]

APPARENTLY_CONVERGENT = "apparently convergent"
APPARENTLY_DIVERGENT = "apparently divergent"

# Prefix sums stalled to within this are reported as apparently convergent.
_STALL_TOL = 1e-6


class Recurrence(enum.Enum):
    TRANSIENT = "transient"
    NULL_RECURRENT = "null-recurrent"
    POSITIVE_RECURRENT = "positive-recurrent"


class Justification(enum.Enum):
    CRITERION = "criterion"
    ADJOINT = "adjoint"


@dataclass(frozen=True)
class SeriesDiagnostic:
    """Numeric growth summary of ``log(1 + sum of products)`` at two checkpoints, ``n_half`` and ``n_max``."""

    n_half: int
    n_max: int
    log_sum_half: float
    log_sum_max: float
    growth_exponent: float
    verdict: str


@dataclass(frozen=True)
class Classification:
    label: Recurrence
    justification: Justification


def classify(spec: WalkSpec) -> Classification:
    """Closed-form trichotomy label for a walk."""
    if isinstance(spec, ConstantWalk):
        if spec.p > 0.5:
            return Classification(Recurrence.TRANSIENT, Justification.CRITERION)
        if spec.p == 0.5:
            return Classification(Recurrence.NULL_RECURRENT, Justification.CRITERION)
        return Classification(Recurrence.POSITIVE_RECURRENT, Justification.CRITERION)

    b = spec.b
    if spec.k == 1:
        # "minus" at depth 1 is "plus" with the coefficient negated.
        eff = b if spec.sign == "plus" else -b
        if eff > 1.0:
            return Classification(Recurrence.TRANSIENT, Justification.CRITERION)
        if eff < -1.0:
            return Classification(Recurrence.POSITIVE_RECURRENT, Justification.CRITERION)
        return Classification(Recurrence.NULL_RECURRENT, Justification.CRITERION)

    if spec.sign == "plus":
        if b > 1.0:
            return Classification(Recurrence.TRANSIENT, Justification.CRITERION)
        return Classification(Recurrence.NULL_RECURRENT, Justification.ADJOINT)
    if b > 1.0:
        return Classification(Recurrence.POSITIVE_RECURRENT, Justification.CRITERION)
    return Classification(Recurrence.NULL_RECURRENT, Justification.CRITERION)


def is_recurrent(spec: WalkSpec) -> bool:
    return classify(spec).label is not Recurrence.TRANSIENT


def series_diagnostic(series: ProductSeries) -> SeriesDiagnostic:
    """Advisory growth summary of the tabulated prefix sums.

    Flags "apparently convergent" when the last half of the table moved
    the log prefix sum by less than 1e-6, "apparently divergent"
    otherwise, and reports the local growth exponent
    ``d log(1 + sum) / d log n`` over that half.

    Raises:
        RangeError: if the table stops below n = 2, so its last half is empty.
    """
    n = series.n_max
    if n < 2:
        raise RangeError(f"series_diagnostic needs a table to n >= 2, got n_max = {n}")
    nh = n // 2
    lh, lm = series.at([nh, n])[1].tolist()
    return SeriesDiagnostic(
        n_half=nh,
        n_max=n,
        log_sum_half=lh,
        log_sum_max=lm,
        growth_exponent=(lm - lh) / (math.log(n) - math.log(nh)),
        verdict=APPARENTLY_CONVERGENT if lm - lh < _STALL_TOL else APPARENTLY_DIVERGENT,
    )

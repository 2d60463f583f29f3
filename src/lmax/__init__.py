"""Exact and asymptotic law of the maximum of a random-walk excursion.

The walk lives on the nonnegative integers, reflects at 0, and steps up
from site i with probability p_i: either a constant p or 1/2 plus a
perturbation that decays through a chain of iterated logarithms.  An
excursion starts at 1 and ends on the first visit to 0; this package
computes the distribution of its maximum M exactly (in log space, to
arbitrary table depth), classifies the walk as transient / null /
positive recurrent, exposes the asymptotic decay shapes with numerically
fitted constants, and cross-checks everything against a seeded,
reproducible Monte Carlo simulator.
"""

from .asymptotics import (
    AsymptoticShape,
    ConstantFit,
    ShapeTarget,
    estimate_constant,
    log_shape,
    resolve_shape,
)
from .classify import (
    APPARENTLY_CONVERGENT,
    APPARENTLY_DIVERGENT,
    Classification,
    Justification,
    Recurrence,
    SeriesDiagnostic,
    classify,
    is_recurrent,
    series_diagnostic,
)
from .errors import (
    ConfigError,
    ConvergenceWarning,
    DomainError,
    RangeError,
    ResourceError,
)
from .excursion import (
    MaxPmfTable,
    TailMass,
    max_pmf_table,
    tail_mass,
)
from .first_passage import (
    HittingQuery,
    ReturnProbability,
    hit_before,
    return_prob,
)
from .montecarlo import BLOCK, CompareReport, SimConfig, SimResult, compare, run
from .series import ProductSeries, build
from .walk import (
    ConstantWalk,
    PerturbedWalk,
    WalkSpec,
    compute_i0,
    iterated_log,
    rho,
    spec_from_params,
    spec_params,
    step_up_prob,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # walk
    "ConstantWalk",
    "PerturbedWalk",
    "WalkSpec",
    "iterated_log",
    "compute_i0",
    "step_up_prob",
    "rho",
    "spec_params",
    "spec_from_params",
    # series
    "ProductSeries",
    "build",
    # classify
    "APPARENTLY_CONVERGENT",
    "APPARENTLY_DIVERGENT",
    "Recurrence",
    "Justification",
    "Classification",
    "SeriesDiagnostic",
    "classify",
    "is_recurrent",
    "series_diagnostic",
    # asymptotics
    "ShapeTarget",
    "AsymptoticShape",
    "resolve_shape",
    "log_shape",
    "ConstantFit",
    "estimate_constant",
    # first passage
    "HittingQuery",
    "hit_before",
    "ReturnProbability",
    "return_prob",
    # excursion maximum
    "MaxPmfTable",
    "max_pmf_table",
    "TailMass",
    "tail_mass",
    # monte carlo
    "BLOCK",
    "SimConfig",
    "SimResult",
    "run",
    "CompareReport",
    "compare",
    # errors
    "DomainError",
    "RangeError",
    "ConfigError",
    "ResourceError",
    "ConvergenceWarning",
]

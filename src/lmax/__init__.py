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

Exports load on first use (PEP 562): ``import lmax`` imports no submodule
and no numpy, and ``lmax.build`` or ``from lmax import build`` imports the
module that defines the name, with what it imports in turn.  Every
submodule is an attribute too (``lmax.series``).  So a command-line call
loads only the modules its command runs.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    # walk
    "ConstantWalk": "spec",
    "PerturbedWalk": "spec",
    "WalkSpec": "spec",
    "iterated_log": "walk",
    "compute_i0": "walk",
    "step_up_prob": "walk",
    "rho": "walk",
    "spec_params": "spec",
    "spec_from_params": "spec",
    # series
    "ProductSeries": "series",
    "build": "series",
    # classify
    "APPARENTLY_CONVERGENT": "classify",
    "APPARENTLY_DIVERGENT": "classify",
    "Recurrence": "classify",
    "Justification": "classify",
    "Classification": "classify",
    "SeriesDiagnostic": "classify",
    "classify": "classify",
    "is_recurrent": "classify",
    "series_diagnostic": "classify",
    # asymptotics
    "ShapeTarget": "asymptotics",
    "AsymptoticShape": "asymptotics",
    "resolve_shape": "asymptotics",
    "log_shape": "asymptotics",
    "ConstantFit": "asymptotics",
    "estimate_constant": "asymptotics",
    # first passage
    "HittingQuery": "spec",
    "hit_before": "first_passage",
    "ReturnProbability": "first_passage",
    "return_prob": "first_passage",
    # excursion maximum
    "MaxPmfTable": "excursion",
    "max_pmf_table": "excursion",
    "TailMass": "excursion",
    "tail_mass": "excursion",
    # monte carlo
    "BLOCK": "montecarlo",
    "SimConfig": "spec",
    "SimResult": "montecarlo",
    "run": "montecarlo",
    "CompareReport": "montecarlo",
    "compare": "montecarlo",
    # errors
    "DomainError": "errors",
    "RangeError": "errors",
    "ConfigError": "errors",
    "ResourceError": "errors",
    "ConvergenceWarning": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """An exported name, or a submodule, imported on first use."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups find it without this function
        return value
    if not name.startswith("__"):
        try:
            return importlib.import_module(f".{name}", __name__)  # which binds it here
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """The package module: a submodule never takes the place of an export of its name.

    Importing ``lmax.classify`` binds the module to the package's attribute
    ``classify``; the exported function keeps that name, as it does once
    ``from lmax import classify`` has run.
    """

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib
from fractions import Fraction

import numpy as np
import pytest

import lmax
from lmax import (
    ConfigError, ConstantWalk, HittingQuery, PerturbedWalk, ProductSeries, RangeError,
    SeriesDiagnostic, ShapeTarget, SimConfig, build, estimate_constant, max_pmf_table,
    resolve_shape, tail_mass,
)
from lmax.budget import check_count, check_depth

MODULES = ["asymptotics", "classify", "cli", "excursion", "first_passage", "montecarlo", "series", "walk"]

# Scalar and unused paths deleted in favour of the array and table paths.
REMOVED = {
    "walk": ["perturbation", "drift_term", "signed_drift", "log_rho"],
    "classify": ["near_criterion_boundary"],
    "asymptotics": ["shape_value"],
    "excursion": ["max_pmf", "log_max_pmf"],
    "series": ["table_blocks"],
}


def test_every_exported_name_resolves():
    for name in lmax.__all__:
        assert hasattr(lmax, name), name
    for mod in MODULES:
        module = importlib.import_module(f"lmax.{mod}")
        for name in module.__all__:
            assert hasattr(module, name), f"lmax.{mod}.{name}"
    namespace = {}
    exec("from lmax import *", namespace)
    assert set(lmax.__all__) <= set(namespace)


def test_removed_names_are_gone():
    for mod, names in REMOVED.items():
        module = importlib.import_module(f"lmax.{mod}")
        for name in names:
            assert not hasattr(lmax, name), name
            assert not hasattr(module, name), f"lmax.{mod}.{name}"
    for name in ("log_product", "log_one_plus_sum", "_check", "log_max_pmf"):
        assert not hasattr(ProductSeries, name), name
    fields = {f.name for f in dataclasses.fields(SeriesDiagnostic)}
    assert not fields & {"n_quarter", "log_sum_quarter"}


def _integer_entry_points():
    """Each entry point that takes an integer, as a call on it, with the class it refuses by."""
    walk = ConstantWalk(0.5)
    series = build(walk, 20)
    table, shape = max_pmf_table(series, 20), resolve_shape(walk, ShapeTarget.MAX_PMF)
    sim = {"spec": walk, "excursions": 3, "seed": 1}
    return {
        "check_count": (lambda n: check_count("n", n), RangeError),
        "check_depth": (lambda n: check_depth("n", n), RangeError),
        "SimConfig.excursions": (lambda n: SimConfig(**{**sim, "excursions": n}), RangeError),
        "SimConfig.workers": (lambda n: SimConfig(**sim, workers=n), RangeError),
        "SimConfig.cap_steps": (lambda n: SimConfig(**sim, cap_steps=n), RangeError),
        "HittingQuery.a": (lambda n: HittingQuery(n, 6, 9).a, RangeError),
        "HittingQuery.k": (lambda n: HittingQuery(0, n, 9).k, RangeError),
        "HittingQuery.b": (lambda n: HittingQuery(0, 1, n).b, RangeError),
        "PerturbedWalk.k": (lambda n: PerturbedWalk(n, 1.5, "plus").k, ConfigError),
        "tail_mass.n": (lambda n: tail_mass(table, n), RangeError),
        "estimate_constant.n_lo": (lambda n: estimate_constant(series, shape, n, 20), RangeError),
    }


@pytest.mark.parametrize("entry", list(_integer_entry_points()))
def test_every_integer_argument_takes_the_same_values(entry):
    # One rule, operator.index: Python and numpy integers, a 0-d integer
    # array and a bool pass, whatever the entry point, and a query's levels
    # and a walk's k are stored as ints; a float, a string or a Fraction of
    # the same value is refused with the entry point's own class.
    call, error = _integer_entry_points()[entry]
    for n in (5, np.int64(5), np.array(5), True):
        got = call(n)
        if entry.startswith(("HittingQuery", "PerturbedWalk")):
            assert type(got) is int and got == n, n
    for n in (5.0, np.float64(5), "5", Fraction(5)):
        with pytest.raises(error, match="integer"):
            call(n)

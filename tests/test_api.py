"""The public surface: every exported name resolves, and removed names stay gone."""

import dataclasses
import importlib

import lmax
from lmax import ProductSeries, SeriesDiagnostic

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

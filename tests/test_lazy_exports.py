"""The public surface under lazy loading: exports load on first use, and nothing else does."""

import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import lmax
from lmax import ConfigError, ConstantWalk, PerturbedWalk


def _child(code: str) -> str:
    """What ``code`` prints, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_numpy_and_no_submodule():
    code = (
        "import sys, lmax\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'lmax')))\n"
    )
    assert _child(code) == "['lmax']"


def test_dir_lists_every_export():
    assert set(lmax.__all__) <= set(dir(lmax))


def test_star_import_and_submodules_after_a_bare_import():
    code = (
        "import lmax\n"
        "series = lmax.series\n"
        "names = {}\n"
        "exec('from lmax import *', names)\n"
        "print(series.build is lmax.build is names['build'],\n"
        "      set(lmax.__all__) <= set(names), lmax.classify.__module__)\n"
    )
    assert _child(code) == "True True lmax.classify"


def test_an_export_keeps_its_name_once_its_module_loads():
    # Importing lmax.classify binds that module to the package's "classify"
    # name; the export, the function, keeps it.
    code = (
        "import lmax, lmax.classify\n"
        "print(callable(lmax.classify), lmax.classify is lmax.classify.__globals__['classify'])\n"
    )
    assert _child(code) == "True True"


def test_unknown_names_raise_attribute_error():
    for name in ("log_product", "no_such_module", "__wrapped__"):
        assert not hasattr(lmax, name), name
    with pytest.raises(AttributeError, match="no attribute 'log_product'"):
        lmax.log_product


@pytest.mark.parametrize("p", [np.float32(0.25), np.float64(0.25), 0.25])
def test_constant_walk_takes_numpy_and_python_reals(p):
    walk = ConstantWalk(p)
    assert walk.p == 0.25 and type(walk.p) is float


@pytest.mark.parametrize("p", [Fraction(1, 4), "0.25", None, np.array([0.25]), complex(0.25)])
def test_constant_walk_refuses_other_types(p):
    with pytest.raises(ConfigError, match="step-up probability"):
        ConstantWalk(p)


def test_perturbed_walk_takes_numpy_integers_and_refuses_floats_for_k():
    assert PerturbedWalk(np.int32(2), np.float32(1.5), "plus") == PerturbedWalk(2, 1.5, "plus")
    for k in (2.0, np.float64(2.0), "2"):
        with pytest.raises(ConfigError, match="positive integer"):
            PerturbedWalk(k, 1.5, "plus")
    for b in (Fraction(3, 2), "1.5"):
        with pytest.raises(ConfigError, match="finite"):
            PerturbedWalk(2, b, "plus")


def test_walk_checks_run_without_numpy():
    code = (
        "import sys\n"
        "from lmax.spec import ConstantWalk, PerturbedWalk\n"
        "from lmax.errors import ConfigError\n"
        "walk = ConstantWalk(0.25)\n"
        "refused = []\n"
        "for make in (lambda: ConstantWalk('0.25'), lambda: PerturbedWalk(0, 1.0, 'plus'),\n"
        "             lambda: PerturbedWalk(2, float('inf'), 'plus')):\n"
        "    try:\n"
        "        make()\n"
        "    except ConfigError:\n"
        "        refused.append(True)\n"
        "print(walk.p, refused, 'numpy' in sys.modules)\n"
        "print(PerturbedWalk(2, 1.5, 'plus').i0, 'numpy' in sys.modules)\n"
    )
    assert _child(code).splitlines() == ["0.25 [True, True, True] False", "2 True"]

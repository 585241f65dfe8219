"""Start-up: ctxpoly loads HiGHS's bindings without ``scipy.optimize``.

Each check but the last runs in a fresh interpreter, because this test
process has imported ``scipy.optimize`` by the time it runs them.
"""

import importlib.machinery
import subprocess
import sys

import pytest

import ctxpoly.lp

# One module object: the one scipy registered or ctxpoly loaded, which both
# ctxpoly and linprog's wrapper hold.
_ONE_COPY = """
core = sys.modules["scipy.optimize._highspy._core"]
print(ctxpoly.lp._highs is core, sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is core)
"""


def run_fresh(src_env, code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_import_loads_neither_scipy_optimize_nor_linalg(src_env):
    code = """
import sys, ctxpoly, ctxpoly.cli
print(sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules))
print(sys.modules.get("scipy.optimize._highspy._core") is ctxpoly.lp._highs)
"""
    assert run_fresh(src_env, code) == ["[]", "True"]


def test_linprog_imported_after_ctxpoly_runs_the_same_bindings(src_env):
    code = """
import sys
import numpy as np
import ctxpoly
from scipy.optimize import linprog
res = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], method="highs")
print(res.status, res.x.tolist())
lp = ctxpoly.LinearProgram(2, objective=np.array([-1.0, -2.0]))
lp.add_ineq(np.array([1.0, 1.0]), 1.0)
out = ctxpoly.solve_lp(lp)
print(out.status, out.x.tolist())
""" + _ONE_COPY
    assert run_fresh(src_env, code) == ["0 [0.0, 1.0]", "optimal [0.0, 1.0]", "True True"]


def test_ctxpoly_imported_after_scipy_optimize_reuses_its_bindings(src_env):
    code = """
import sys
import scipy.optimize
import ctxpoly
""" + _ONE_COPY
    assert run_fresh(src_env, code) == ["True True"]


def test_loader_reuses_a_registered_module_and_names_the_scipy_it_needs(monkeypatch):
    # No file of these suffixes exists: a registered module is reused without
    # a look for one, and without one the loader raises.
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    assert ctxpoly.lp._load_highs() is ctxpoly.lp._highs
    monkeypatch.delitem(sys.modules, ctxpoly.lp._HIGHS_MODULE)
    with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
        ctxpoly.lp._load_highs()

"""Each module's ``__all__`` is its one public list, and the package re-exports it."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qumodelab

ROOT = Path(__file__).resolve().parent.parent

MODULES = sorted(m.name for m in pkgutil.iter_modules(qumodelab.__path__))
# The runner is reached as ``qumodelab.cli``; the package does not re-export it.
LIBRARY = [name for name in MODULES if name != "cli"]


def module_all(name: str) -> set[str]:
    return set(getattr(importlib.import_module(f"qumodelab.{name}"), "__all__", ()))


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_and_classes_are_in_all(name):
    mod = importlib.import_module(f"qumodelab.{name}")
    defined = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert defined <= set(getattr(mod, "__all__", defined))


@pytest.mark.parametrize("name", LIBRARY)
def test_package_exports_each_module_all(name):
    mod = importlib.import_module(f"qumodelab.{name}")
    for attr in module_all(name):
        assert getattr(qumodelab, attr) is getattr(mod, attr), attr


def test_package_exports_nothing_else():
    public = {
        attr
        for attr, obj in vars(qumodelab).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    exported = set().union(*map(module_all, LIBRARY))
    # errors.py has no __all__; ``import *`` takes its three classes.
    assert public - exported == {"ContractViolation", "ConvergenceError", "ParamError"}


def test_test_references_and_duplicates_are_not_public():
    gone = {"qpe_circuit", "qudit_fourier", "controlled_power", "sbm_projector", "parity_split",
            "perfect_matching_count", "unflatten", "read_edge_list", "franck_condon_factor",
            "embed_single_mode", "evolve", "HERMITICITY_TOL", "density_of_states",
            "SnailParams", "snail_hamiltonian"}
    assert not gone & set(dir(qumodelab))
    assert not gone & set().union(*map(module_all, MODULES))


# numpy is the only runtime dependency; these happen to be installable next to it.
UNDECLARED = ("scipy", "numba", "threadpoolctl", "hypothesis")

RUN_EACH_PATH = """
import sys
import numpy as np
import qumodelab as q

q.excitation_sweep(1.0, [0.0, 2.0], 70, 6)
q.metapotential_dos(q.KerrCatParams(xi=2.0, cutoff=60), bins=12)
q.hafnian(np.ones((6, 6)) - np.eye(6))
reg = q.QumodeRegister((2,))
U = q.Operator(np.diag([1.0, -1.0]).astype(complex), reg)
q.run_qpe(q.QpeSpec(d=2, t=2, U=U, eigenstate=q.basis_state(reg, (1,))))
print(" ".join(name for name in %r if name in sys.modules))
"""


def test_library_runs_on_numpy_alone():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_EACH_PATH % (UNDECLARED,)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []

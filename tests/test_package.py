"""Each module's ``__all__`` is its one public list, and the package re-exports it."""

import ast
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
    # errors.py has no __all__; ``import *`` takes its two classes.
    assert public - exported == {"ConvergenceError", "ParamError"}


def test_test_references_and_duplicates_are_not_public():
    gone = {"qpe_circuit", "qudit_fourier", "controlled_power", "sbm_projector", "parity_split",
            "perfect_matching_count", "unflatten", "read_edge_list", "franck_condon_factor",
            "embed_single_mode", "evolve", "HERMITICITY_TOL", "density_of_states",
            "SnailParams", "snail_hamiltonian", "gate_matrix", "esqpt_energy",
            "ContractViolation"}
    assert not gone & set(dir(qumodelab))
    assert not gone & set().union(*map(module_all, MODULES))


# Public names that no code in src/ or demos/ calls, each kept on purpose.
KEPT_UNREFERENCED = {
    "identity": "the unit operator of a register, a building block of the Fock toolbox",
    "rotation": "one of the four GateSpec constructors; the benchmark's circuits build it",
    "kerrcat_hamiltonian": "the dense Kerr-cat operator that the sweep's bands stand for",
    # Multi-mode ladder constructors: they wait for the sector-built beamsplitter
    # (ROADMAP item 2), which decides whether fock._lift keeps a caller.
    "number": "the multi-mode number operator",
    "quadratures": "the multi-mode x and p operators",
}


def test_every_public_name_is_referenced_or_kept_on_purpose():
    referenced = set()
    for path in [*ROOT.glob("src/qumodelab/*.py"), *ROOT.glob("demos/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = set().union(*map(module_all, MODULES))
    assert public - referenced == set(KEPT_UNREFERENCED)


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

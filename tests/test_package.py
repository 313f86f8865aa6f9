"""Each module's ``__all__`` is its one public list, and the package re-exports it."""

import importlib
import inspect
import pkgutil

import pytest

import qumodelab

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
    assert public - exported == {"ContractViolation", "ConvergenceError"}


def test_test_references_and_duplicates_are_not_public():
    gone = {"qpe_circuit", "qudit_fourier", "controlled_power", "sbm_projector", "parity_split",
            "perfect_matching_count", "unflatten", "read_edge_list", "franck_condon_factor"}
    assert not gone & set(dir(qumodelab))
    assert not gone & set().union(*map(module_all, MODULES))

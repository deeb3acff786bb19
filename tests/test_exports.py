"""The public names: each module's `__all__` and the package's re-exports."""

import importlib
import types

import pytest

import sgdist as sg

MODULES = ["core", "distance", "products", "spectra", "catalog"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"sgdist.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_exactly_the_modules_all():
    modules = [importlib.import_module(f"sgdist.{m}") for m in MODULES]
    homes = {n: module for module in modules for n in module.__all__}
    public = {n for n, v in vars(sg).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(homes)
    assert [n for n, home in homes.items() if getattr(sg, n) is not getattr(home, n)] == []


@pytest.mark.parametrize("name", ["signed_bfs", "brute_force_summary", "PairDistanceSummary"])
def test_reference_oracles_are_not_library_names(name):
    # The per-source BFS and the path enumeration are test references
    # (tests/oracles.py); the library answers with the all-sources pass.
    assert not hasattr(sg, name) and not hasattr(sg.distance, name)

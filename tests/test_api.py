"""Every name that a module of the package lists in ``__all__`` resolves, so
``from riskmdp.<module> import *`` keeps working after a deletion."""

import importlib
import pkgutil

import pytest

import riskmdp

MODULES = sorted(m.name for m in pkgutil.iter_modules(riskmdp.__path__) if m.name != "__main__")


def test_the_package_has_its_modules():
    assert {"certificates", "cli", "mdp", "models", "oracles", "risk", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"riskmdp.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

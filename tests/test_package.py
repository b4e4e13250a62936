"""The package namespace: no export shadows a submodule."""

import importlib
import pkgutil
import types

import pytest

import demandlab

SUBMODULES = sorted(info.name
                    for info in pkgutil.iter_modules(demandlab.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_import_gives_the_module(name):
    # ``import demandlab.<name> as m`` binds the package attribute, so a
    # function exported under the same name would shadow the module
    module = importlib.import_module(f"demandlab.{name}")
    assert isinstance(module, types.ModuleType)
    namespace = {}
    exec(f"import demandlab.{name} as m", namespace)
    assert namespace["m"] is module


def test_every_exported_name_resolves():
    assert [name for name in demandlab.__all__
            if not hasattr(demandlab, name)] == []

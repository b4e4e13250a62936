"""The package namespace and what importing it loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import demandlab

SUBMODULES = sorted(info.name
                    for info in pkgutil.iter_modules(demandlab.__path__))
PACKAGE_ROOT = Path(demandlab.__file__).resolve().parents[1]
SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


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


def _loads_scipy(code: str) -> bool:
    """Whether ``code``, run in a fresh interpreter, leaves scipy loaded."""
    script = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)},
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1] == "True"


def test_import_does_not_load_scipy():
    assert not _loads_scipy("import demandlab")


@pytest.mark.parametrize("command, scenario, loads", [
    ("demand", "high_regime", False),
    ("classify", "high_regime", False),
    ("demand", "product_uniform", False),
    ("classify", "product_uniform", False),
    ("nonid", "twin_markets", False),
    # a beta marginal's inverse cdf needs scipy.special
    ("sample", "product_uniform", True),
])
def test_scipy_loads_only_for_special_functions(tmp_path, command, scenario,
                                                loads):
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.json"),
            "--out", str(tmp_path)]
    code = ("from demandlab.cli import main\n"
            f"assert main({argv!r}) == 0")
    assert _loads_scipy(code) is loads


def test_worker_threads_do_not_load_scipy():
    # the workers take the caller's scipy.special error state only when
    # scipy is already loaded
    assert not _loads_scipy(
        "from demandlab import workers\n"
        "workers._usable_cpus = lambda: 2\n"
        "workers.run(lambda i: None, 4)")

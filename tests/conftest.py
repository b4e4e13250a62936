"""Fixtures shared across the suite."""

import os
import sys
import threading
from pathlib import Path

import pytest

import demandlab
from demandlab import workers

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture(autouse=True)
def no_worker_outlives_its_run():
    """Fail a test after which a ``workers.run`` helper is still alive:
    every run joins its helpers before it returns."""
    yield
    alive = [t.name for t in threading.enumerate()
             if t.name.startswith("demandlab-worker")]
    assert not alive, f"workers alive after their run: {alive}"


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the affinity mask ``workers.run`` reads to n CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return set_cpus


@pytest.fixture
def drainers(monkeypatch):
    """The names of the threads that drained each threaded ``workers.run``
    of the test, one list per run: its caller and each of its helpers."""
    runs = {}
    drain = workers._drain

    def record(fn, items, *rest):
        # each run drains its own iterator
        runs.setdefault(items, []).append(threading.current_thread().name)
        drain(fn, items, *rest)

    monkeypatch.setattr(workers, "_drain", record)
    return runs.values()


@pytest.fixture
def declared_scripts_on_path(tmp_path, monkeypatch):
    """Put the console scripts that ``pyproject.toml`` declares on PATH.

    Each ``[project.scripts]`` entry ``name = "module:attr"`` becomes an
    executable ``name`` of the shape an installer writes, so a subprocess
    runs exactly the declared target without the package being installed.
    The child imports demandlab from wherever this process imported it.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, target in scripts.items():
        module, attr = target.split(":")
        script = bin_dir / name
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n")
        script.chmod(0o755)
    package_root = Path(demandlab.__file__).resolve().parents[1]
    monkeypatch.setenv("PATH", str(bin_dir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(package_root), prepend=os.pathsep)

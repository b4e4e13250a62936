"""Fixtures shared across the suite."""

import os
import sys
import threading
import traceback
from pathlib import Path

import pytest

import demandlab
from demandlab import workers

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


# The most helpers a run of any test so far could ask for: the pool of
# ``workers`` lives for the process, so it outlives each test.
_most_helpers = 0


def _idle(thread) -> bool:
    # an idle helper waits for a job in ``workers._serve`` itself, or is
    # still starting and has not reached it; items run in deeper frames
    codes = [frame.f_code for frame, _ in traceback.walk_stack(
        sys._current_frames().get(thread.ident))]
    serve = workers._serve.__code__
    return serve not in codes or codes[0] is serve


@pytest.fixture(autouse=True)
def workers_idle_and_bounded(monkeypatch):
    """Fail a test after which a worker thread is busy or the pool holds
    more threads than any run could use.

    Every ``workers.run`` waits for its helpers, so after a test no job
    is queued and every worker thread is idle, with no item in flight.
    The CPU counts ``workers._usable_cpus`` returns are recorded (tests
    set them through the affinity mask, see ``usable_cpus``), and the
    pool holds at most the largest of them, less one, seen so far.
    """
    read = workers._usable_cpus

    def recorded():
        global _most_helpers
        cpus = read()
        _most_helpers = max(_most_helpers, cpus - 1)
        return cpus

    monkeypatch.setattr(workers, "_usable_cpus", recorded)
    yield
    threads = [t for t in threading.enumerate()
               if t.name.startswith("demandlab-worker")]
    assert len(threads) <= _most_helpers, \
        f"{len(threads)} workers for at most {_most_helpers} helpers"
    assert workers._jobs.empty(), "a job outlived its run"
    busy = [t.name for t in threads if not _idle(t)]
    assert not busy, f"workers busy after their run: {busy}"


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

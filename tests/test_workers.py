"""The worker helper, the special-function calls it spreads over CPUs,
and the quadrature passes that stay on the calling thread."""

import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from demandlab import marginals, quadrature, workers
from demandlab.demand import (demand_curve, invert_demand,
                              quality_demand_surface)
from demandlab.marginals import SPLIT_MIN, MarginalSpec, _special
from demandlab.populations import (IndependentPopulation, MixturePopulation,
                                   ProductPopulation, RatioMarginalSpec,
                                   sample)
from helpers import beta_independent, population_zoo, same_bits, worker_names


def _many_blocks(monkeypatch):
    # a few intervals per block, so every pass below spans several
    monkeypatch.setattr(quadrature, "INTERVAL_BLOCK", 16)


def _results():
    """Every zoo surface with its estimates and a seeded sample large
    enough to split across CPUs, an independent demand curve, its ratio
    table and the table behind its ratio marginal, and one integral; the
    populations are built here, so no cached table comes from another CPU
    count."""
    xq = np.linspace(-2.0, 2.0, 48)
    prices = np.array([0.0, 0.6, 1.3, 2.2])
    out = []
    for pop in population_zoo().values():
        surface = quality_demand_surface(pop, xq, prices)
        out += [surface.values, surface.quadrature_errors,
                sample(pop, SPLIT_MIN + 3, seed=5)]
    pop = beta_independent()
    curve = demand_curve(pop, np.linspace(0.05, 3.0, 40))
    out += [curve.values, invert_demand(curve).G,
            pop._ratio_marginal().law.table.y]
    out.append(quadrature.integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0,
                                    tol=1e-12))
    return out


def _helper_counts(drainers):
    # one caller drains each run, with the helpers it started
    assert all(len(run) - len(worker_names(run)) == 1 for run in drainers)
    return [len(worker_names(run)) for run in drainers]


def test_results_keep_their_bits_whatever_the_cpu_count(
        monkeypatch, usable_cpus, drainers):
    _many_blocks(monkeypatch)
    usable_cpus(1)
    serial = _results()
    assert not drainers
    usable_cpus(3)
    threaded = _results()
    assert drainers and set(_helper_counts(drainers)) <= {1, 2}
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert same_bits(a, b)


@pytest.mark.parametrize("cpus", [1, 2])
def test_integer_shape_surfaces_take_no_scipy_and_keep_their_bits(
        monkeypatch, usable_cpus, drainers, cpus):
    # the closed-form beta cdf and pdf run in the quadrature blocks, on
    # the calling thread whatever the CPU count
    def no_scipy(name, *args):
        raise AssertionError(f"scipy.special.{name}")

    def surfaces():
        vm = MarginalSpec.scaled_beta(3.0, 2.0, lo=0.5, hi=1.5)
        xq = np.linspace(-1.5, 1.5, 64)
        prices = np.array([0.5, 0.9, 1.3])
        return [quality_demand_surface(pop, xq, prices).values for pop in (
            IndependentPopulation(
                MarginalSpec.scaled_beta(3.0, 4.0, lo=0.0, hi=1.0), vm),
            ProductPopulation(RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0),
                              vm))]

    _many_blocks(monkeypatch)
    usable_cpus(1)
    serial = surfaces()
    monkeypatch.setattr(marginals, "_special", no_scipy)
    usable_cpus(cpus)
    again = surfaces()
    assert not drainers
    assert all(same_bits(a, b) for a, b in zip(serial, again))


def _surface(pop):
    xq = np.linspace(-1.5, 1.5, 64)
    surface = quality_demand_surface(pop, xq, np.array([0.5, 0.9, 1.3]))
    return [surface.values, surface.quadrature_errors]


def test_quadrature_passes_start_no_thread(monkeypatch, usable_cpus,
                                           drainers):
    # conditional (ndtr or erf on every node), betainc and closed-form
    # kernels alike run every block on the calling thread, with their
    # 1-CPU bits
    vm = MarginalSpec.scaled_beta(3.0, 2.0, lo=0.5, hi=1.5)
    vk = MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0)
    pops = {
        "product": ProductPopulation(RatioMarginalSpec.uniform(1.0, 2.0), vm),
        "independent": IndependentPopulation(vk, vm),
        "vm_beta_2.5_2": IndependentPopulation(
            vk, MarginalSpec.scaled_beta(2.5, 2.0, lo=0.5, hi=1.5)),
        "vk_beta_2.5_3": IndependentPopulation(
            MarginalSpec.scaled_beta(2.5, 3.0, lo=0.0, hi=1.0), vm),
        "conditional": population_zoo()["conditional_low"]}
    pops["mixture"] = MixturePopulation(
        ((0.5, pops["independent"]), (0.5, pops["product"])))
    _many_blocks(monkeypatch)
    usable_cpus(1)
    serial = {name: _surface(pop) for name, pop in pops.items()}
    usable_cpus(3)
    seen = set()

    def integrand(nodes, rows):
        seen.add(threading.get_ident())
        return nodes

    quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), integrand,
                            tol=1e-10)
    assert seen == {threading.get_ident()}
    for name, pop in pops.items():
        assert all(same_bits(a, b)
                   for a, b in zip(serial[name], _surface(pop))), name
    assert not drainers


def _late_failure(i):
    # items from 5 on fail, each with its own message; the lowest of them
    # sleeps first, so on several CPUs it fails last
    if i >= 5:
        if i == 5:
            time.sleep(0.05)
        raise FloatingPointError(f"item {i}")


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_lowest_failing_block_raises(usable_cpus, drainers, cpus):
    usable_cpus(cpus)
    with pytest.raises(FloatingPointError, match=r"^item 5$"):
        workers.run(_late_failure, 10)
    assert _helper_counts(drainers) == ([] if cpus == 1 else [2])


def test_a_nested_call_starts_no_pool(usable_cpus, drainers):
    # a special function large enough to split, inside an item, runs on
    # the item's thread
    usable_cpus(3)
    q = np.random.default_rng(5).random(SPLIT_MIN + 3)
    got = [None] * 4

    def item(i):
        got[i] = _special("ndtri", q)

    workers.run(item, 4)
    assert _helper_counts(drainers) == [2]
    want = scipy.special.ndtri(q)
    assert all(same_bits(g, want) for g in got)


def test_one_cpu_starts_no_thread_in_segmented_gl(monkeypatch, drainers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(quadrature, "INTERVAL_BLOCK", 4)
    threads = threading.enumerate()
    seen = set()

    def integrand(nodes, rows):
        seen.add(threading.get_ident())
        return nodes

    quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), integrand,
                            tol=1e-10)
    assert seen == {threading.get_ident()}
    assert not drainers and threading.enumerate() == threads


def test_a_single_block_pass_runs_inline(usable_cpus, drainers):
    usable_cpus(3)
    seen = set()

    def integrand(nodes, rows):
        seen.add(threading.get_ident())
        return nodes

    quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), integrand,
                            tol=1e-10)
    assert not drainers and seen == {threading.get_ident()}


def test_an_idle_pool_keeps_nothing_of_a_run(usable_cpus):
    # no helper keeps the run's item once the run has returned
    usable_cpus(3)

    class Payload:
        pass

    payload = Payload()
    alive = weakref.ref(payload)
    workers.run(lambda i, payload=payload: None, 4)
    del payload
    assert alive() is None


def test_concurrent_callers_share_the_pool(usable_cpus):
    # four callers at once on four CPUs, switching threads as often as
    # the interpreter allows: every run takes each of its items once, on
    # its own three helpers (conftest checks that none outlives its run)
    usable_cpus(4)
    runs = []

    def caller():
        for _ in range(50):
            taken = [0] * 16

            def item(i):
                taken[i] += 1

            workers.run(item, 16)
            runs.append(taken)

    callers = [threading.Thread(target=caller) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert runs == [[1] * 16] * 200


# A child interpreter on two CPUs whatever the machine has; ``split``
# takes a special function on enough elements to split across CPUs, and
# ``pool`` lists the helper threads alive.
CHILD = """
import os, threading
os.sched_getaffinity = lambda pid: {0, 1}
import numpy as np
from demandlab import workers
from demandlab.marginals import SPLIT_MIN, _special

def split():
    q = np.linspace(0.01, 0.99, SPLIT_MIN + 3)
    return _special("ndtri", q).tobytes()

def pool():
    return [t.name for t in threading.enumerate()
            if t.name.startswith("demandlab-worker")]
"""


def _child(script: str) -> list:
    """The lines ``script`` prints in a child interpreter, which must exit
    with code 0 within 30 s."""
    path = str(Path(workers.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", CHILD + script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_pool_does_not_hold_up_exit():
    # a run joins its helper before it returns, so none is left at exit
    assert _child("split()\nprint(pool())") == ["[]"]


def test_a_failure_on_a_helper_leaves_the_pool_working():
    # the caller's first item waits until a helper's item has failed
    assert _child("""
failed = threading.Event()

def item(i):
    if threading.current_thread().name.startswith("demandlab-worker"):
        failed.set()
        raise FloatingPointError("on a helper")
    assert failed.wait(20)

try:
    workers.run(item, 10)
except FloatingPointError as exc:
    print(exc)
drainers, drain = set(), workers._drain

def record(*args):
    drainers.add(threading.current_thread().name)
    drain(*args)

workers._drain = record
two = split()
os.sched_getaffinity = lambda pid: {0}
print(two == split(), sorted(drainers), pool())
""") == ["on a helper",
         "True ['MainThread', 'demandlab-worker-1'] []"]

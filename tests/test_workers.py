"""The worker helper and the quadrature passes it spreads over CPUs."""

import os
import threading
import time

import numpy as np
import pytest
import scipy.special

from demandlab import marginals, quadrature, workers
from demandlab.demand import (demand_curve, invert_demand,
                              quality_demand_surface)
from demandlab.marginals import SPLIT_MIN, MarginalSpec, _special
from demandlab.populations import (IndependentPopulation, ProductPopulation,
                                   RatioMarginalSpec)
from helpers import beta_independent, population_zoo, same_bits


@pytest.fixture
def pools(monkeypatch):
    """The thread count of each pool that ``workers.run`` builds."""
    built = []
    real = workers.ThreadPoolExecutor

    def counting(threads, **kwargs):
        built.append(threads)
        return real(threads, **kwargs)

    monkeypatch.setattr(workers, "ThreadPoolExecutor", counting)
    return built


def _cpus(monkeypatch, n):
    monkeypatch.setattr(workers, "_usable_cpus", lambda: n)


def _many_blocks(monkeypatch):
    # a few intervals per block, so every pass below spans several
    monkeypatch.setattr(quadrature, "INTERVAL_BLOCK", 16)


def _results():
    """Every zoo surface with its estimates, an independent demand curve,
    its ratio table and the table behind its ratio marginal, and one
    integral; the populations are built here, so no cached table comes
    from another CPU count."""
    xq = np.linspace(-2.0, 2.0, 48)
    prices = np.array([0.0, 0.6, 1.3, 2.2])
    out = []
    for pop in population_zoo().values():
        surface = quality_demand_surface(pop, xq, prices)
        out += [surface.values, surface.quadrature_errors]
    pop = beta_independent()
    curve = demand_curve(pop, np.linspace(0.05, 3.0, 40))
    out += [curve.values, invert_demand(curve).G,
            pop._ratio_marginal().law.table.y]
    out.append(quadrature.integrate(lambda x: np.cos(200.0 * x), 0.0, 1.0,
                                    tol=1e-12))
    return out


def test_results_keep_their_bits_whatever_the_cpu_count(monkeypatch, pools):
    _many_blocks(monkeypatch)
    _cpus(monkeypatch, 1)
    serial = _results()
    assert pools == []
    _cpus(monkeypatch, 3)
    threaded = _results()
    assert pools and set(pools) <= {1, 2}
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert same_bits(a, b)


@pytest.mark.parametrize("cpus", [1, 2])
def test_integer_shape_surfaces_take_no_scipy_and_keep_their_bits(
        monkeypatch, pools, cpus):
    # the closed-form beta cdf and pdf run in the quadrature blocks
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
    _cpus(monkeypatch, 1)
    serial = surfaces()
    monkeypatch.setattr(marginals, "_special", no_scipy)
    _cpus(monkeypatch, cpus)
    again = surfaces()
    assert (set(pools) == {1}) if cpus == 2 else pools == []
    assert all(same_bits(a, b) for a, b in zip(serial, again))


def _late_failure(nodes, rows):
    # blocks from row 20 on fail, each with its own message; the lowest
    # of them sleeps first, so on several CPUs it fails last
    first = int(rows[0])
    if first >= 20:
        if first < 24:
            time.sleep(0.05)
        raise FloatingPointError(f"block from row {first}")
    return nodes


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_lowest_failing_block_raises(monkeypatch, pools, cpus):
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(quadrature, "INTERVAL_BLOCK", 4)
    with pytest.raises(FloatingPointError, match=r"^block from row 20$"):
        quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), _late_failure,
                                tol=1e-10)
    assert pools == ([] if cpus == 1 else [2])


def test_a_nested_call_starts_no_pool(monkeypatch, pools):
    # a special function large enough to split, inside an item, runs on
    # the item's thread
    _cpus(monkeypatch, 3)
    q = np.random.default_rng(5).random(SPLIT_MIN + 3)
    got = [None] * 4

    def item(i):
        got[i] = _special("ndtri", q)

    workers.run(item, 4)
    assert pools == [2]
    want = scipy.special.ndtri(q)
    assert all(same_bits(g, want) for g in got)


def test_one_cpu_starts_no_thread_in_segmented_gl(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(workers, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(quadrature, "INTERVAL_BLOCK", 4)
    seen = set()

    def integrand(nodes, rows):
        seen.add(threading.get_ident())
        return nodes

    quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), integrand,
                            tol=1e-10)
    assert seen == {threading.get_ident()}


def test_a_single_block_pass_runs_inline(monkeypatch, pools):
    _cpus(monkeypatch, 3)
    seen = set()

    def integrand(nodes, rows):
        seen.add(threading.get_ident())
        return nodes

    quadrature.segmented_gl(0.0, 1.0, np.empty((40, 0)), integrand,
                            tol=1e-10)
    assert pools == [] and seen == {threading.get_ident()}

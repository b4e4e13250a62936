"""End-to-end acceptance checks, one test per advertised capability.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Reference values are computed inside each test
from closed forms, never read back from the library's own quadrature.
"""

import math
import time

import numpy as np
import pytest

import demandlab as dl
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.marginals import MarginalSpec
from helpers import (HIGH_BOUND_U12, HIGH_MEAN_VM, LOW_BOUND_U12,
                     LOW_MEAN_VM, beta_independent, population_zoo,
                     seed_ratio)


def test_criterion_1_twin_populations_share_demand_but_split_regimes():
    start = time.perf_counter()
    low = pops.make_low_population(seed_ratio(), delta=0.5)
    high = pops.make_high_population(seed_ratio(), delta=0.04)

    grid = np.linspace(0.9, 2.1, 257)
    gap = np.max(np.abs(dl.demand_curve(low, grid).values
                        - dl.demand_curve(high, grid).values))
    assert gap <= 1e-10

    low_report = dl.classify(low)
    high_report = dl.classify(high)
    assert low_report.regime == "low"
    assert high_report.regime == "high"

    # closed forms for the Uniform[1, 2] seed
    assert low_report.mean_vm == pytest.approx(LOW_MEAN_VM, abs=1e-6)
    assert low_report.boundary_mean_vm == pytest.approx(0.5, abs=1e-6)
    assert high_report.mean_vm == pytest.approx(HIGH_MEAN_VM, abs=1e-6)
    assert high_report.boundary_mean_vm == pytest.approx(5.0, abs=1e-6)
    assert low_report.boundary_mean_vm <= 2.0 * low_report.mean_vm
    assert high_report.boundary_mean_vm > 2.0 * high_report.mean_vm

    assert time.perf_counter() - start <= 5.0


def test_criterion_2_offset_bounds_match_closed_forms_and_bracket_sweep():
    ratio = seed_ratio()
    low = dl.check_delta_bounds(ratio, 0.5, "low")
    high = dl.check_delta_bounds(ratio, 0.04, "high")
    assert low.bound == pytest.approx(1.0, abs=1e-9)
    assert high.bound == pytest.approx(0.5 * (math.sqrt(1.25) - 1.0),
                                       abs=1e-9)

    # sweep 100 offsets per family; offset number 50 hits the bound
    # exactly, so the accept/reject transition lands on it
    for family, bound in (("low", low.bound), ("high", high.bound)):
        deltas = bound * (np.arange(1, 101) / 50.0)
        flags = [dl.check_delta_bounds(ratio, float(d), family).ok
                 for d in deltas]
        expect = [(d <= bound) if family == "low" else (d < bound)
                  for d in deltas]
        assert flags == expect
        assert flags[48] and not flags[50]  # bracketing is tight


def test_criterion_3_demand_inversion_recovers_ratio_law_exactly():
    vm = MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5)
    forms = {
        "product_uniform": pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0), vm),
        "product_triangular": pops.ProductPopulation(
            pops.RatioMarginalSpec.triangular(0.8, 2.2, vm_hi=3.0), vm),
        "conditional_low": pops.make_low_population(seed_ratio(),
                                                    delta=0.5),
        "conditional_high": pops.make_high_population(seed_ratio(),
                                                      delta=0.04),
    }
    assert len(forms) >= 3
    for name, pop in forms.items():
        curve = dl.demand_curve(pop)
        table = dl.invert_demand(curve)
        want = pops.ratio_marginal(pop).cdf(table.r)
        err = np.max(np.abs(table.G - want))
        assert err <= 1e-12, (name, err)


def scaled_beta_moment(alpha, beta, lo, hi, m):
    """E[(lo + (hi-lo) B)**m] for B ~ Beta(alpha, beta), exactly."""
    out = 0.0
    for j in range(m + 1):
        raw = 1.0
        for i in range(j):
            raw *= (alpha + i) / (alpha + beta + i)
        out += math.comb(m, j) * lo ** (m - j) * (hi - lo) ** j * raw
    return out


def test_criterion_4_beta_cross_moments_recovered_to_tolerance():
    start = time.perf_counter()
    pop = beta_independent()
    config = ident.IdentificationConfig(0.5, 1.5, n_prices=9, max_order=4,
                                        n_quality=4096)
    report = ident.verify_recovery(pop, config)

    worst = 0.0
    for j in range(5):
        for k in range(5 - j):
            if j == k == 0:
                continue
            want = (scaled_beta_moment(2.0, 3.0, 0.0, 1.0, j)
                    * scaled_beta_moment(2.0, 2.0, 0.5, 1.5, k))
            got = report.recovered[j, k]
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-3
    assert time.perf_counter() - start <= 60.0


def test_criterion_5_seeded_samples_match_demand_and_moments():
    n = 10 ** 6
    for name, pop in population_zoo().items():
        draws = pops.sample(pop, n, seed=7)
        vk, vm = draws[:, 0], draws[:, 1]
        r = vk / vm

        sup = pop.support
        if sup.r_lo == sup.r_hi:
            prices = np.array([0.9, 1.0, 1.1]) * sup.r_lo
        else:
            prices = sup.r_lo + (sup.r_hi - sup.r_lo) * np.array(
                [0.15, 0.3, 0.5, 0.7, 0.85])
        for p in prices:
            want = dl.demand_at(pop, float(p))
            emp = float(np.mean(r >= p))
            band = 4.0 * math.sqrt(max(want * (1.0 - want), 0.0) / n)
            assert abs(emp - want) <= band + 1e-12, (name, p)

        table = pops.moments(pop, 2)
        for (j, k) in table.keys():
            if j == k == 0:
                continue
            obs = vk ** j * vm ** k
            se = float(np.std(obs)) / math.sqrt(n)
            diff = abs(float(np.mean(obs)) - table[j, k])
            assert diff <= 4.0 * se + 1e-12, (name, j, k)


def test_criterion_6_binned_money_means_track_conditional_profile():
    n = 10 ** 6
    families = {
        "low": pops.make_low_population(seed_ratio(), delta=0.5),
        "high": pops.make_high_population(seed_ratio(), delta=0.04),
    }
    edges = np.linspace(1.0, 2.0, 17)
    for name, pop in families.items():
        draws = pops.sample(pop, n, seed=11)
        vk, vm = draws[:, 0], draws[:, 1]
        r = vk / vm
        idx = np.clip(np.digitize(r, edges) - 1, 0, 15)
        for b in range(16):
            sel = vm[idx == b]
            assert sel.size > 1000, (name, b)
            mass, vm_int = pop._band_vm_moments(edges[b], edges[b + 1])
            want = vm_int / mass
            se = float(np.std(sel)) / math.sqrt(sel.size)
            assert abs(float(np.mean(sel)) - want) <= 4.0 * se, (name, b)


def test_criterion_7_quality_grid_shift_leaves_recovery_unchanged():
    pop = beta_independent()
    span = 2.25 * (1.0 + 1e-3)
    shift = 0.7
    base = ident.verify_recovery(pop, ident.IdentificationConfig(
        0.5, 1.5, n_prices=9, max_order=4, n_quality=4096,
        quality_span=(-span, span)))
    moved = ident.verify_recovery(pop, ident.IdentificationConfig(
        0.5, 1.5, n_prices=9, max_order=4, n_quality=4096,
        quality_span=(-span + shift, span + shift)))
    assert base.tail_mass <= 1e-12 and moved.tail_mass <= 1e-12
    worst = max(abs(base.recovered[key] - moved.recovered[key])
                for key in base.recovered.keys())
    assert worst <= 1e-9

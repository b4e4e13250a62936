import numpy as np
import pytest

import demandlab as dl
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.errors import MonotonicityViolation
from demandlab.marginals import MarginalSpec
from helpers import (benchmark_populations, column_kernel, continuous_zoo,
                     population_zoo, same_bits, seed_ratio, surface_zoo)


class TestPurchaseDecision:
    def test_truth_table(self):
        assert dl.purchase_decision(2.0, 1.0, 0.0, 1.5) == 1
        assert dl.purchase_decision(2.0, 1.0, 0.0, 2.5) == 0
        # indifference buys: vk + xq - vm * p = 0
        assert dl.purchase_decision(2.0, 1.0, 0.5, 2.5) == 1
        assert dl.purchase_decision(0.0, 1.0, -0.1, 0.5) == 0

    def test_quality_can_rescue_or_kill_a_sale(self):
        assert dl.purchase_decision(1.0, 1.0, 1.0, 1.5) == 1
        assert dl.purchase_decision(2.0, 1.0, -1.0, 1.5) == 0

    def test_money_value_must_be_positive(self):
        with pytest.raises(ValueError):
            dl.purchase_decision(2.0, 0.0, 0.0, 1.5)


class TestDemand:
    def test_uniform_ratio_closed_form(self):
        pop = pops.ProductPopulation(seed_ratio(3.0),
                                     MarginalSpec.uniform(0.5, 1.5))
        assert dl.demand_at(pop, 1.5) == pytest.approx(0.5, abs=1e-14)
        assert dl.demand_at(pop, 1.25) == pytest.approx(0.75, abs=1e-14)
        assert dl.demand_at(pop, 0.5) == 1.0
        assert dl.demand_at(pop, 3.0) == 0.0

    def test_price_must_be_positive(self):
        pop = pops.PointMassPopulation(2.0, 1.0)
        with pytest.raises(ValueError):
            dl.demand_at(pop, 0.0)

    def test_atom_buys_at_its_own_price(self):
        pop = pops.PointMassPopulation(2.0, 1.0)  # r = 2 exactly
        assert dl.demand_at(pop, 2.0) == 1.0
        assert dl.demand_at(pop, 2.0 + 1e-12) == 0.0
        assert dl.demand_at(pop, 1.0) == 1.0

    def test_price_array_keeps_its_shape(self):
        prices = np.array([[0.6, 0.9], [1.2, 1.5]])
        zoo = surface_zoo()
        for name in ("independent", "point_mass_vk", "point_mass_vm",
                     "mixture_with_conditional"):
            got = dl.demand_at(zoo[name], prices)
            want = [[dl.demand_at(zoo[name], p) for p in row]
                    for row in prices]
            assert same_bits(got, want), name

    def test_scale_covariance(self):
        # measuring money in different units moves prices with it
        c = 3.7
        base = pops.ProductPopulation(seed_ratio(3.0),
                                      MarginalSpec.uniform(0.5, 1.5))
        scaled = pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(c * 1.0, c * 2.0, vm_hi=3.0),
            MarginalSpec.uniform(0.5, 1.5))
        for p in (1.1, 1.5, 1.9):
            assert dl.demand_at(scaled, c * p) == pytest.approx(
                dl.demand_at(base, p), abs=1e-12)


class TestDemandCurve:
    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_rough_money_value_matches_integration_by_parts(self, alpha):
        # vm ~ Beta(alpha, 2) on [0.5, 1.5] has a density term
        # (vm - 0.5)^(alpha - 1); by parts, with vk ~ Beta(2, 3) on [0, 1],
        # D(p) = 1 - F_vk(1.5 p) + p int F_vm(u) f_vk(p u) du, whose
        # integrand is continuous; u = 0.5 + t^2 makes it smooth in t
        from scipy import integrate, special
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0),
            MarginalSpec.scaled_beta(alpha, 2.0, 0.5, 1.5))
        prices = np.linspace(0.05, 1.95, 39)
        curve = dl.demand_curve(pop, prices)

        def by_parts(p):
            top = np.sqrt(min(1.5, 1.0 / p) - 0.5)
            f = lambda t: (2.0 * t * special.betainc(alpha, 2.0, t * t)
                           * 12.0 * p * (0.5 + t * t)
                           * (1.0 - p * (0.5 + t * t)) ** 2)
            tail = integrate.quad(f, 0.0, top, epsabs=1e-13,
                                  epsrel=1e-13, limit=200)[0]
            return 1.0 - special.betainc(2.0, 3.0, min(1.0, 1.5 * p)) \
                + p * tail

        want = [by_parts(p) for p in prices]
        assert np.max(np.abs(curve.values - want)) <= 1e-10

    def test_default_grid_covers_the_choke_points(self):
        for name, pop in continuous_zoo().items():
            curve = dl.demand_curve(pop)
            assert curve.prices.size == 257, name
            assert curve.values[0] == pytest.approx(1.0, abs=1e-12), name
            assert curve.values[-1] == pytest.approx(0.0, abs=1e-12), name
            assert np.all(np.diff(curve.values) <= 1e-12), name

    def test_validation_rejects_bad_curves(self):
        p = np.array([1.0, 2.0, 3.0])
        with pytest.raises(MonotonicityViolation):
            dl.DemandCurve(p, np.array([0.5, 0.8, 0.9]))
        with pytest.raises(ValueError):
            dl.DemandCurve(p[::-1], np.array([0.9, 0.8, 0.5]))
        with pytest.raises(ValueError):
            dl.DemandCurve(p, np.array([1.2, 0.8, 0.5]))
        with pytest.raises(ValueError):
            dl.DemandCurve(np.array([-1.0, 2.0, 3.0]),
                           np.array([0.9, 0.8, 0.5]))

    def test_csv_layout(self):
        curve = dl.DemandCurve(np.array([1.0, 2.0]), np.array([0.75, 0.25]))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "p,D"
        assert len(lines) == 3
        assert lines[1] == "1,0.75"


class TestInvertDemand:
    def test_recovers_ratio_cdf(self):
        # forms whose ratio law is analytic must round-trip exactly
        zoo = continuous_zoo()
        exact = ("product", "conditional_low", "conditional_high")
        for name in exact:
            pop = zoo[name]
            curve = dl.demand_curve(pop)
            table = dl.invert_demand(curve)
            spec = pops.ratio_marginal(pop)
            err = np.max(np.abs(table.G - np.asarray(spec.cdf(table.r))))
            assert err <= 1e-12, (name, err)

    def test_tabulated_export_layer_stays_close(self):
        # independent/mixture ratio marginals are 2048-knot tabulations;
        # the inversion matches them within the tabulation resolution
        zoo = continuous_zoo()
        for name, tol in (("independent", 5e-6), ("mixture", 1e-4)):
            pop = zoo[name]
            table = dl.invert_demand(dl.demand_curve(pop))
            spec = pops.ratio_marginal(pop)
            err = np.max(np.abs(table.G - np.asarray(spec.cdf(table.r))))
            assert err <= tol, (name, err)

    def test_complementarity_with_demand(self):
        pop = pops.ProductPopulation(seed_ratio(3.0),
                                     MarginalSpec.uniform(0.5, 1.5))
        curve = dl.demand_curve(pop)
        table = dl.invert_demand(curve)
        assert np.allclose(table.G + curve.values, 1.0, atol=1e-15)

    def test_csv_layout(self):
        table = dl.invert_demand(
            dl.DemandCurve(np.array([1.0, 2.0]), np.array([0.75, 0.25])))
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "r,G"


class TestQualityDemand:
    def test_zero_quality_reduces_to_plain_demand(self):
        for name, pop in continuous_zoo().items():
            for p in (1.2, 1.5):
                assert dl.quality_demand(pop, 0.0, p) == pytest.approx(
                    dl.demand_at(pop, p), abs=1e-10), name

    def test_free_good_depends_only_on_good_value(self):
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0),
            MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))
        for xq in (-0.7, -0.3, 0.2):
            want = 1.0 - float(pop.vk.cdf(-xq))
            assert dl.quality_demand(pop, xq, 0.0) == pytest.approx(
                want, abs=1e-10)

    def test_free_good_tie_buys_for_a_point_mass_good_value(self):
        # at price 0 a consumer with vk + xq = 0 is indifferent and buys,
        # as the point-mass form has it
        pop = pops.IndependentPopulation(
            MarginalSpec.point_mass(0.7),
            MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))
        point = pops.PointMassPopulation(0.7, 1.0)
        for xq in (-0.7, -0.7 - 1e-7, -0.7 + 1e-7):
            assert dl.quality_demand(pop, xq, 0.0) == dl.quality_demand(
                point, xq, 0.0), xq
        assert dl.quality_demand(pop, -0.7, 0.0) == 1.0

    def test_monotone_in_quality_and_price(self):
        pop = population_zoo()["conditional_low"]
        xqs = np.linspace(-1.5, 1.5, 7)
        ds = [dl.quality_demand(pop, xq, 1.5) for xq in xqs]
        assert np.all(np.diff(ds) >= -1e-12)
        ps = np.linspace(1.1, 1.9, 7)
        ds = [dl.quality_demand(pop, 0.3, p) for p in ps]
        assert np.all(np.diff(ds) <= 1e-12)

    def test_monte_carlo_agrees(self):
        for name, pop in population_zoo().items():
            est, se = dl.quality_demand_mc(pop, 0.4, 1.5, n=200_000, seed=2)
            want = dl.quality_demand(pop, 0.4, 1.5)
            assert abs(est - want) <= 4 * max(se, 1e-12), name


class TestQualityDemandSurface:
    def test_matches_pointwise_evaluation(self):
        pop = population_zoo()["independent"]
        xq = np.linspace(-2.0, 1.5, 9)
        prices = np.array([0.6, 1.0, 1.4])
        surf = dl.quality_demand_surface(pop, xq, prices)
        for i in (0, 4, 8):
            for j in (0, 2):
                want = dl.quality_demand(pop, float(xq[i]),
                                         float(prices[j]))
                assert surf.values[i, j] == pytest.approx(want, abs=1e-10)

    def test_tail_mass_reflects_span(self):
        pop = population_zoo()["independent"]
        wide = dl.quality_demand_surface(
            pop, np.linspace(-4.0, 4.0, 33), np.array([1.0]))
        narrow = dl.quality_demand_surface(
            pop, np.linspace(-0.2, 0.2, 33), np.array([1.0]))
        assert wide.tail_mass <= 1e-12
        assert narrow.tail_mass > 0.1

    def test_column_lookup(self):
        pop = population_zoo()["product"]
        surf = dl.quality_demand_surface(pop, np.linspace(-3, 3, 5),
                                         np.array([1.0, 1.5]))
        assert np.array_equal(surf.column(1.5), surf.values[:, 1])
        with pytest.raises(ValueError):
            surf.column(1.25)

    def test_validation_rejects_non_monotone_values(self):
        grid = np.linspace(-1.0, 1.0, 3)
        prices = np.array([1.0, 2.0])
        good = np.array([[0.1, 0.0], [0.5, 0.3], [0.9, 0.8]])
        dl.QualityDemandSurface(grid, prices, good)
        with pytest.raises(MonotonicityViolation):
            dl.QualityDemandSurface(grid, prices,
                                    good[::-1, :])  # falls along quality
        with pytest.raises(MonotonicityViolation):
            dl.QualityDemandSurface(grid, prices,
                                    good[:, ::-1])  # rises along price

    def test_validation_rejects_non_finite_values(self):
        grid = np.linspace(-1.0, 1.0, 3)
        prices = np.array([1.0, 2.0])
        values = np.array([[0.1, 0.0], [0.5, np.nan], [0.9, 0.8]])
        with pytest.raises(MonotonicityViolation,
                           match=r"nan at quality 0\.0, price 2\.0"):
            dl.QualityDemandSurface(grid, prices, values)
        # a NaN quality offset spoils its own row of the surface
        xq = np.linspace(-3.0, 3.0, 9)
        xq[4] = np.nan
        pop = pops.make_low_population(seed_ratio(), delta=0.5)
        with pytest.raises(MonotonicityViolation, match="not finite"):
            dl.quality_demand_surface(pop, xq, prices)

    def test_carries_the_quadrature_error_of_each_column(self):
        xq = np.linspace(-3.0, 3.0, 33)
        prices = np.array([0.8, 1.2, 1.6])
        for name, pop in population_zoo().items():
            surf = dl.quality_demand_surface(pop, xq, prices)
            want = [column_kernel(pop, p, xq)[1] for p in prices]
            assert np.array_equal(surf.quadrature_errors, want), name
        grid = np.linspace(-1.0, 1.0, 3)
        good = np.array([[0.1, 0.0], [0.5, 0.3], [0.9, 0.8]])
        bare = dl.QualityDemandSurface(grid, prices[:2], good)
        assert np.array_equal(bare.quadrature_errors, [0.0, 0.0])
        with pytest.raises(ValueError, match="one quadrature error"):
            dl.QualityDemandSurface(grid, prices[:2], good, np.zeros(3))

    def test_equals_the_column_by_column_kernel(self):
        # every column's rows go to one kernel call, and rows where nobody
        # or everybody buys are computed once per column; values and
        # quadrature errors keep the bits of one kernel call per column at
        # a zero price, inside the ratio support and beyond it
        for name, pop in surface_zoo().items():
            sup = pop.support
            prices = np.array([0.0, 0.5 * sup.r_lo, sup.r_lo,
                               0.5 * (sup.r_lo + sup.r_hi), sup.r_hi,
                               1.5 * sup.r_hi + 0.1])
            prices = np.unique(prices)
            half = 1.2 * max(pop.vk_upper, prices[-1] * sup.vm_hi)
            xq = np.linspace(-half, half, 193)
            surf = dl.quality_demand_surface(pop, xq, prices)
            values, errors = zip(*(column_kernel(pop, p, xq)
                                   for p in prices))
            assert same_bits(surf.values,
                             np.clip(np.column_stack(values), 0.0, 1.0)), name
            assert same_bits(surf.quadrature_errors, errors), name

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_benchmark_surfaces_equal_the_column_by_column_kernel(
            self, seed):
        # the identify workloads' populations at their 9 prices, on the
        # default quality span with a quarter of its 4096 rows: one
        # batched call gives every column's bits
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        for name, pop in benchmark_populations(seed).items():
            xq = ident.default_quality_grid(pop, prices, 1024)
            surf = dl.quality_demand_surface(pop, xq, prices)
            values, errors = zip(*(column_kernel(pop, p, xq)
                                   for p in prices))
            assert same_bits(surf.values,
                             np.clip(np.column_stack(values), 0.0, 1.0)), name
            assert same_bits(surf.quadrature_errors, errors), name

    def test_csv_is_long_form(self):
        pop = population_zoo()["product"]
        surf = dl.quality_demand_surface(pop, np.linspace(-3, 3, 4),
                                         np.array([1.0, 1.5]))
        lines = surf.to_csv().strip().split("\n")
        assert lines[0] == "xQ,p,DQ"
        assert len(lines) == 1 + 4 * 2


class TestDefaultPriceGrid:
    def test_pads_past_the_support(self):
        pop = population_zoo()["product"]
        grid = dl.default_price_grid(pop)
        sup = pop.support
        assert grid.size == 257
        assert grid[0] == pytest.approx(sup.r_lo * (1 - 1e-3))
        assert grid[-1] == pytest.approx(sup.r_hi * (1 + 1e-3))
        assert np.all(np.diff(grid) > 0)

    def test_zero_lower_endpoint_gets_a_positive_floor(self):
        pop = population_zoo()["independent"]  # r_lo = 0
        grid = dl.default_price_grid(pop)
        assert grid[0] > 0

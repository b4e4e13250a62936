import hashlib
import warnings

import numpy as np
import pytest

import demandlab as dl
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.demand import csv_column, csv_text
from demandlab.errors import MonotonicityViolation
from demandlab.marginals import MarginalSpec
from helpers import (benchmark_populations, box_bounds, closed_form_roots,
                     column_kernel, continuous_zoo, full_range_profile,
                     live_offsets, population_zoo, same_bits, seed_ratio,
                     sine_table_low, surface_zoo, takes_closed_product)


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

    def test_nan_price_is_rejected(self):
        pop = pops.PointMassPopulation(2.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            dl.demand_at(pop, float("nan"))
        with pytest.raises(ValueError, match="positive"):
            dl.demand_curve(pop, [1.0, float("nan"), 2.0])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_curve_is_rejected(self, bad):
        with pytest.raises(ValueError, match="prices"):
            dl.DemandCurve(np.array([1.0, 2.0, bad]),
                           np.array([0.9, 0.8, 0.5]))
        with pytest.raises(ValueError, match="values"):
            dl.DemandCurve(np.array([1.0, 2.0, 3.0]),
                           np.array([0.9, bad, 0.5]))

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

    def test_nan_offset_or_price_is_refused(self):
        pop = pops.PointMassPopulation(2.0, 1.0)
        with pytest.raises(ValueError, match="offset"):
            dl.quality_demand(pop, np.nan, 1.0)
        with pytest.raises(ValueError, match="price"):
            dl.quality_demand(pop, 0.5, np.nan)

    def test_nan_price_is_refused_before_the_surface(self, monkeypatch):
        # a NaN price fails the price check up front, as in quality_demand,
        # instead of building the surface and failing its finiteness check
        xq = np.linspace(-1.0, 1.0, 5)
        zoo = benchmark_populations(3)
        for name in ("product", "independent", "low"):
            monkeypatch.setattr(type(zoo[name]), "_quality_surface", None)
            with pytest.raises(ValueError, match="price"):
                dl.quality_demand_surface(zoo[name], xq, [1.0, np.nan])
        with pytest.raises(ValueError, match="price"):
            dl.QualityDemandSurface(xq, [np.nan], np.zeros((5, 1)))

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

    def test_column_lookup_is_relative_at_tiny_prices(self):
        prices = np.linspace(1e-300, 2e-300, 5)
        surf = dl.QualityDemandSurface(np.linspace(-1.0, 1.0, 3), prices,
                                       np.tile([[0.0], [0.5], [1.0]], 5))
        for j, p in enumerate(prices):
            assert np.array_equal(surf.column(p), surf.values[:, j])

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
        # a NaN quality offset is refused before the surface is built,
        # as quality_demand refuses it
        xq = np.linspace(-3.0, 3.0, 9)
        xq[4] = np.nan
        pop = pops.make_low_population(seed_ratio(), delta=0.5)
        with pytest.raises(ValueError, match="quality offset must not be "
                                             "NaN"):
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

    # sha256 of the values and of the column estimates of each benchmark
    # population's surface at seed 5: a free price, then 9 Chebyshev
    # prices on [0.5, 1.5], on 1,024 rows of the default quality span
    SURFACE_PINS = {
        "high": (
            "d08cc613edb18c8f60aff4525ffccda03c030b71a798f04856996ffbae8c730b",
            "02b3bb5902d11667503b2ceb441590ab42af0c98728e284d656ed259d9aa94ed"),
        "independent": (
            "923be45b71c3950fd43c0b5d2117f01ab03345a966fc0c2e818d5f2c638d0f16",
            "4c2fbd5bf36349c4e009cc565931e2dbb3dcc4c82ed04a90456e64935717c4ad"),
        "low": (
            "809ed5a96f619bcb659a382b1b5d2a0ac226249ac3aaf1f6829496c3f75d2762",
            "e778b5162f36d4fd97c362fe197db7aa6725da9fb1d3d34c7ab08ba05fcde94d"),
        "mixture": (
            "e8a9a730103ad8e68065d214fe7ffd1e8a109210fcb6bc5afa6945d2c8555549",
            "8d6a747d8368d7ec71695ed23ae3ed38a6692345cfb928635973289e23f10f31"),
        "product": (
            "0a821d115fdcfa35e4e26bf671fe284fe5b253519da95ca2b72932ce59ede0e5",
            "1a1a460266cd054e6a637e522ca17943bd38432e64acdacc26e684c82de69fea"),
    }

    @pytest.mark.parametrize("name", sorted(SURFACE_PINS))
    def test_benchmark_surfaces_keep_their_bits(self, name):
        pop = benchmark_populations(5)[name]
        prices = np.concatenate(([0.0], ident.chebyshev_prices(0.5, 1.5, 9)))
        surf = dl.quality_demand_surface(
            pop, ident.default_quality_grid(pop, prices, 1024), prices)
        assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (
            surf.values, surf.quadrature_errors)) == self.SURFACE_PINS[name]

    def test_live_ranges_match_the_full_range_reference(self):
        # each kernel row integrates only where its inner cdf moves and
        # takes the outer law's cdf for the rest: every form of the zoos
        # and the benchmark twins, on the grid of the test above (zero
        # quality, a free price, prices at and beyond the ratio support),
        # agree with integrating every row over its whole range to 1e-15.
        # Where vm or vk has a non-integer shape (the graded forms), rows
        # are adaptive, and a row without its saturated intervals is
        # bisected on a different budget: there they agree within both
        # estimates.  So do product rows over a polynomial vm density,
        # which the kernel takes in closed form over the money value (the
        # benchmark product's rows differ by up to 4.5e-14), and
        # ratio_conditional rows, which the kernel integrates over the
        # money-value threshold and the reference over the ratio: a
        # benchmark twin's rows differ by up to 1.2e-14.
        # Rows beyond the support box's saturation bounds have an empty
        # live range and are exactly 0 or 1, also over a ratio table whose
        # cdf reads 1 + 2^-52 at its upper end
        zoo = {**surface_zoo(), **{f"continuous_{name}": pop for name, pop
                                   in continuous_zoo().items()}}
        zoo["product_sine_table"] = pops.ProductPopulation(
            sine_table_low(12).ratio, MarginalSpec.uniform(0.5, 1.5))
        for seed in (5, 97, 211):
            twins = benchmark_populations(seed)
            zoo[f"low{seed}"], zoo[f"high{seed}"] = twins["low"], twins["high"]
        for name, pop in zoo.items():
            sup = pop.support
            prices = np.unique(np.array([0.0, 0.5 * sup.r_lo, sup.r_lo,
                                         0.5 * (sup.r_lo + sup.r_hi),
                                         sup.r_hi, 1.5 * sup.r_hi + 0.1]))
            half = 1.2 * max(pop.vk_upper, prices[-1] * sup.vm_hi)
            xq = np.linspace(-half, half, 193)
            got, est = pop._quality_surface(prices, xq)
            want, want_est = full_range_profile(
                pop, np.tile(prices, xq.size), np.repeat(xq, prices.size))
            bound = 1e-15
            if (name in ("product_table", "graded_beta0.5", "graded_beta1.2",
                         "graded_beta2.5") or takes_closed_product(pop)
                    or isinstance(pop, pops.RatioConditionalPopulation)):
                bound = (bound + est
                         + np.max(want_est.reshape(xq.size, -1), axis=0))
            assert np.all(np.abs(got - want.reshape(xq.size, -1)) <= bound), \
                name
            if isinstance(pop, pops.MixturePopulation):
                continue
            for j, p in enumerate(prices.tolist()):
                nobody, everybody = box_bounds(pop, p)
                margin = pops.SATURATION_MARGIN
                assert np.all(got[xq < nobody - margin * abs(nobody), j]
                              == 0.0), name
                assert np.all(got[xq > everybody + margin * abs(everybody),
                                  j] == 1.0), name

    def test_live_ranges_of_edge_rows(self):
        # zero quality, NaN offsets, prices at zero, at and beyond the
        # ratio support, rows on the support box's saturation bounds and on
        # a conditional form's live offsets, a money value whose support
        # starts at 0, point masses, point-mass marginals and graded
        # shapes: each row as its full-range reference gives it, and a NaN
        # offset spoils its own row only
        zoo = surface_zoo()
        forms = {name: zoo[name] for name in (
            "product", "product_table", "independent", "graded_beta0.5",
            "conditional_low", "conditional_high", "fixed_high_table",
            "continuous_mixture", "point_mass", "point_mass_vk")}
        forms["product_point_vm"] = pops.ProductPopulation(
            seed_ratio(3.0), MarginalSpec.point_mass(1.2))
        for name, pop in forms.items():
            sup = pop.support
            p, xq = [], []
            for price in (0.0, sup.r_lo, 0.5 * (sup.r_lo + sup.r_hi),
                          sup.r_hi, 2.0 * sup.r_hi):
                bounds = [box_bounds(pop, price)]
                if isinstance(pop, pops.RatioConditionalPopulation):
                    bounds.append(live_offsets(pop, price))
                for nobody, everybody in bounds:
                    offsets = [0.0, -0.0, np.nan, nobody, everybody,
                               np.nextafter(everybody, -np.inf),
                               np.nextafter(nobody, np.inf),
                               0.5 * (nobody + everybody), 1e-300, -1e-300]
                    p += [price] * len(offsets)
                    xq += offsets
            p, xq = np.array(p), np.array(xq)
            got, est = pop._quality_profile(p, xq)
            want, want_est = full_range_profile(pop, p, xq)
            assert np.array_equal(np.isnan(got), np.isnan(xq)), name
            bound = (est + want_est + 1e-15 if name == "graded_beta0.5"
                     else 1e-15)
            assert np.all(np.abs(got - want)[~np.isnan(xq)]
                          <= np.broadcast_to(bound, xq.shape)[~np.isnan(xq)]
                          ), name

    def test_row_with_a_root_one_ulp_above_r_lo(self):
        # this row's first crossing root is r_lo + 1 ulp, so its hull
        # starts with a segment one ulp wide; its nodes stay inside it,
        # where the law's density is positive, and the row is finite,
        # without a warning, as its full-range reference gives it
        pop = sine_table_low(12)
        roots = closed_form_roots(pop, np.array([1.0]), np.array([0.84375]))
        assert roots[0][0, 0] == np.nextafter(pop.ratio.r_lo, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surf = dl.quality_demand_surface(pop, [0.84375], [1.0])
        want, _ = full_range_profile(pop, np.array([1.0]),
                                     np.array([0.84375]))
        assert abs(surf.values[0, 0] - want[0]) <= 1e-15

    def test_csv_is_long_form(self):
        pop = population_zoo()["product"]
        surf = dl.quality_demand_surface(pop, np.linspace(-3, 3, 4),
                                         np.array([1.0, 1.5]))
        lines = surf.to_csv().strip().split("\n")
        assert lines[0] == "xQ,p,DQ"
        assert len(lines) == 1 + 4 * 2


# Values whose text is easy to get wrong: signed zeros, the smallest
# subnormals, the largest finite values and fractions that need all 17
# digits.
TRICKY = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                   1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.5e-16,
                   1e-300, 123456789.125, 1.0, -2.0])


def per_element_csv(header, *columns):
    """CSV as the writers formed it before: one f-string per row of NumPy
    scalars."""
    rows = [",".join(f"{x:.17g}" for x in row) for row in zip(*columns)]
    return "\n".join([header, *rows]) + "\n"


class TestCsvText:
    def test_bytes_equal_the_per_element_format(self):
        a, b = TRICKY, TRICKY[::-1].copy()
        assert dl.RatioCdfTable(a, b).to_csv() == per_element_csv("r,G", a, b)
        assert dl.RatioCdfTable(a[:0], b[:0]).to_csv() == "r,G\n"
        assert (csv_text("x,y,z", *map(csv_column, (a, b, a * b)))
                == per_element_csv("x,y,z", a, b, a * b))

    def test_writers_keep_their_bytes(self):
        curve = dl.DemandCurve(np.array([5e-324, 0.1, 1e308]),
                               np.array([1.0, 1.0 / 3.0, -0.0]))
        assert curve.to_csv() == per_element_csv("p,D", curve.prices,
                                                 curve.values)
        xq = np.array([-3.0, -0.0, 5e-324, 1.0 / 3.0])
        prices = np.array([0.0, 0.1, 1.7])
        surf = dl.quality_demand_surface(population_zoo()["product"], xq,
                                         prices)
        rows = [(x, p, surf.values[i, j]) for i, x in enumerate(xq)
                for j, p in enumerate(prices)]
        assert surf.to_csv() == per_element_csv("xQ,p,DQ", *zip(*rows))


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

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_points_are_refused(self, n):
        # n = 1 would divide 0 by 0, and n = 0 give an empty grid
        with pytest.raises(ValueError, match="n >= 2"):
            dl.default_price_grid(population_zoo()["product"], n)

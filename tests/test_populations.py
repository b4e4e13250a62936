import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy import special, stats

from demandlab import identification as ident
from demandlab import inequality
from demandlab import populations as pops
from demandlab.demand import default_price_grid, quality_demand_surface
from demandlab.errors import (BoundViolation, DegenerateRatio, NoDensity,
                              QuadratureFailure)
from demandlab.marginals import MarginalSpec
from helpers import (HIGH_BOUND_U12, HIGH_MEAN_VM, LOW_BOUND_U12,
                     LOW_MEAN_VM, benchmark_populations, beta_independent,
                     column_kernel, kinked_h_custom, population_zoo,
                     same_bits, seed_ratio, surface_zoo)


class TestSupport:
    def test_validation(self):
        pops.Support(0.0, 2.0, 1.0)  # zero lower ratio endpoint is fine
        with pytest.raises(ValueError):
            pops.Support(-0.1, 2.0, 1.0)
        with pytest.raises(ValueError):
            pops.Support(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pops.Support(1.0, 2.0, 0.0)


class TestRatioMarginalSpec:
    def test_uniform_closed_forms(self):
        spec = seed_ratio()
        rs = np.array([1.0, 1.25, 1.75, 2.0])
        assert np.allclose(spec.pdf(rs), 1.0)
        assert np.allclose(spec.cdf(rs), rs - 1.0)
        assert np.allclose(spec.ppf(rs - 1.0), rs)
        for j in range(4):
            want = (2.0 ** (j + 1) - 1.0) / (j + 1)
            assert spec.moment(j) == pytest.approx(want, rel=1e-12)

    def test_triangular_density(self):
        spec = pops.RatioMarginalSpec.triangular(1.0, 3.0)
        assert float(spec.pdf(2.0)) == pytest.approx(1.0)  # peak 2/(hi-lo)
        assert float(spec.pdf(1.0)) == pytest.approx(0.0)
        assert float(spec.cdf(3.0)) == pytest.approx(1.0)
        assert float(spec.cdf(2.0)) == pytest.approx(0.5)

    def test_tabulated_requires_normalization(self):
        r = np.linspace(1.0, 2.0, 11)
        with pytest.raises(ValueError):
            pops.RatioMarginalSpec.tabulated(r, np.full(11, 1.02))

    def test_atoms_add_cdf_jumps(self):
        r = np.linspace(1.0, 2.0, 11)
        spec = pops.RatioMarginalSpec.tabulated(
            r, np.full(11, 0.75), atoms=((1.5, 0.25),))
        assert float(spec.cdf(1.5)) == pytest.approx(0.375 + 0.25)
        assert float(spec.cdf(1.5 - 1e-12)) == pytest.approx(0.375,
                                                             abs=1e-9)
        assert spec.moment(1) == pytest.approx(0.75 * 1.5 + 0.25 * 1.5)

    def test_degenerate_has_no_quantiles(self):
        spec = pops.RatioMarginalSpec.degenerate(1.5)
        assert not spec.has_density
        assert spec.moment(2) == pytest.approx(1.5 ** 2)
        with pytest.raises(DegenerateRatio):
            spec.ppf(0.5)


class TestConditionalSpec:
    def test_family_shapes(self):
        low = pops.ConditionalSpec("low", delta=0.5)
        high = pops.ConditionalSpec("high", delta=0.04)
        rs = np.linspace(1.0, 2.0, 7)
        assert np.allclose(low.h(rs, 1.0), rs - 1.0 + 0.5)
        assert np.allclose(high.h(rs, 1.0), 1.0 / np.sqrt(rs - 1.0 + 0.04))

    def test_h_integral_matches_quadrature(self):
        from demandlab.quadrature import integrate
        for spec in (pops.ConditionalSpec("low", delta=0.5),
                     pops.ConditionalSpec("high", delta=0.04)):
            want = integrate(lambda r: spec.h(r, 1.0), 1.2, 1.9, tol=1e-12)
            assert spec.h_integral(1.0, 1.2, 1.9) == pytest.approx(
                want, rel=1e-11)

    def test_nan_epsilon_is_rejected(self):
        with pytest.raises(ValueError, match="positive value"):
            pops.ConditionalSpec("low", delta=0.5, epsilon_kind="fixed",
                                 epsilon_value=float("nan"))

    def test_nan_offset_is_rejected(self):
        with pytest.raises(ValueError, match="delta > 0"):
            pops.ConditionalSpec("high", delta=float("nan"))


def test_truncated_normal_even_moments_match_scipy():
    a0 = 2.0
    ref = stats.truncnorm(-a0, a0)
    ours = pops._trunc_std_even_moments(a0, 8)
    for n in (2, 4, 6, 8):
        assert ours[n] == pytest.approx(ref.moment(n) / a0 ** n, rel=1e-12)


@pytest.mark.parametrize("sigma", np.geomspace(1e-2, 1e6, 17).tolist()
                         + [0.5, 0.4999])
def test_truncated_normal_moments_of_z_over_a0_match_quadrature(sigma):
    # E[U^n] for U = Z / a0 has the density exp(-a0^2 u^2 / 2) on
    # [-1, 1] up to a constant; that integrand is positive, so the
    # reference has no cancellation.  sigma = 0.5 takes the recursion
    a0 = 1.0 / sigma
    t = pops._trunc_std_even_moments(a0, 16)
    stops = sorted({min(k / a0, 1.0) for k in (1.0, 2.0, 4.0, 8.0)} - {1.0})

    def integral(n):
        value, _ = sci_integrate.quad(
            lambda u: u ** n * np.exp(-0.5 * a0 * a0 * u * u), 0.0, 1.0,
            epsabs=0.0, epsrel=1e-13, limit=500, points=stops or None)
        return value

    mass = integral(0)
    for n in range(2, 17, 2):
        assert t[n] == pytest.approx(integral(n) / mass, rel=1e-12), n
    assert t[1::2] == (0.0,) * 8
    # abs=0 keeps approx's default 1e-12 from hiding a relative error
    assert pops._trunc_mass(a0) == pytest.approx(
        math.erf(a0 / math.sqrt(2.0)), rel=1e-15, abs=0.0)


def test_grade_follows_the_roughest_end_point_term():
    # non-integer beta shapes are the only end-point terms; the grade is
    # the least m with every m s an integer or at least 2, at most 4
    assert MarginalSpec.scaled_beta(2.5, 0.7, 0.0, 1.0).end_shape == 0.7
    assert MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0).end_shape == np.inf
    assert MarginalSpec.uniform(0.0, 1.0).end_shape == np.inf
    shapes = (np.inf, 2.1, 1.5, 1.2, 0.5, 0.7, 0.6, 0.3)
    assert [pops._grade(s) for s in shapes] == [1, 1, 2, 2, 2, 3, 4, 4]
    assert pops._grade(0.5, 0.7) == 4


def test_quality_profile_reports_a_quadrature_error():
    # every row gets an estimate: closed forms report 0, quadrature forms
    # one within the surface tolerance, and a mixture the weighted sum of
    # its parts'
    xq = np.linspace(-3.0, 3.0, 65)
    zoo = population_zoo()
    for name, pop in zoo.items():
        values, errors = pop._quality_profile(1.3, xq)
        assert values.shape == errors.shape == xq.shape, name
        assert np.all((errors >= 0.0) & (errors <= pops.SURFACE_TOL)), name
    assert not np.any(zoo["point_mass"]._quality_profile(1.3, xq)[1])
    assert not np.any(zoo["independent"]._quality_profile(0.0, xq)[1])
    mix = zoo["mixture"]
    want = sum(w * pop._quality_profile(1.3, xq)[1]
               for w, pop in mix.components)
    assert np.array_equal(mix._quality_profile(1.3, xq)[1], want)
    assert np.max(want) > 0.0


def test_quadrature_failure_names_the_callers_row(monkeypatch):
    # the kernels hand segmented_gl their rows in another order (priced
    # rows only, or sorted by price and offset); a failure names the row
    # of the caller's arrays.  A stand-in segmented_gl fails on its last
    # row, which for the conditional form is the largest (price, offset)
    def fail_last(lo, hi, breaks, integrand, **kwargs):
        raise QuadratureFailure("stand-in", row=breaks.shape[0] - 1)

    monkeypatch.setattr(pops.quadrature, "segmented_gl", fail_last)
    p = np.array([1.4, 0.0, 1.4, 0.7, 0.0])
    xq = np.array([0.3, 0.9, -0.2, 0.5, -0.4])
    for pop, row in ((beta_independent(), 3),
                     (population_zoo()["conditional_low"], 0)):
        with pytest.raises(QuadratureFailure) as exc:
            pop._quality_profile(p, xq)
        assert exc.value.row == row


def _count_kernel_rows(monkeypatch, cls):
    """Record the row count of every ``cls._quality_profile`` call."""
    seen = []
    kernel = cls._quality_profile

    def counted(self, p, rows):
        seen.append(rows.size)
        return kernel(self, p, rows)

    monkeypatch.setattr(cls, "_quality_profile", counted)
    return seen


class TestMarginProfile:
    """One kernel call per surface, on the rows the prices can split."""

    def test_equals_the_kernel_on_unsorted_grids_with_a_nan(self):
        rng = np.random.default_rng(1)
        for name, pop in surface_zoo().items():
            sup = pop.support
            half = 1.2 * max(pop.vk_upper, 2.0 * sup.r_hi * sup.vm_hi)
            xq = np.linspace(-half, half, 151)
            xq = xq[rng.permutation(xq.size)]
            xq[7] = np.nan
            prices = np.array([0.0, 0.5 * sup.r_lo, sup.r_lo,
                               0.5 * (sup.r_lo + sup.r_hi), sup.r_hi,
                               2.0 * sup.r_hi])
            prices = prices[rng.permutation(prices.size)]
            got, got_err = pop._quality_surface(prices, xq)
            for j, p in enumerate(prices):
                want, want_err = column_kernel(pop, p, xq)
                assert same_bits(got[:, j], want), (name, p)
                assert same_bits(got_err[j], want_err), (name, p)

    def test_kernel_skips_most_rows_of_the_seed_twin(self, monkeypatch):
        # on the default grid the low twin's 9 columns go to one kernel
        # call; at p = 1 nobody buys below -2.25 and everybody above 0,
        # and over all 9 prices 26 % of the rows reach the kernel
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        xq = ident.default_quality_grid(low, prices, 4096)
        seen = _count_kernel_rows(monkeypatch,
                                  pops.RatioConditionalPopulation)
        low._quality_surface(prices, xq)
        assert len(seen) == 1
        assert seen[0] <= 0.4 * xq.size * prices.size

    def test_kernel_runs_once_per_component_of_a_mixture(self, monkeypatch):
        mix = benchmark_populations(3)["mixture"]
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        xq = ident.default_quality_grid(mix, prices, 4096)
        seen = {cls: _count_kernel_rows(monkeypatch, cls) for cls in (
            pops.MixturePopulation, pops.IndependentPopulation,
            pops.ProductPopulation)}
        quality_demand_surface(mix, xq, prices)
        assert [len(rows) for rows in seen.values()] == [0, 1, 1]

    def test_independent_bounds_are_its_own(self, monkeypatch):
        # nobody buys below p vm.lo - vk.hi and everybody above
        # p vm.hi - vk.lo, tighter than the support box: on the default
        # grid under 45 % of the rows reach the kernel, against 55 % with
        # the box
        pop = benchmark_populations(3)["independent"]
        assert pop._saturation_bounds(1.2) == (1.2 * 0.5 - 1.0, 1.2 * 1.5)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        xq = ident.default_quality_grid(pop, prices, 4096)
        seen = _count_kernel_rows(monkeypatch, pops.IndependentPopulation)
        own = pop._quality_surface(prices, xq)
        monkeypatch.setattr(pops.IndependentPopulation, "_saturation_bounds",
                            pops.Population._saturation_bounds)
        box = pop._quality_surface(prices, xq)
        assert seen[0] <= 0.45 * xq.size * prices.size < seen[1]
        assert same_bits(own[0], box[0]) and same_bits(own[1], box[1])

    def test_twin_bounds_are_their_own(self, monkeypatch):
        # the range of vm (r - p) over the law, not over the support box,
        # which takes vm_hi (7.5 for the high twin) at every r: the same
        # bits, with under 10 % of the high twin's rows in the kernel
        # against 29 % with the box
        twins = benchmark_populations(3)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        cls = pops.RatioConditionalPopulation
        for name, share in (("low", 0.27), ("high", 0.1)):
            pop = twins[name]
            xq = ident.default_quality_grid(pop, prices, 4096)
            seen = _count_kernel_rows(monkeypatch, cls)
            own = pop._quality_surface(prices, xq)
            with monkeypatch.context() as box_bounds:
                box_bounds.setattr(cls, "_saturation_bounds",
                                   pops.Population._saturation_bounds)
                box = pop._quality_surface(prices, xq)
            assert seen[0] <= share * xq.size * prices.size, name
            assert 0.29 * xq.size * prices.size < seen[1], name
            assert same_bits(own[0], box[0]), name
            assert same_bits(own[1], box[1]), name
            monkeypatch.undo()

    @pytest.mark.parametrize("name", ["low", "high", "custom_h",
                                      "fixed_eps", "tent_ratio",
                                      "falling_ratio"])
    def test_conditional_bounds_hold_the_range_of_the_law(self, name):
        # W = vm (r - p) with vm in [m - eps, m + eps] given r: on a
        # dense scan W never reaches above -nobody or below -everybody,
        # and the bounds stay within 1 % of W's range.  The tabulated
        # tent takes the place of a triangular ratio, whose zero ends the
        # form rejects; on the falling ramp the high family's m turns
        # inside a cell, at r = 1.5 - 2 delta / 3
        tent = pops.RatioMarginalSpec.tabulated([1.0, 1.5, 2.0],
                                                [0.5, 1.5, 0.5])
        ramp = pops.RatioMarginalSpec.tabulated([1.0, 2.0], [1.5, 0.5])
        pop = {"low": pops.make_low_population(seed_ratio(), 0.5),
               "high": pops.make_high_population(seed_ratio(), 0.04),
               "custom_h": kinked_h_custom(),
               "fixed_eps": pops.make_low_population(
                   seed_ratio(), 0.5, epsilon_kind="fixed",
                   epsilon_value=0.4),
               "tent_ratio": pops.make_high_population(tent, 0.1),
               "falling_ratio": pops.make_high_population(ramp, 0.02),
               }[name]
        r_lo, r_hi = pop.ratio.r_lo, pop.ratio.r_hi
        r = np.union1d(np.linspace(r_lo, r_hi, 400_001), pop._knots)
        _, m, eps = pop._law(r)
        # each cell's vm bounds hold the law at every point of the cell
        edges, lo, hi = pop._vm_cells
        cell = np.clip(np.searchsorted(edges, r, side="right") - 1, 0,
                       lo.size - 1)
        assert np.all(lo[cell] <= m - eps) and np.all(m + eps <= hi[cell])
        for p in (0.5 * r_lo, r_lo, 0.7 * r_lo + 0.3 * r_hi,
                  0.5 * (r_lo + r_hi), r_hi, 1.5 * r_hi):
            w = np.concatenate(((m - eps) * (r - p), (m + eps) * (r - p)))
            nobody, everybody = pop._saturation_bounds(p)
            slack = 0.01 * (w.max() - w.min())
            assert -nobody - slack <= w.max() <= -nobody, (name, p)
            assert -everybody <= w.min() <= -everybody + slack, (name, p)

    def test_class_rows_that_differ_fall_back_to_every_row(
            self, monkeypatch):
        # a kernel whose saturated rows are not all alike at p = 1: that
        # column's innermost and outermost class rows disagree, so a second
        # call computes its every row; the column at p = 3 keeps its classes
        pop = pops.PointMassPopulation(vk=2.0, vm=1.0)
        xq = np.linspace(-6.0, 6.0, 49)
        seen = []

        def tilted(self, p, rows):
            seen.append(rows.copy())
            return (0.5 + 1e-3 * np.tanh(rows) * (p == 1.0),
                    np.full(rows.shape, 1e-12))

        monkeypatch.setattr(pops.PointMassPopulation, "_quality_profile",
                            tilted)
        values, errors = pop._quality_surface(np.array([1.0, 3.0]), xq)
        assert [rows.size for rows in seen] == [18, 49]
        assert np.array_equal(seen[-1], xq)
        assert same_bits(values[:, 0], 1e-3 * np.tanh(xq) + 0.5)
        assert np.all(values[:, 1] == 0.5)
        assert np.array_equal(errors, [1e-12, 1e-12])

    def test_integrand_sees_at_most_a_block_of_lines(self, monkeypatch):
        # a twin's 9 columns hold many blocks of intervals; each integrand
        # call gets at most INTERVAL_BLOCK of them
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        xq = ident.default_quality_grid(low, prices, 4096)
        lines = []
        quad = pops.quadrature.segmented_gl

        def recorded(lo, hi, breaks, f, **kw):
            def integrand(nodes, rows):
                lines.append(nodes.shape[0])
                return f(nodes, rows)
            return quad(lo, hi, breaks, integrand, **kw)

        monkeypatch.setattr(pops.quadrature, "segmented_gl", recorded)
        low._quality_surface(prices, xq)
        assert max(lines) == pops.quadrature.INTERVAL_BLOCK
        assert sum(lines) > 4 * pops.quadrature.INTERVAL_BLOCK


class TestProductPopulation:
    def make(self):
        return pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0),
            MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))

    def test_moments_factorize(self):
        pop = self.make()
        table = pops.moments(pop, 3)
        for (j, k) in table.keys():
            want = pop.ratio.moment(j) * pop.vm.moment(j + k)
            assert table[(j, k)] == pytest.approx(want, rel=1e-10)

    def test_density_integrates_to_one(self):
        pop = self.make()
        total, err = sci_integrate.dblquad(
            lambda vm, r: float(pops.density(pop, r * vm, vm)) * vm,
            1.0, 2.0, 0.5, 1.5, epsabs=1e-10, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_ratio_marginal_returns_seed(self):
        pop = self.make()
        assert pops.ratio_marginal(pop) is pop.ratio


class TestIndependentPopulation:
    def test_narrow_good_value_table_builds_at_its_round_off(self):
        # vk ~ U(0, 1e-9) puts the ratio density near 1e9, where an
        # absolute 1e-10 lies below round-off.  Closed form:
        # g(r) = 1e9 int_1^min(2, 1e-9 / r) 6 u (u - 1)(2 - u) du, and the
        # table, read at its own nodes, is normalized by its trapezoid sum
        vm = MarginalSpec.scaled_beta(2.0, 2.0, lo=1.0, hi=2.0)
        pop = pops.IndependentPopulation(MarginalSpec.uniform(0.0, 1e-9),
                                         vm)
        spec = pops.ratio_marginal(pop)
        r = np.linspace(pop.support.r_lo, pop.support.r_hi,
                        pops.TABLE_GRID_DEFAULT)[1::256]
        prim = np.polynomial.Polynomial([0.0, -12.0, 18.0, -6.0]).integ()
        want = 1e9 * (prim(np.minimum(2.0, 1e-9 / r)) - prim(1.0))
        assert spec.pdf(r) == pytest.approx(want, rel=1e-6)

    def test_support_from_marginal_ranges(self):
        pop = beta_independent()
        sup = pop.support
        assert sup.r_lo == pytest.approx(0.0)
        assert sup.r_hi == pytest.approx(1.0 / 0.5)
        assert sup.vm_hi == pytest.approx(1.5)

    def test_moments_are_products(self):
        pop = beta_independent()
        table = pops.moments(pop, 4)
        for (j, k) in table.keys():
            want = pop.vk.moment(j) * pop.vm.moment(k)
            assert table[(j, k)] == pytest.approx(want, rel=1e-11)

    def test_ratio_density_against_scipy_quad(self):
        # g(r) = int u f_M(u) f_K(r u) du, evaluated independently
        pop = beta_independent()
        spec = pops.ratio_marginal(pop)
        for r in (0.1, 0.5, 1.0, 1.5):
            cuts = sorted({min(max(v / r, 0.5), 1.5) for v in (0.0, 1.0)})
            want, _ = sci_integrate.quad(
                lambda u: u * float(pop.vm.pdf(u)) * float(pop.vk.pdf(r * u)),
                0.5, 1.5, points=cuts)
            assert float(spec.pdf(r)) == pytest.approx(want, abs=5e-5)

    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_band_moments_of_a_rough_money_marginal_against_scipy_quad(
            self, alpha):
        # vm ~ Beta(alpha, 2) on [0.5, 1.5] has the end-point term
        # (u - 0.5)^(alpha - 1), which scipy's algebraic weight takes on
        # the first segment; the band's cuts 1 / r end smooth segments.
        # The bound is the band tolerance: at alpha = 0.5 the masses are
        # off by up to 3.7e-14, from the rounding of u - 0.5 at the graded
        # nodes next to the end
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0),
            MarginalSpec.scaled_beta(alpha, 2.0, lo=0.5, hi=1.5))
        norm = special.beta(alpha, 2.0)
        for ra, rb in ((0.0, 0.5), (0.0, 1e-3), (0.3, 1.2)):
            cuts = sorted({1.0 / r for r in (ra, rb)
                           if r > 0.0 and 0.5 < 1.0 / r < 1.5})
            edges = [0.5] + cuts + [1.5]
            got = pop._band_vm_moments(ra, rb)
            for power in (0, 1):
                def smooth(u):
                    band = float(pop.vk.cdf(rb * u) - pop.vk.cdf(ra * u))
                    return u ** power * (1.5 - u) / norm * band

                want = sci_integrate.quad(
                    smooth, 0.5, edges[1], weight="alg",
                    wvar=(alpha - 1.0, 0.0), epsabs=1e-16)[0]
                want += sum(sci_integrate.quad(
                    lambda u: smooth(u) * (u - 0.5) ** (alpha - 1.0), a, b,
                    epsabs=1e-16)[0] for a, b in zip(edges[1:-1], edges[2:]))
                assert got[power] == pytest.approx(want, abs=1e-13), (
                    ra, rb, power)

    def test_degenerate_money_marginal_closed_form(self):
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0),
            MarginalSpec.point_mass(2.0))
        spec = pops.ratio_marginal(pop)
        # r = vk / 2, so g(r) = 2 f_K(2 r)
        for r in (0.05, 0.2, 0.4):
            assert float(spec.pdf(r)) == pytest.approx(
                2.0 * float(pop.vk.pdf(2.0 * r)), rel=1e-6)

    @pytest.mark.parametrize("shapes", [(2.0, 3.0, 2.0, 2.0),
                                        (2.5, 3.1, 2.1, 2.0)])
    def test_blocked_demand_profile_matches_one_price_calls(
            self, shapes, monkeypatch):
        # a small block forces several quadrature calls and a short last
        # one; each row must carry the bits of its own one-price call.  A
        # point-mass marginal takes its closed form over all prices at
        # once, with the same bits
        monkeypatch.setattr(pops, "PRICE_BLOCK", 16)
        a, b, c, d = shapes
        vk = MarginalSpec.scaled_beta(a, b, lo=0.0, hi=1.0)
        vm = MarginalSpec.scaled_beta(c, d, lo=0.5, hi=1.5)
        for good, money in ((vk, vm), (vk, MarginalSpec.point_mass(1.2)),
                            (MarginalSpec.point_mass(0.7), vm)):
            pop = pops.IndependentPopulation(good, money)
            prices = default_price_grid(pop, 101)
            zero = np.zeros(1)
            want = np.clip([pop._quality_profile(float(p), zero)[0][0]
                            for p in prices], 0.0, 1.0)
            assert np.array_equal(pop._demand_profile(prices), want)

    def test_rejects_two_point_masses(self):
        with pytest.raises(DegenerateRatio, match="point_mass"):
            pops.IndependentPopulation(MarginalSpec.point_mass(1.0),
                                       MarginalSpec.point_mass(2.0))

    def test_rejects_nonpositive_money_values(self):
        with pytest.raises(DegenerateRatio):
            pops.IndependentPopulation(
                MarginalSpec.uniform(0.0, 1.0),
                MarginalSpec.uniform(0.0, 1.0))  # vm can hit zero


class TestRatioConditionalPopulation:
    def test_mass_and_mean_against_scipy(self):
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        m = lambda r: r - 0.5
        total, _ = sci_integrate.dblquad(
            lambda vm, r: float(pops.density(low, r * vm, vm)) * vm,
            1.0, 2.0,
            lambda r: 0.5 * m(r) - 1e-9, lambda r: 1.5 * m(r) + 1e-9,
            epsabs=1e-10, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_vanishes_outside_band(self):
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        # at r = 1.5 the band is m +- eps = 1.0 +- 0.5
        assert float(pops.density(low, 1.5 * 0.45, 0.45)) == 0.0
        assert float(pops.density(low, 1.5 * 1.55, 1.55)) == 0.0
        assert float(pops.density(low, 1.5 * 1.0, 1.0)) > 0.0

    def test_mean_vm_closed_forms(self):
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        high = pops.make_high_population(seed_ratio(), delta=0.04)
        assert low._mean_vm() == pytest.approx(LOW_MEAN_VM, abs=1e-12)
        assert high._mean_vm() == pytest.approx(HIGH_MEAN_VM, abs=1e-12)

    def test_boundary_mean_is_h_over_g_at_the_edge(self):
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        high = pops.make_high_population(seed_ratio(), delta=0.04)
        assert low.boundary_mean_analytic() == pytest.approx(0.5)
        assert high.boundary_mean_analytic() == pytest.approx(5.0)

    def test_sampled_band_mean_matches_band_integral(self):
        high = pops.make_high_population(seed_ratio(), delta=0.04)
        draws = pops.sample(high, 400_000, seed=3)
        r = draws[:, 0] / draws[:, 1]
        sel = (r >= 1.4) & (r <= 1.6)
        mass, vm_int = high._band_vm_moments(1.4, 1.6)
        want = vm_int / mass
        got = draws[sel, 1].mean()
        se = draws[sel, 1].std(ddof=1) / np.sqrt(sel.sum())
        assert abs(got - want) < 4 * se

    def test_quality_profile_of_unsorted_grid_is_permuted(self):
        # the crossing solver needs offsets sorted by row; the grid is
        # sorted and the rows scattered back bit for bit
        low = pops.make_low_population(seed_ratio(), delta=0.45)
        xq = np.linspace(-3.0, 3.0, 257)
        perm = np.random.default_rng(0).permutation(xq.size)
        with_nan = xq.copy()
        with_nan[100] = np.nan
        for p in (0.6, 1.0, 1.4):
            want, _ = low._quality_profile(p, xq)
            assert np.array_equal(low._quality_profile(p, xq[perm])[0],
                                  want[perm])
            # a NaN offset spoils its own row only
            got, _ = low._quality_profile(p, with_nan)
            assert np.isnan(got[100])
            assert np.array_equal(np.delete(got, 100), np.delete(want, 100))

    def test_law_is_evaluated_once_per_psi_call_and_once_on_nodes(
            self, monkeypatch):
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        calls = {"psi": 0, "passes": 0, "pdf": 0, "h": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        solve = pops.quadrature.solve_crossings
        monkeypatch.setattr(
            pops.quadrature, "solve_crossings",
            lambda psi, *args: solve(counted("psi", psi), *args))
        # the quadrature evaluates the law once per pass, on its nodes
        quad = pops.quadrature.segmented_gl
        monkeypatch.setattr(
            pops.quadrature, "segmented_gl",
            lambda lo, hi, breaks, f, **kw: quad(
                lo, hi, breaks, counted("passes", f), **kw))
        monkeypatch.setattr(pops.RatioMarginalSpec, "pdf",
                            counted("pdf", pops.RatioMarginalSpec.pdf))
        monkeypatch.setattr(pops.ConditionalSpec, "h",
                            counted("h", pops.ConditionalSpec.h))
        low._quality_profile(1.3, np.linspace(-3.0, 3.0, 257))
        assert calls["psi"] > 0 and calls["passes"] > 0
        assert calls["pdf"] == calls["psi"] + calls["passes"]
        assert calls["h"] == calls["psi"] + calls["passes"]

    @pytest.mark.parametrize("name", ["conditional_low", "conditional_high",
                                      "custom_h", "sine_table",
                                      "wide_conditional"])
    def test_moment_table_is_one_integral_per_pair(self, name):
        # the table comes from one quadrature call, one row per pair; each
        # entry keeps the bits of integrating its pair alone, split at
        # the knots, to 1e-11
        pop = surface_zoo()[name]
        table = pops.moments(pop, 4)
        for j, k in table.keys():
            n = j + k

            def f(r):
                g, m, eps = pop._law(r)
                cond = np.zeros_like(r)  # E[vm**n | r]
                for i in range(0, n + 1, 2):
                    cond = cond + (math.comb(n, i) * m ** (n - i) * eps ** i
                                   * pop._even_moments[i])
                return g * r ** j * cond

            want = pops.quadrature.integrate(f, pop.ratio.r_lo,
                                             pop.ratio.r_hi, tol=1e-11,
                                             breakpoints=pop._knots)
            assert same_bits(table[(j, k)], want), (name, j, k)
            assert table.errors[(j, k)] == 1e-11

    def test_moments_split_at_the_knots_of_a_custom_h(self):
        # h has a kink at 1.0; integrating across it unsplit missed the
        # moment tolerance
        pop = kinked_h_custom()
        table = pops.moments(pop, 4)
        assert table[(0, 1)] == pytest.approx(pop._mean_vm(), abs=1e-11)
        want, _ = sci_integrate.quad(
            lambda r: r * float(pop.cond.h(r, 0.5)), 0.5, 2.0, points=[1.0],
            epsabs=1e-13)
        assert table[(1, 0)] == pytest.approx(want, abs=1e-11)

    def test_zero_ratio_density_is_rejected(self):
        # a triangular density vanishes at both ends, where m = h / g
        # divides by zero: a ValueError, not a RuntimeWarning
        with pytest.raises(ValueError, match="ratio density must be"):
            pops.RatioConditionalPopulation(
                pops.RatioMarginalSpec.triangular(1.0, 2.0),
                pops.ConditionalSpec("high", delta=0.01))

    def test_custom_family_requires_coverage(self):
        from demandlab.marginals import PwLinearTable
        short = PwLinearTable.raw(np.array([1.2, 1.8]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            pops.RatioConditionalPopulation(
                seed_ratio(), pops.ConditionalSpec("custom", h_table=short))


class TestMixturePopulation:
    def make(self):
        ratio3 = pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0)
        return pops.MixturePopulation((
            (0.4, pops.ProductPopulation(ratio3,
                                         MarginalSpec.uniform(0.5, 1.5))),
            (0.6, pops.PointMassPopulation(vk=2.0, vm=1.0))))

    def test_weights_must_be_positive_and_sum_to_one(self):
        comp = pops.PointMassPopulation(2.0, 1.0)
        with pytest.raises(ValueError):
            pops.MixturePopulation(((0.4, comp), (0.7, comp)))
        with pytest.raises(ValueError):
            pops.MixturePopulation(((-0.1, comp), (1.1, comp)))

    def test_nan_weight_is_rejected(self):
        # a NaN weight makes the sum NaN too, which the sum check passes
        comp = pops.PointMassPopulation(2.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            pops.MixturePopulation(((float("nan"), comp), (1.0, comp)))

    def test_moments_are_weighted_sums(self):
        mix = self.make()
        parts = [(w, pops.moments(c, 2)) for w, c in mix.components]
        table = pops.moments(mix, 2)
        for key in table.keys():
            want = sum(w * t[key] for w, t in parts)
            assert table[key] == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("name", ["mixture", "continuous_mixture",
                                      "mixture_with_conditional"])
    def test_hooks_are_weighted_sums_bit_for_bit(self, name):
        # each hook is sum w * component hook, added in component order;
        # a pair-valued hook sums each half that way
        mix = surface_zoo()[name]

        def fold(hook, *args):
            total = 0.0
            for w, part in mix.components:
                total = total + w * np.asarray(getattr(part, hook)(*args))
            return total

        def fold_pair(hook, *args):
            first, second = 0.0, 0.0
            for w, part in mix.components:
                a, b = getattr(part, hook)(*args)
                first = first + w * a
                second = second + w * b
            return first, second

        xq = np.linspace(-1.5, 1.5, 64)
        prices = np.array([0.8, 1.3, 1.9])
        calls = [("_moments",
                  [(j, n - j) for n in range(5) for j in range(n + 1)])]
        calls += [("_band_vm_moments", 1.1, 1.3),
                  ("_band_vm_moments", 1.4, 1.9),
                  ("_quality_profile", 1.3, xq),
                  ("_quality_surface", prices, xq)]
        for hook, *args in calls:
            got = getattr(mix, hook)(*args)
            for half, want in zip(got, fold_pair(hook, *args)):
                assert same_bits(half, want), (hook, args)
        assert same_bits(mix._mean_vm(), fold("_mean_vm"))
        assert same_bits(mix._demand_profile(prices),
                         np.clip(fold("_demand_profile", prices), 0.0, 1.0))
        if name == "continuous_mixture":
            vk, vm = np.meshgrid(np.linspace(0.4, 3.0, 7),
                                 np.linspace(0.4, 1.6, 5))
            assert same_bits(pops.density(mix, vk, vm),
                             fold("_density", vk, vm))

    def test_ratio_marginal_blends_atom_and_density(self):
        mix = self.make()
        spec = pops.ratio_marginal(mix)
        assert spec.atoms == ((2.0, pytest.approx(0.6)),)
        assert float(spec.cdf(2.0)) == pytest.approx(1.0)

    def test_component_split_tracks_weights(self):
        mix = self.make()
        draws = pops.sample(mix, 200_000, seed=9)
        frac_atom = np.mean((draws[:, 0] == 2.0) & (draws[:, 1] == 1.0))
        se = np.sqrt(0.6 * 0.4 / draws.shape[0])
        assert abs(frac_atom - 0.6) < 4 * se


class TestFamilyBuilders:
    def test_low_bound_is_inclusive(self):
        pops.make_low_population(seed_ratio(), delta=LOW_BOUND_U12)
        with pytest.raises(BoundViolation) as exc:
            pops.make_low_population(seed_ratio(),
                                     delta=LOW_BOUND_U12 * (1 + 1e-9))
        assert exc.value.bound == pytest.approx(LOW_BOUND_U12)

    def test_high_bound_is_strict(self):
        pops.make_high_population(seed_ratio(),
                                  delta=HIGH_BOUND_U12 * (1 - 1e-9))
        with pytest.raises(BoundViolation):
            pops.make_high_population(seed_ratio(), delta=HIGH_BOUND_U12)

    def test_nonpositive_offsets_rejected(self):
        for bad in (0.0, -0.5):
            with pytest.raises(BoundViolation):
                pops.make_low_population(seed_ratio(), delta=bad)

    def test_seed_must_carry_a_density(self):
        with pytest.raises(DegenerateRatio):
            pops.make_low_population(
                pops.RatioMarginalSpec.degenerate(1.5), delta=0.1)


class TestModuleOps:
    def test_sample_shapes_and_determinism(self):
        for name, pop in population_zoo().items():
            a = pops.sample(pop, 500, seed=1)
            b = pops.sample(pop, 500, seed=1)
            assert a.shape == (500, 2)
            assert np.array_equal(a, b), name
            assert np.all(a[:, 1] > 0), name

    def test_density_requires_a_density(self):
        atom = pops.PointMassPopulation(2.0, 1.0)
        smooth = pops.ProductPopulation(seed_ratio(3.0),
                                        MarginalSpec.uniform(0.5, 1.5))
        for pop in (atom,
                    pops.IndependentPopulation(MarginalSpec.uniform(1.0, 2.0),
                                               MarginalSpec.point_mass(1.0)),
                    pops.IndependentPopulation(MarginalSpec.point_mass(2.0),
                                               MarginalSpec.uniform(0.5, 1.5)),
                    pops.MixturePopulation(((0.5, smooth), (0.5, atom)))):
            with pytest.raises(NoDensity):
                pops.density(pop, 2.0, 1.0)

    def test_mean_vm_is_the_first_money_moment(self):
        # forms without a closed form of their own read E[vm] off _moments
        zoo = population_zoo()
        for name in ("point_mass", "product", "independent", "mixture"):
            pop = zoo[name]
            assert inequality.mean_vm(pop) == pops.moments(pop, 1)[(0, 1)], \
                name

    def test_moments_requires_positive_order(self):
        with pytest.raises(ValueError):
            pops.moments(pops.PointMassPopulation(2.0, 1.0), 0)

    def test_point_mass_ratio_marginal_is_degenerate(self):
        spec = pops.ratio_marginal(pops.PointMassPopulation(3.0, 2.0))
        assert not spec.has_density
        assert spec.atoms[0][0] == pytest.approx(1.5)

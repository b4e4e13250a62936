import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sci_integrate
from scipy import special, stats

from demandlab import identification as ident
from demandlab import inequality
from demandlab import populations as pops
from demandlab.demand import default_price_grid, quality_demand_surface
from demandlab.errors import (BoundViolation, DegenerateRatio, NoDensity,
                              NonFiniteMoment, QuadratureFailure,
                              SpecialFunctionFailure)
from demandlab.marginals import SPLIT_MIN, MarginalSpec, PwLinearTable
from helpers import (HIGH_BOUND_U12, HIGH_MEAN_VM, LOW_BOUND_U12,
                     LOW_MEAN_VM, benchmark_populations, beta_independent,
                     bisection_roots, closed_form_roots, column_kernel,
                     conditional_forms, conditional_reference,
                     full_range_profile, kinked_h_custom, live_offsets,
                     population_zoo, same_bits, seed_ratio, sine_table_low,
                     surface_zoo)


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

    @pytest.mark.parametrize("kind", ["uniform", "triangular", "tabulated"])
    def test_continuous_part_is_a_marginal_spec(self, kind):
        # each query of an atom-free ratio law is its law's, bit for bit
        if kind == "tabulated":
            spec = pops.RatioMarginalSpec.tabulated(
                [0.5, 1.0, 2.0], np.array([0.5, 1.0, 0.4]) / 1.075)
        else:
            spec = getattr(pops.RatioMarginalSpec, kind)(0.8, 2.2)
        law = spec.law
        # a triangular law is a table of three knots
        assert isinstance(law, MarginalSpec) and law.kind == (
            "uniform" if kind == "uniform" else "tabulated")
        assert (law.lo, law.hi) == (spec.r_lo, spec.r_hi)
        r = np.linspace(0.3, 2.5, 45)
        q = np.linspace(0.0, 1.0, 33)
        for query, x in (("pdf", r), ("cdf", r), ("ppf", q)):
            assert same_bits(getattr(spec, query)(x),
                             getattr(law, query)(x)), query
        assert [spec.moment(j) for j in range(5)] == \
            [1.0] + [law.moment(j) for j in range(1, 5)]

    def test_a_law_without_a_continuous_part_is_its_atoms(self):
        mix = pops.MixturePopulation((
            (0.25, pops.PointMassPopulation(1.0, 1.0)),
            (0.75, pops.PointMassPopulation(3.0, 2.0))))
        spec = pops.ratio_marginal(mix)
        assert spec.law is None and not spec.has_density
        assert spec.atoms == ((1.0, 0.25), (1.5, 0.75))
        assert same_bits(spec.cdf([0.9, 1.0, 1.2, 1.5]),
                         [0.0, 0.25, 0.25, 1.0])
        assert same_bits(spec.pdf([1.0, 1.5]), [0.0, 0.0])
        assert spec.moment(2) == 0.25 + 0.75 * 1.5 ** 2
        with pytest.raises(DegenerateRatio):
            spec.ppf(0.5)

    def test_a_nan_ratio_reads_nan_at_an_atom(self):
        # as the continuous laws do: NaN is not below an atom
        assert np.isnan(MarginalSpec.point_mass(2.0).cdf(np.nan))
        assert same_bits(MarginalSpec.point_mass(2.0).cdf([1.0, 2.0, np.nan]),
                         [0.0, 1.0, np.nan])
        r = np.linspace(1.0, 2.0, 11)
        spec = pops.RatioMarginalSpec.tabulated(
            r, np.full(11, 0.75), atoms=((1.5, 0.25),))
        assert same_bits(spec.cdf([np.nan, 1.5]), [np.nan, 0.375 + 0.25])
        assert np.isnan(pops.RatioMarginalSpec.degenerate(2.0).cdf(np.nan))
        assert same_bits(pops.PointMassPopulation(2.0, 1.0)._demand_profile(
            np.array([np.nan, 1.0, 2.0, 3.0])), [np.nan, 1.0, 1.0, 0.0])

    def test_needs_a_law_or_atoms(self):
        with pytest.raises(ValueError, match="law or atoms"):
            pops.RatioMarginalSpec(None, pops.Support(1.0, 2.0, 1.0))


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
    ours = MarginalSpec.truncated_normal(1.0 / a0)
    for n in (2, 4, 6, 8):
        assert ours.moment(n) == pytest.approx(ref.moment(n) / a0 ** n,
                                               rel=1e-12)


@pytest.mark.parametrize("sigma", np.geomspace(1e-2, 1e6, 17).tolist()
                         + [0.5, 0.4999])
def test_truncated_normal_moments_of_z_over_a0_match_quadrature(sigma):
    # E[U^n] for U = Z / a0 has the density exp(-a0^2 u^2 / 2) on
    # [-1, 1] up to a constant; that integrand is positive, so the
    # reference has no cancellation.  sigma = 0.5 takes the recursion
    a0 = 1.0 / sigma
    law = MarginalSpec.truncated_normal(sigma)
    t = [law.moment(n) for n in range(17)]
    stops = sorted({min(k / a0, 1.0) for k in (1.0, 2.0, 4.0, 8.0)} - {1.0})

    def integral(n):
        value, _ = sci_integrate.quad(
            lambda u: u ** n * np.exp(-0.5 * a0 * a0 * u * u), 0.0, 1.0,
            epsabs=0.0, epsrel=1e-13, limit=500, points=stops or None)
        return value

    mass = integral(0)
    for n in range(2, 17, 2):
        assert t[n] == pytest.approx(integral(n) / mass, rel=1e-12), n
    assert t[1::2] == [0.0] * 8
    # abs=0 keeps approx's default 1e-12 from hiding a relative error
    assert law._mass == pytest.approx(
        math.erf(a0 / math.sqrt(2.0)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("sigma", [2.0, 1e4, 1e12, 1e16, 1e300])
def test_conditional_draws_spread_at_large_sigma(sigma):
    # U = (vm - m) / eps read back off 100,000 draws of the low twin: its
    # values stay distinct, and by the Dvoretzky-Kiefer-Wolfowitz bound at
    # failure probability 1e-9 its cdf stays within
    # sqrt(ln(2 / 1e-9) / (2 n)) = 0.0103 of uniform.  ndtri(Phi(-a0) +
    # q mass) cancels once a0 = 1 / sigma is small: it gave about 10,800
    # distinct values at sigma = 1e12 and vm = m exactly at 1e300
    pop = pops.make_low_population(seed_ratio(), 0.5, sigma_multiplier=sigma)
    n = 100_000
    vk, vm = pops.sample(pop, n, 3).T
    _, m, eps = pop._law(vk / vm)
    u = (vm - m) / eps
    assert np.unique(u).size >= 99_000
    f = np.sort(pop._noise.cdf(u))
    i = np.arange(1, n + 1)
    band = math.sqrt(math.log(2.0 / 1e-9) / (2.0 * n))
    assert max(np.max(i / n - f), np.max(f - (i - 1) / n)) <= band


def test_conditional_moments_past_order_16():
    # E[U^n] past the 16 orders the kind tabulates takes its own pass:
    # a table to order 18 indexed past them and raised IndexError
    pop = pops.make_low_population(seed_ratio(), 0.5)
    table, lower = pops.moments(pop, 18), pops.moments(pop, 16)
    assert all(same_bits(table[key], lower[key]) for key in lower.keys())
    # Lyapunov: E[vm^k]^(1/k) grows with k
    assert table[(0, 18)] ** (1 / 18) > lower[(0, 16)] ** (1 / 16)


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

    def test_quadrature_sees_only_the_live_rows_of_a_twin(self, monkeypatch):
        # on the default grid a twin's 9 columns go to one kernel call,
        # whose rows where nobody or everybody buys have an empty live
        # range: at most 27 % of the low twin's rows and 10 % of the high
        # twin's reach segmented_gl, and no quadrature row is empty.  Rows
        # outside the law's range of W form no crossing pair: the root
        # solver sees at most two pairs per quadrature row (the high twin
        # has 37 % of the grid in pairs without that filter, since its
        # uniform ratio is one knot cell)
        twins = benchmark_populations(3)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        quad, solve = pops.quadrature.segmented_gl, pops.quadrature.poly_roots
        bounds, pairs = [], []

        def recorded(lo, hi, breaks, f, **kw):
            bounds.append((lo, hi))
            return quad(lo, hi, breaks, f, **kw)

        def counted(coef, width):
            pairs.append(coef.shape[0])
            return solve(coef, width)

        monkeypatch.setattr(pops.quadrature, "segmented_gl", recorded)
        monkeypatch.setattr(pops.quadrature, "poly_roots", counted)
        seen = _count_kernel_rows(monkeypatch, pops.RatioConditionalPopulation)
        for name, share in (("low", 0.27), ("high", 0.1)):
            pop = twins[name]
            xq = ident.default_quality_grid(pop, prices, 4096)
            for record in (seen, bounds, pairs):
                record.clear()
            pop._quality_surface(prices, xq)
            assert seen == [xq.size * prices.size], name
            (lo, hi), = bounds
            assert np.all(lo < hi), name
            assert lo.size <= share * xq.size * prices.size, name
            assert sum(pairs) <= 2 * lo.size, name

    def test_kernel_runs_once_per_component_of_a_mixture(self, monkeypatch):
        mix = benchmark_populations(3)["mixture"]
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        xq = ident.default_quality_grid(mix, prices, 4096)
        seen = {cls: _count_kernel_rows(monkeypatch, cls) for cls in (
            pops.MixturePopulation, pops.IndependentPopulation,
            pops.ProductPopulation)}
        quality_demand_surface(mix, xq, prices)
        assert [len(rows) for rows in seen.values()] == [0, 1, 1]

    @pytest.mark.parametrize("name", ["low", "high", "custom_h",
                                      "fixed_eps", "tent_ratio",
                                      "falling_ratio"])
    def test_conditional_bounds_hold_the_range_of_the_law(self, name):
        # on a dense scan each cell of the ``_cells`` grid holds m - eps
        # and m + eps between its end values, and each cell between the
        # knots pairs a row with exactly the offsets -xq in its range of
        # W = (m +/- eps)(r - p), to 1 % of that range.  The tabulated
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
        grid, _, _, m_grid, ends = pop._cells
        fixed = pop.cond.epsilon_kind == "fixed"
        eps_grid = pop.cond.epsilon_value if fixed else 0.5 * m_grid
        low, high = m_grid - eps_grid, m_grid + eps_grid
        cell = np.clip(np.searchsorted(grid, r, side="right") - 1, 0,
                       grid.size - 2)
        assert np.all(np.minimum(low[:-1], low[1:])[cell] <= m - eps)
        assert np.all(m + eps <= np.maximum(high[:-1], high[1:])[cell])
        knots = grid[ends]
        for p in (0.5 * r_lo, r_lo, 0.7 * r_lo + 0.3 * r_hi,
                  0.5 * (r_lo + r_hi), r_hi, 1.5 * r_hi):
            for sign in (1.0, -1.0):
                k = 1.0 if fixed else 1.0 + 0.5 * sign
                e = sign * pop.cond.epsilon_value if fixed else 0.0
                w = (m + sign * eps) * (r - p)
                # per cell, two offsets at the ends of its range of -W
                # and two 1 % of that range outside it
                probes = []
                for a, b in zip(knots[:-1], knots[1:]):
                    on = w[(r >= a) & (r <= b)]
                    slack = 0.01 * (on.max() - on.min())
                    probes.append([-on.max(), -on.min(),
                                   -on.max() - slack, -on.min() + slack])
                probes = np.array(probes)
                xq = np.sort(probes.ravel())
                rows, cells = pop._crossing_pairs(
                    k, e, np.full(xq.size, p), xq, np.array([0]))
                for c, (inner_lo, inner_hi, outer_lo, outer_hi) in \
                        enumerate(probes.tolist()):
                    paired = xq[rows[cells == c]]
                    assert inner_lo in paired and inner_hi in paired, \
                        (name, p, sign, c)
                    assert outer_lo not in paired and outer_hi not in \
                        paired, (name, p, sign, c)

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

    # sha256 of 10,000 draws at seed 7 and of the density on a 50 x 80
    # grid of (r, vm), vk = r vm, over a uniform ratio on [1, 2], per vm
    # law; a point-mass vm has no density
    PINS = {
        "beta2.5_3": (
            MarginalSpec.scaled_beta(2.5, 3.0, 0.5, 1.5),
            "c20c65f12c2e5d4cd457cf667444591f851ee1deeaea8a98dec69e44f681f50e",
            "d82e18d731c2160ec257863583b45758de20d55100834175a5961276dfb6ce16"),
        "point_mass": (
            MarginalSpec.point_mass(1.2),
            "688dcc7e47da1e48eee9027a22bac65059720cfae3d023b7da1d8339d68e9d42",
            None),
        "uniform": (
            MarginalSpec.uniform(0.5, 1.5),
            "50ea2ca4eea013643eefecc28906a00f4bd17a393e4a5031d762413cc2857d76",
            "191e18d2d34ffe67325670ffbf522b7d8c6af9bb6251226dc8400eec33255690"),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_draws_and_density_keep_their_bytes(self, name):
        vm_law, draws, density = self.PINS[name]
        pop = pops.ProductPopulation(pops.RatioMarginalSpec.uniform(1.0, 2.0),
                                     vm_law)
        assert (hashlib.sha256(pops.sample(pop, 10_000, 7).tobytes())
                .hexdigest() == draws)
        vm, r = np.meshgrid(np.linspace(0.01, 1.6, 80),
                            np.linspace(0.9, 2.1, 50))
        if density is None:
            with pytest.raises(NoDensity):
                pops.density(pop, r * vm, vm)
        else:
            got = np.asarray(pops.density(pop, r * vm, vm))
            assert hashlib.sha256(got.tobytes()).hexdigest() == density

    @pytest.mark.parametrize("vm", [
        MarginalSpec.scaled_beta(1.5, 2.5, 0.0, 2.0),
        MarginalSpec.scaled_beta(1.0, 3.0, 0.0, 2.0),
        MarginalSpec.scaled_beta(2.0, 2.0, 0.0, 2.0),
        MarginalSpec.uniform(0.0, 2.0)],
        ids=["beta1.5_2.5", "beta1_3", "beta2_2", "uniform"])
    def test_tiny_offsets_over_a_money_value_from_zero(self, vm):
        # product_table's law, whose vm starts at 0 (adaptive), and
        # polynomial vm laws from 0 (closed form): offsets of +-1e-300
        # and +-5e-324, whose money values x / (p - r) reach the
        # subnormals, give finite rows as the full-range reference does;
        # a NaN offset spoils its own row only
        pop = pops.ProductPopulation(surface_zoo()["product_table"].ratio,
                                     vm)
        offsets = [1e-300, -1e-300, 5e-324, -5e-324, np.nan, 0.25, -0.25]
        prices = [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        p = np.repeat(prices, len(offsets))
        xq = np.tile(offsets, len(prices))
        got, est = pop._quality_profile(p, xq)
        want, want_est = full_range_profile(pop, p, xq)
        assert np.array_equal(np.isnan(got), np.isnan(xq))
        assert np.array_equal(np.isnan(est), np.isnan(xq))
        ok = ~np.isnan(xq)
        assert np.all(np.abs(got - want)[ok]
                      <= (1e-15 + est + want_est)[ok])

    def test_the_law_chooses_the_route(self, monkeypatch):
        # a uniform or closed-form beta vm takes the closed form over vm
        # and calls no quadrature; a non-integer shape integrates over r
        zoo = surface_zoo()
        calls = _record_degrees(monkeypatch)
        xq = np.linspace(-2.0, 2.0, 17)
        prices = np.array([0.7, 1.4])
        for name in ("product", "continuous_mixture"):
            quality_demand_surface(zoo[name], xq, prices)
        assert not calls
        quality_demand_surface(zoo["product_table"], xq, prices)
        assert calls == [None]

    @pytest.mark.parametrize("unit", [2.0 ** -60, 2.0 ** 60])
    def test_surface_keeps_its_bits_in_any_money_unit(self, unit):
        # money values times a power of two, ratios and prices over it:
        # every closed-form term scales exactly, so the surface and its
        # estimates keep their bits, over a uniform, a triangular and a
        # tabulated ratio law
        def surface(c, ratio):
            pop = pops.ProductPopulation(
                ratio(c), MarginalSpec.scaled_beta(2.0, 3.0, 0.5 * c,
                                                   1.5 * c))
            surf = quality_demand_surface(pop, np.linspace(-2.0, 2.0, 65),
                                          np.array([0.6, 1.2, 1.7]) / c)
            return surf.values, surf.quadrature_errors

        g = np.array([0.5, 1.0, 0.4]) / 1.075
        for ratio in (
                lambda c: pops.RatioMarginalSpec.uniform(1.0 / c, 2.0 / c,
                                                         vm_hi=3.0 * c),
                lambda c: pops.RatioMarginalSpec.triangular(0.8 / c, 2.2 / c,
                                                            vm_hi=3.0 * c),
                lambda c: pops.RatioMarginalSpec.tabulated(
                    np.array([0.5, 1.0, 2.0]) / c, g * c, 3.0 * c)):
            base, scaled = surface(1.0, ratio), surface(unit, ratio)
            assert np.max(base[1]) > 0.0
            assert all(same_bits(a, b) for a, b in zip(base, scaled))


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


def _exact_route_results(pop):
    """A surface, the ratio table and two band moments of ``pop``."""
    xq = np.linspace(-2.0, 2.0, 33)
    prices = np.array([0.0, 0.55, 1.0, 1.7, 2.9])
    return (quality_demand_surface(pop, xq, prices).values,
            pop._ratio_marginal().law.table.y,
            np.array([pop._band_vm_moments(0.4, 1.3),
                      pop._band_vm_moments(0.0, 0.9)]))


def _record_degrees(monkeypatch):
    """The ``degree`` of every segmented_gl call."""
    seen = []
    real = pops.quadrature.segmented_gl

    def recording(*args, degree=None, **kwargs):
        seen.append(degree)
        return real(*args, degree=degree, **kwargs)

    monkeypatch.setattr(pops.quadrature, "segmented_gl", recording)
    return seen


class TestExactRule:
    """Polynomial kernels of independent laws take the exact rule."""

    @pytest.mark.parametrize("vk, vm", [
        *[((a, b), (c, d)) for a in (1, 2, 3) for b in (1, 2, 3)
          for c, d in ((1, 1), (1, 3), (2, 2), (3, 2))],
        ((16, 15), (10, 12)), (None, (3, 2)), ((2, 1), None), (None, None)])
    def test_matches_the_adaptive_rule(self, monkeypatch, vk, vm):
        # integer beta and uniform (None) marginals.  Ratio-table entries
        # are densities of up to 3.6 here, so the bound scales with the
        # largest entry: at the cap case the table reads 4.0e-15 apart
        def build():
            return pops.IndependentPopulation(
                MarginalSpec.scaled_beta(*vk, 0.0, 1.0) if vk
                else MarginalSpec.uniform(0.0, 1.0),
                MarginalSpec.scaled_beta(*vm, 0.5, 1.5) if vm
                else MarginalSpec.uniform(0.5, 1.5))

        degrees = _record_degrees(monkeypatch)
        exact = _exact_route_results(build())
        assert None not in degrees
        monkeypatch.setattr(MarginalSpec, "degree", property(lambda s: None))
        adaptive = _exact_route_results(build())
        for got, want in zip(exact, adaptive):
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 4e-15 * scale

    def test_kernel_degrees(self, monkeypatch):
        # f_vm (1 - F_vk) for the surface, u f_vm f_vk(r u) for the
        # ratio table and u^row f_vm (F_vk(rb u) - F_vk(ra u)) for a band
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(3.0, 4.0, 0.0, 1.0),
            MarginalSpec.uniform(0.5, 1.5))
        degrees = _record_degrees(monkeypatch)
        pop._quality_profile(1.2, np.array([0.1]))
        pop._ratio_marginal()
        pop._band_vm_moments(0.5, 1.0)
        assert degrees == [6, 6, 7]

    def test_other_laws_keep_the_adaptive_rule(self, monkeypatch):
        beta = MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0)
        table = MarginalSpec.tabulated([0.5, 1.0, 1.5], [0.5, 1.5, 0.5])
        zoo = surface_zoo()
        others = [pops.IndependentPopulation(
                      beta, MarginalSpec.scaled_beta(2.5, 3.0, 0.5, 1.5)),
                  pops.IndependentPopulation(
                      MarginalSpec.scaled_beta(2.5, 3.0, 0.0, 1.0),
                      MarginalSpec.uniform(0.5, 1.5)),
                  pops.IndependentPopulation(beta, table),
                  zoo["point_mass_vk"], zoo["point_mass_vm"],
                  zoo["product"], zoo["product_table"],
                  zoo["conditional_low"], zoo["custom_h"]]
        degrees = _record_degrees(monkeypatch)
        for pop in others:
            quality_demand_surface(pop, np.linspace(-2.0, 2.0, 17),
                                   np.array([0.0, 0.7, 1.4]))
            pops.ratio_marginal(pop)
            pops.moments(pop, 2)
            pop._band_vm_moments(0.5, 1.5)
        assert degrees and set(degrees) == {None}

    def test_a_mixture_component_takes_it(self, monkeypatch):
        degrees = _record_degrees(monkeypatch)
        zoo = surface_zoo()
        quality_demand_surface(zoo["mixture_with_conditional"],
                               np.linspace(-2.0, 2.0, 17),
                               np.array([0.7, 1.4]))
        assert None in degrees and 6 in degrees  # Beta(2, 3) and (2, 2)


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

    def test_law_is_evaluated_on_knots_and_nodes(self, monkeypatch):
        # the crossing roots read g and h from the table the population
        # was checked on, and the quadrature reads them once per pass, on
        # its nodes; no row evaluates the law.  The ratio's cdf gives the
        # mass outside the live hulls, in one call on the hulls' ends
        low = pops.make_low_population(seed_ratio(), delta=0.5)
        calls = {"passes": 0, "pdf": 0, "h": 0, "cdf": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        quad = pops.quadrature.segmented_gl
        monkeypatch.setattr(
            pops.quadrature, "segmented_gl",
            lambda lo, hi, breaks, f, **kw: quad(
                lo, hi, breaks, counted("passes", f), **kw))
        monkeypatch.setattr(pops.RatioMarginalSpec, "pdf",
                            counted("pdf", pops.RatioMarginalSpec.pdf))
        monkeypatch.setattr(pops.ConditionalSpec, "h",
                            counted("h", pops.ConditionalSpec.h))
        monkeypatch.setattr(pops.RatioMarginalSpec, "cdf",
                            counted("cdf", pops.RatioMarginalSpec.cdf))
        xq = np.linspace(-3.0, 3.0, 257)
        low._quality_profile(1.3, xq)
        assert calls["passes"] > 0
        assert calls["pdf"] == calls["h"] == calls["passes"]
        assert calls["cdf"] == 1
        calls.update(passes=0, pdf=0, h=0, cdf=0)
        low._quality_profile(1.3, xq)
        assert calls["pdf"] == calls["h"] == calls["passes"]
        assert calls["cdf"] == 1

    @pytest.mark.parametrize("name", ["conditional_low", "conditional_high",
                                      "custom_h", "sine_table",
                                      "wide_conditional", "tent_high",
                                      "fixed_high", "fixed_high_table",
                                      "flat_h_custom"])
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
                                   * pop._noise.moment(i))
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

    def test_fixed_eps_must_stay_below_m_at_its_turn(self):
        # on a falling ramp the high family's m is least at
        # r = 1.5 - 2 delta / 3, between the points of a 1,025-point grid
        # of the range: an eps between m there and the grid's least m
        # lets vm go negative, and the message prints both in full
        ramp = pops.RatioMarginalSpec.tabulated([1.0, 2.0], [1.5, 0.5])
        pop = pops.make_high_population(ramp, 0.02)
        on_grid = float(np.min(pop._law(np.linspace(1.0, 2.0, 1025))[1]))
        at_turn = float(pop._law(1.5 - 2.0 * 0.02 / 3.0)[1])
        assert at_turn < on_grid
        eps = 0.5 * (at_turn + on_grid)
        with pytest.raises(ValueError, match=re.escape(
                f"fixed epsilon {eps!r} must stay below the minimum "
                f"conditional mean {at_turn!r}")):
            pops.make_high_population(ramp, 0.02, epsilon_kind="fixed",
                                      epsilon_value=eps)

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


class TestCrossingRoots:
    """Band-edge crossings in closed form, against the bisection."""

    @staticmethod
    def surface_rows(pop, window):
        prices = ident.chebyshev_prices(*window, 9)
        xq = ident.default_quality_grid(pop, prices, 4096)
        return np.repeat(prices, xq.size), np.tile(xq, prices.size)

    @pytest.mark.parametrize("name, seed", [
        *[(name, None) for name in conditional_forms()],
        *[(twin, seed) for seed in (5, 97, 211) for twin in ("low", "high")]])
    def test_roots_equal_bisection_on_surface_rows(self, name, seed):
        # every row of a 9-price identification surface: the same root
        # count on both edges, and the same roots to 1e-13 relative
        if seed is None:
            pop = conditional_forms()[name]
            window = (pop.ratio.r_lo, pop.ratio.r_hi)
        else:
            pop, window = benchmark_populations(seed)[name], (0.5, 1.5)
        p, xq = self.surface_rows(pop, window)
        for new, old in zip(closed_form_roots(pop, p, xq),
                            bisection_roots(pop, p, xq)):
            assert new.shape == old.shape and np.any(~np.isnan(new))
            assert np.array_equal(np.isnan(new), np.isnan(old))
            assert np.nanmax(np.abs(new - old)
                             / np.fmax(1.0, np.abs(old))) <= 1e-13

    def test_dense_table_solves_only_cells_its_rows_cross(self, monkeypatch):
        # 1,024 cells: each row reaches the root solver in about two
        # (row, cell) pairs per edge, not in every cell
        pop = sine_table_low(1025)
        prices = ident.chebyshev_prices(0.5, 2.0, 9)
        xq = ident.default_quality_grid(pop, prices, 4096)
        p, xq = np.repeat(prices, xq.size), np.tile(xq, prices.size)
        inside = np.zeros(p.size, dtype=bool)
        for price in prices:
            nobody, everybody = live_offsets(pop, price)
            inside |= (p == price) & (xq >= nobody) & (xq <= everybody)
        p, xq = p[inside], xq[inside]
        pairs = []
        solve = pops.quadrature.poly_roots

        def counted(coef, width):
            pairs.append(coef.shape[0])
            return solve(coef, width)

        monkeypatch.setattr(pops.quadrature, "poly_roots", counted)
        roots = closed_form_roots(pop, p, xq)
        assert 0 < sum(pairs) <= 2 * 4 * p.size
        assert sum(np.sum(~np.isnan(r)) for r in roots) > p.size

    def test_roots_of_a_row_ignore_the_other_rows(self):
        pop = conditional_forms()["fixed_high_table"]
        p, xq = self.surface_rows(pop, (1.0, 2.0))
        pick = np.arange(0, p.size, 97)
        xq[pick[::5]] = np.nan
        every = closed_form_roots(pop, p, xq)
        alone = closed_form_roots(pop, p[pick], xq[pick])
        for edge, part in zip(every, alone):
            width = part.shape[1]
            assert same_bits(edge[pick, :width], part)
            assert np.all(np.isnan(edge[pick, width:]))
            assert np.all(np.isnan(part[::5]))


class TestThresholdKernel:
    """The ratio_conditional kernel over the money-value threshold,
    against the ratio-variable reference over the whole support."""

    @pytest.mark.parametrize("name, seed", [
        *[(name, None) for name in [*conditional_forms(), "sine_table129"]],
        *[(twin, seed) for seed in (5, 97, 211) for twin in ("low", "high")]])
    def test_surface_matches_the_ratio_reference(self, name, seed):
        # every entry of a 9-price identification surface to 1e-12; the
        # two variables put their nodes in different places, and the
        # largest gap, 2.5e-13, is conditional_low's
        if seed is not None:
            pop, window = benchmark_populations(seed)[name], (0.5, 1.5)
        else:
            pop = (sine_table_low(129) if name == "sine_table129"
                   else conditional_forms()[name])
            window = (pop.ratio.r_lo, pop.ratio.r_hi)
        prices = ident.chebyshev_prices(*window, 9)
        xq = ident.default_quality_grid(pop, prices, 4096)
        got, est = pop._quality_surface(prices, xq)
        assert np.all(est <= pops.SURFACE_TOL)
        for j, p in enumerate(prices):  # a column at a time bounds memory
            want, _ = conditional_reference(pop, p, xq)
            assert np.max(np.abs(got[:, j] - want)) <= 1e-12, p

    def test_twins_take_fewer_integrand_nodes(self, monkeypatch):
        # a twin's verify_recovery surface: over the ratio, with the pole
        # of its threshold at r = p inside a hull's reach, the kernel
        # evaluated 352,149 integrand nodes on the low twin and 157,248 on
        # the high one at seed 3; over the threshold it takes 206,535 and
        # 115,626
        twins = benchmark_populations(3)
        prices = ident.chebyshev_prices(0.5, 1.5, 9)
        quad = pops.quadrature.segmented_gl
        nodes = []

        def counted(lo, hi, breaks, f, **kw):
            def integrand(x, rows):
                nodes.append(x.size)
                return f(x, rows)
            return quad(lo, hi, breaks, integrand, **kw)

        monkeypatch.setattr(pops.quadrature, "segmented_gl", counted)
        for name, before, share in (("low", 352_149, 0.65),
                                    ("high", 157_248, 0.8)):
            pop = twins[name]
            nodes.clear()
            pop._quality_surface(prices,
                                 ident.default_quality_grid(pop, prices, 4096))
            assert sum(nodes) <= share * before, name


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
            assert a.T.flags.c_contiguous, name  # a (2, n) buffer
            assert np.array_equal(a, b), name
            assert np.all(a[:, 1] > 0), name

    @pytest.mark.parametrize("name", ["point_mass", "product", "independent",
                                      "conditional_low", "conditional_high",
                                      "mixture"])
    def test_a_draw_holds_little_more_than_its_result(self, usable_cpus,
                                                      name):
        # each column is drawn into the result and mapped there block by
        # block, so on two CPUs a draw holds its result and two blocks.  A
        # mixture also holds a byte and a mask entry per draw and one
        # component's draws: 1.73 times its result for this one, whose
        # point mass takes 60 % of the draws
        usable_cpus(2)
        pop = population_zoo()[name]
        pops.sample(pop, 1000, seed=1)  # cached laws are built untraced
        tracemalloc.start()
        try:
            draws = pops.sample(pop, 2 ** 20, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.8 if name == "mixture" else 1.15) * draws.nbytes

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_a_failing_draw_raises_at_its_first_bad_element(self, usable_cpus,
                                                           cpus):
        # every block fails; the lowest one raises, as one call would
        usable_cpus(cpus)
        n = SPLIT_MIN + 3
        first = np.random.default_rng(4).random()
        vm = MarginalSpec.uniform(0.5, 1.5)
        bad = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(1e308, 3.0, 0.0, 1.0), vm)
        with pytest.raises(SpecialFunctionFailure,
                           match=re.escape(f"(1e+308, 3, {first:.6g})")):
            pops.sample(bad, n, seed=4)
        # a table of mass 1/2 has no quantile above 1/2
        half = pops.IndependentPopulation(
            MarginalSpec("tabulated", 0.0, 1.0, table=PwLinearTable.raw(
                [0.0, 1.0], [0.5, 0.5])), vm)
        with pytest.raises(ValueError, match="ppf target outside"):
            pops.sample(half, n, seed=4)

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

    @pytest.mark.parametrize("pop, entry", [
        (pops.PointMassPopulation(1e200, 1.0), "E[vk**2 vm**0]"),
        (pops.ProductPopulation(seed_ratio(2e160),
                                MarginalSpec.uniform(1e160, 2e160)),
         "E[vk**0 vm**2]"),
        (pops.RatioConditionalPopulation(
            seed_ratio(), pops.ConditionalSpec("custom", h_table=(
                PwLinearTable.raw([1.0, 2.0], [1e100, 1e100])))),
         "E[vk**0 vm**4]")],
        ids=["float_power", "closed_form", "quadrature"])
    def test_overflow_names_the_entry(self, pop, entry):
        # a float power that raises OverflowError, and a quadrature
        # integrand that overflows, are one typed error; any NumPy
        # warning would fail the test
        with pytest.raises(NonFiniteMoment, match=re.escape(entry)):
            pops.moments(pop, 4)

    def test_point_mass_ratio_marginal_is_degenerate(self):
        spec = pops.ratio_marginal(pops.PointMassPopulation(3.0, 2.0))
        assert not spec.has_density
        assert spec.atoms[0][0] == pytest.approx(1.5)

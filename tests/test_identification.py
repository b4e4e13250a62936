import math
import warnings

import numpy as np
import pytest
from scipy.optimize import isotonic_regression

import demandlab as dl
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.errors import (IllConditioned, InsufficientPrices,
                              NonFiniteMoment, TailMassExceeded)
from demandlab.marginals import MarginalSpec
from helpers import (beta_independent, full_range_profile, kinked_h_custom,
                     kinked_ratio_low, same_bits, seed_ratio, sine_table_low,
                     surface_zoo, zigzag_ratio_low)


class TestChebyshevPrices:
    def test_nodes_sit_inside_and_are_symmetric(self):
        p = ident.chebyshev_prices(0.5, 1.5, 9)
        assert p.size == 9
        assert np.all((p > 0.5) & (p < 1.5))
        assert np.all(np.diff(p) > 0)
        np.testing.assert_allclose(p + p[::-1], 2.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ident.chebyshev_prices(1.5, 0.5, 9)
        with pytest.raises(ValueError):
            ident.chebyshev_prices(0.5, 1.5, 0)


def pooled(y):
    """The pool-adjacent-violators stack, run on every value."""
    vals, counts = [], []
    for v in y:
        vals.append(float(v))
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            total = vals[-1] * counts[-1] + vals[-2] * counts[-2]
            cnt = counts[-1] + counts[-2]
            vals.pop()
            counts.pop()
            vals[-1] = total / cnt
            counts[-1] = cnt
    return np.repeat(vals, counts)


class TestPava:
    def test_matches_scipy_isotonic_regression(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.normal(size=rng.integers(2, 40))
            ours = ident.pava(y)
            ref = isotonic_regression(y).x
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_sorted_input_takes_the_loops_bits(self):
        # nondecreasing input is returned as a copy; the pooling loop
        # would give the same bits, and keeps every other input (a
        # decrease, a NaN)
        cases = {"sorted": np.linspace(-1.0, 2.0, 17),
                 "tied": np.array([0.0, 0.0, 0.25, 0.25, 0.25, 1.0]),
                 "signed_zeros": np.array([0.0, -0.0, 0.0, -0.0]),
                 "decreasing": np.array([0.0, 0.5, 0.4, 0.9, 0.3, 1.0]),
                 "nan": np.array([0.0, 0.2, np.nan, 0.6, 1.0]),
                 "one": np.array([0.7]), "empty": np.array([])}
        for name, y in cases.items():
            got = ident.pava(y)
            assert got is not y, name
            assert same_bits(got, pooled(y)), name
        y = cases["sorted"]
        ident.pava(y)[0] = 9.0
        assert y[0] == -1.0

    def test_prefix_and_suffix_take_the_loops_bits(self):
        # the values before the first drop start the stack and the values
        # after the last one are appended once nothing pools: a block can
        # still pool past the last drop, and NaN, signed zeros and ties
        # sit on either side
        cases = [[0.0, 0.1, 0.2, 0.9, 0.3, 0.4, 0.5, 0.6],
                 [5.0, 0.0, 1.0, 2.0, 3.0, 6.0],
                 [0.0, 0.5, 0.4, 0.45, 0.45, 0.7, 0.2, 0.8, 0.9],
                 [np.nan, 0.3, 0.2, 0.4, np.nan, 0.1, 0.5],
                 [-0.0, 0.0, 0.5, 0.5, 0.25, -0.0, 0.0, 1.0],
                 [1.0, 0.0]]
        rng = np.random.default_rng(11)
        for _ in range(300):
            y = np.sort(rng.normal(size=rng.integers(2, 60)))
            y[rng.integers(y.size)] += rng.normal()
            cases.append(y)
        for y in cases:
            y = np.asarray(y)
            assert same_bits(ident.pava(y), pooled(y)), y

    def test_idempotent_and_mean_preserving(self):
        y = np.array([3.0, 1.0, 2.0, 0.5, 4.0])
        z = ident.pava(y)
        assert np.all(np.diff(z) >= 0)
        np.testing.assert_allclose(ident.pava(z), z, atol=0)
        assert z.mean() == pytest.approx(y.mean(), abs=1e-12)


class TestSliceExtraction:
    def test_point_mass_slice_steps_at_the_right_quality(self):
        # vk=2, vm=1: at price p the buyer needs xq >= p - 2, so the
        # slice variable W = vk - p*vm has all mass at 2 - p
        pop = pops.PointMassPopulation(2.0, 1.0)
        grid = np.linspace(-4.0, 4.0, 4097)
        surface = dl.quality_demand_surface(pop, grid, np.array([0.5, 1.5]))
        for p, w_star in ((0.5, 1.5), (1.5, 0.5)):
            sdist = ident.slice_from_surface(surface, p)
            mid = 0.5 * (sdist.cdf[:-1] + sdist.cdf[1:])
            jump = sdist.w_grid[np.argmax(mid > 0.5)]
            assert jump == pytest.approx(w_star, abs=3e-3)
            m = ident.slice_moments(sdist, 2)
            # step cdf is resolved to one grid cell, so O(h) accuracy
            assert m[0] == pytest.approx(w_star, abs=5e-3)
            assert m[1] == pytest.approx(w_star ** 2, abs=5e-3)

    @pytest.mark.parametrize("n, order", [(4097, 4), (4096, 3)],
                             ids=["uniform", "irregular"])
    def test_overflowing_slice_moment_is_named(self, n, order):
        # W of order 1e100: E[W^4] overflows, and the irregular rule's
        # cell integrals of w^(m + 1) one order sooner; no NumPy warning
        w = np.linspace(-2e100, 2e100, 4097)
        if n == 4096:
            w = np.delete(w, 1)
        sdist = ident.SliceDistribution(1.5, w, np.linspace(0.0, 1.0, n),
                                        0.0, 0.0)
        assert np.all(np.isfinite(ident.slice_moments(sdist, order - 1)))
        with pytest.raises(NonFiniteMoment,
                           match=rf"E\[W\*\*{order}\] at price 1\.5 "):
            ident.slice_moments(sdist, 4)

    def test_linear_cdf_slice_moment_is_exact(self):
        # vk ~ U[0,1], vm = 1, p = 0: W = vk, E[W^2] = 1/3 and the cdf
        # is piecewise linear, which the quadrature handles exactly
        pop = pops.IndependentPopulation(MarginalSpec.uniform(0.0, 1.0),
                                         MarginalSpec.point_mass(1.0))
        grid = np.linspace(-1.5, 1.5, 4097)
        surface = dl.quality_demand_surface(pop, grid, np.array([0.0, 1.0]))
        sdist = ident.slice_from_surface(surface, 0.0)
        m = ident.slice_moments(sdist, 2)
        assert m[0] == pytest.approx(0.5, abs=1e-9)
        assert m[1] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_slices_of_one_grid_share_its_powers(self, monkeypatch):
        # the slices of a surface share one grid, so each power of it is
        # computed once for all of them, with the bits each slice gets on
        # its own; slices read one at a time share it too
        pop = beta_independent()
        grid = np.linspace(-2.5, 2.5, 513)
        prices = np.array([0.6, 0.8, 1.0, 1.2, 1.4])
        surface = dl.quality_demand_surface(pop, grid, prices)
        slices = ident.surface_slices(surface)
        assert all(s.w_grid is slices[0].w_grid for s in slices)
        rows = np.vstack([ident.slice_moments(s, 4) for s in slices])
        assert same_bits(ident.slice_moment_rows(slices, 4), rows)
        table = ident.recover_cross_moments(slices, 4)
        want = ident.recover_from_slice_moments(prices, rows, 4)
        assert table.entries == want.entries
        assert table.errors == want.errors
        stacks = []
        grid_moments = ident._grid_moments

        def record(w, cdfs, n):
            stacks.append(cdfs.shape[0])
            return grid_moments(w, cdfs, n)

        monkeypatch.setattr(ident, "_grid_moments", record)
        alone = [ident.slice_from_surface(surface, p) for p in prices]
        assert same_bits(ident.slice_moment_rows(alone, 4), rows)
        assert stacks == [5]

    def test_tail_mass_guard(self):
        pop = beta_independent()
        grid = np.linspace(-0.5, 0.5, 257)  # far too narrow for vk-p*vm
        surface = dl.quality_demand_surface(pop, grid,
                                            np.array([0.5, 1.5]))
        with pytest.raises(TailMassExceeded):
            ident.slice_from_surface(surface, 1.5)


class TestUniformGridQuadrature:
    def test_exact_on_cubics_for_every_length_residue(self):
        # Boole body plus 3/8 blocks covers every interval-count residue
        # once at least one full block fits
        h = 0.01
        for size in (5, 7, 8, 9, 10, 13, 16, 17, 18, 19):
            x = np.arange(size) * h
            y = 2.0 * x ** 3 - x ** 2 + 3.0 * x - 1.0
            want = (0.5 * x[-1] ** 4 - x[-1] ** 3 / 3.0
                    + 1.5 * x[-1] ** 2 - x[-1])
            got = ident._integrate_uniform(y, h)
            assert got == pytest.approx(want, abs=1e-14), size

    def test_short_arrays_fall_back_to_trapezoid(self):
        # sizes 2-4 cannot host a cubic block; size 6 leaves a 2-interval
        # remainder no 3/8 block can absorb
        h = 0.5
        for size in (2, 3, 4, 6):
            y = np.linspace(1.0, 2.0, size) ** 2
            got = ident._integrate_uniform(y, h)
            assert got == pytest.approx(np.trapezoid(y, dx=h), abs=1e-15)

    def test_nonuniform_grid_uses_exact_stieltjes_sum(self):
        # cdf F(w) = w on an uneven grid: E[W^m] = 1/(m+1) exactly
        # because the piecewise-linear density is handled in closed form
        w = np.array([0.0, 0.13, 0.2, 0.55, 0.71, 1.0])
        sdist = ident.SliceDistribution(p=1.0, w_grid=w, cdf=w.copy(),
                                        tail_mass=0.0, repair=0.0)
        m = ident.slice_moments(sdist, 4)
        for order, val in enumerate(m, start=1):
            assert val == pytest.approx(1.0 / (order + 1), abs=1e-15)


def discrete_population_rows(vks, vms, weights, prices, max_order):
    """Exact E[(vk - p*vm)^n] rows for an atomic population."""
    rows = np.zeros((prices.size, max_order))
    for i, p in enumerate(prices):
        w = vks - p * vms
        for n in range(1, max_order + 1):
            rows[i, n - 1] = float(np.sum(weights * w ** n))
    return rows


class TestMomentRecovery:
    def test_hand_worked_order_one(self):
        # E[W_p] = E[vk] - p E[vm]; two prices pin the line down
        prices = np.array([0.5, 1.0])
        rows = np.array([[0.75], [0.5]])  # E[vk] = 1, E[vm] = 0.5
        table = ident.recover_from_slice_moments(prices, rows, 1)
        assert table[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert table[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_randomized_atomic_populations_are_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            vks = rng.uniform(0.2, 3.0, size=5)
            vms = rng.uniform(0.3, 2.0, size=5)
            weights = rng.dirichlet(np.ones(5))
            prices = np.sort(rng.uniform(0.4, 1.8, size=7))
            rows = discrete_population_rows(vks, vms, weights, prices, 4)
            table = ident.recover_from_slice_moments(prices, rows, 4)
            for j in range(5):
                for k in range(5 - j):
                    if j == k == 0:
                        continue
                    want = float(np.sum(weights * vks ** j * vms ** k))
                    assert table[j, k] == pytest.approx(
                        want, rel=1e-9, abs=1e-9), (j, k)

    def test_scale_covariance_of_recovered_moments(self):
        # scaling both values by c multiplies mu_{j,k} by c^(j+k);
        # prices are ratios of values, so they stay put
        rng = np.random.default_rng(23)
        vks = rng.uniform(0.2, 3.0, size=5)
        vms = rng.uniform(0.3, 2.0, size=5)
        weights = rng.dirichlet(np.ones(5))
        prices = np.sort(rng.uniform(0.4, 1.8, size=7))
        c = 3.7
        base = ident.recover_from_slice_moments(
            prices, discrete_population_rows(vks, vms, weights, prices, 4),
            4)
        scaled = ident.recover_from_slice_moments(
            prices,
            discrete_population_rows(c * vks, c * vms, weights, prices, 4),
            4)
        for j in range(5):
            for k in range(5 - j):
                if j == k == 0:
                    continue
                assert scaled[j, k] == pytest.approx(
                    c ** (j + k) * base[j, k], rel=1e-8)

    def test_too_few_distinct_prices(self):
        rows = np.ones((4, 4))
        with pytest.raises(InsufficientPrices):
            ident.recover_from_slice_moments(
                np.array([0.5, 0.7, 0.9, 1.1]), rows, 4)
        # duplicated prices collapse before the count check
        with pytest.raises(InsufficientPrices):
            ident.recover_from_slice_moments(
                np.array([0.5, 0.5, 0.9, 1.1]), np.ones((4, 3)), 3)
        with pytest.raises(InsufficientPrices):
            ident.recover_cross_moments([], 4)

    def test_non_finite_solutions_are_named(self):
        prices = np.array([0.5, 1.0, 2.0])
        rows = np.array([[1.0, 2.0], [0.5, np.inf], [0.0, 1.0]])
        with pytest.raises(NonFiniteMoment,
                           match=r"E\[vk\*\*2 vm\*\*0\] is not finite"):
            ident.recover_from_slice_moments(prices, rows, 2)
        # finite rows whose solution overflows
        rows = np.array([[1.7e308], [-1.7e308], [-1.7e308]])
        with pytest.raises(NonFiniteMoment, match="recovered moment E"):
            ident.recover_from_slice_moments(prices, rows, 1)

    def test_clustered_prices_trip_the_condition_guard(self):
        prices = 1.0 + np.linspace(0.0, 1e-9, 9)
        with pytest.raises(IllConditioned) as exc:
            ident.recover_from_slice_moments(prices, np.ones((9, 4)), 4)
        assert exc.value.order == 2
        assert exc.value.condition > 1e10


class TestConfig:
    def test_price_count_must_cover_the_order(self):
        with pytest.raises(InsufficientPrices):
            ident.IdentificationConfig(0.5, 1.5, n_prices=4, max_order=4)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            ident.IdentificationConfig(1.5, 0.5)
        with pytest.raises(ValueError):
            ident.IdentificationConfig(0.5, 1.5, n_quality=1)
        with pytest.raises(ValueError):
            ident.IdentificationConfig(0.5, 1.5, tail_bound=-1.0)

    def test_nan_tail_bound_is_rejected(self):
        # no tail mass exceeds NaN, so it would turn the tail gate off
        with pytest.raises(ValueError, match="tail bound"):
            ident.IdentificationConfig(0.5, 1.5, tail_bound=float("nan"))


class TestEndToEnd:
    def test_independent_beta_recovery(self):
        pop = beta_independent()
        config = ident.IdentificationConfig(0.5, 1.5, n_prices=9,
                                            max_order=4, n_quality=4096)
        report = ident.verify_recovery(pop, config)
        assert report.max_rel_error <= 1e-6
        assert report.recovered_mean_vm == pytest.approx(1.0, abs=1e-6)
        assert report.tail_mass <= 1e-9
        assert len(report.prices) == 9

    @pytest.mark.parametrize("build", [kinked_ratio_low, kinked_h_custom])
    def test_kinked_conditional_law_recovers(self, build):
        # surface panels split at the interior knots of g and of h
        report = ident.verify_recovery(
            build(), ident.IdentificationConfig(0.5, 2.0))
        assert report.max_rel_error <= 1e-6

    @pytest.mark.parametrize("name", ["tent_high", "fixed_high",
                                      "fixed_high_table", "flat_h_custom"])
    def test_every_crossing_degree_recovers(self, name):
        # band edges whose crossings solve a cubic, a quintic or a linear
        # equation on some cell; every order-4 moment within 1e-6
        pop = surface_zoo()[name]
        report = ident.verify_recovery(
            pop, ident.IdentificationConfig(pop.ratio.r_lo, pop.ratio.r_hi))
        assert report.max_rel_error <= 1e-6
        assert report.quadrature_error <= pops.SURFACE_TOL

    def test_band_edges_with_five_crossings_recover(self, monkeypatch):
        # some quality rows cross a band edge five times; every crossing
        # becomes a panel break
        widths = []
        solve = pops.RatioConditionalPopulation._crossing_roots

        def record(*args):
            roots = solve(*args)
            widths.append(roots.shape[1])
            return roots

        monkeypatch.setattr(pops.RatioConditionalPopulation,
                            "_crossing_roots", record)
        report = ident.verify_recovery(
            zigzag_ratio_low(), ident.IdentificationConfig(0.5, 2.0))
        assert max(widths) == 5
        assert report.max_rel_error <= 1e-7

    @pytest.mark.parametrize("build, window, bound", [
        # non-integer money-value shapes: the old fixed panels lost
        # digits at 2.1 and 1.5 and broke monotonicity at 2.5
        *[(lambda a=a, b=b: pops.IndependentPopulation(
              MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0),
              MarginalSpec.scaled_beta(a, b, 0.5, 1.5)), (0.5, 1.5), 1e-7)
          for a, b in ((2.1, 2.0), (2.5, 2.5), (1.5, 3.0))],
        # rough shapes, integrated in the graded variable
        *[(lambda a=a: pops.IndependentPopulation(
              MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0),
              MarginalSpec.scaled_beta(a, 2.0, 0.5, 1.5)), (0.5, 1.5), 1e-8)
          for a in (0.5, 1.2)],
        # a narrow and three wide conditionals; at sigma 0.01 the quality
        # grid, not the quadrature, holds the error near 1.6e-6, and the
        # wide ones take erf differences where Phi differences cancel
        (lambda: pops.make_low_population(seed_ratio(), 0.5,
                                          sigma_multiplier=0.01),
         (0.5, 1.5), 5e-6),
        *[(lambda s=s: pops.make_low_population(seed_ratio(), 0.5,
                                                sigma_multiplier=s),
           (0.5, 1.5), 1e-7) for s in (1e4, 1e6, 1e12)],
        # dense tables, split at every knot; the 9-knot table, which
        # always split, sits at 9.8e-8 from the quality grid
        (lambda: sine_table_low(12), (0.5, 2.0), 2e-7),
        (lambda: sine_table_low(40), (0.5, 2.0), 2e-7),
    ], ids=["beta2.1-2", "beta2.5-2.5", "beta1.5-3", "beta0.5-2",
            "beta1.2-2", "sigma0.01",
            "sigma1e4", "sigma1e6", "sigma1e12", "table12", "table40"])
    def test_laws_the_fixed_panels_failed_recover(self, build, window,
                                                  bound):
        report = ident.verify_recovery(build(),
                                       ident.IdentificationConfig(*window))
        assert report.max_rel_error <= bound
        assert report.quadrature_error <= pops.SURFACE_TOL

    def test_narrow_conditional_surface_matches_a_fine_fixed_rule(
            self, monkeypatch):
        # every entry against 16-point Gauss-Legendre on 200 panels per
        # segment, the same breaks and the same integrand, over each row's
        # live hull; and the closed-form mass outside the hulls against
        # that rule over the whole ratio support
        pop = pops.make_low_population(seed_ratio(), 0.5,
                                       sigma_multiplier=0.01)
        xq = np.linspace(-3.0, 3.0, 129)
        prices = np.array([0.7, 1.3])
        surface = dl.quality_demand_surface(pop, xq, prices)
        x16, w16 = np.polynomial.legendre.leggauss(16)

        def fixed(lo, hi, breaks, integrand, *, tol):
            n = breaks.shape[0]
            lo, hi = (np.broadcast_to(np.asarray(end, dtype=float)[..., None],
                                      (n, 1)) for end in (lo, hi))
            edges = np.concatenate(
                (lo, np.sort(np.clip(breaks, lo, hi), axis=1), hi), axis=1)
            panels = (edges[:, :-1, None] + np.diff(edges, axis=1)[..., None]
                      * np.linspace(0.0, 1.0, 201))
            a, b = panels[..., :-1].ravel(), panels[..., 1:].ravel()
            rows = np.repeat(np.arange(n), a.size // n)
            half = 0.5 * (b - a)
            f = integrand((a + half)[:, None] + half[:, None] * x16, rows)
            return np.bincount(rows, half * (f @ w16)), np.zeros(n)

        monkeypatch.setattr(pops.quadrature, "segmented_gl", fixed)
        reference = dl.quality_demand_surface(pop, xq, prices)
        assert np.max(np.abs(surface.values - reference.values)) <= 1e-10
        assert np.all(surface.quadrature_errors <= pops.SURFACE_TOL)
        whole = full_range_profile(pop, np.tile(prices, xq.size),
                                   np.repeat(xq, prices.size))[0]
        assert np.max(np.abs(reference.values - whole.reshape(xq.size, -1))
                      ) <= 1e-15

    def test_twin_recovery_makes_two_quadrature_calls(self, monkeypatch):
        # one for the whole surface and one for the whole reference table
        calls = []
        quad = pops.quadrature.segmented_gl

        def counted(*args, **kwargs):
            calls.append(args[2].shape[0])
            return quad(*args, **kwargs)

        monkeypatch.setattr(pops.quadrature, "segmented_gl", counted)
        config = ident.IdentificationConfig(0.5, 1.5, n_prices=9,
                                            max_order=4, n_quality=4096)
        for pop in (pops.make_low_population(seed_ratio(), 0.5),
                    pops.make_high_population(seed_ratio(), 0.04)):
            calls.clear()
            ident.verify_recovery(pop, config)
            assert len(calls) == 2
            assert calls[1] == 15  # the pairs j + k <= 4

    def test_report_serialization(self):
        pop = beta_independent()
        config = ident.IdentificationConfig(0.5, 1.5, n_quality=1024)
        doc = ident.verify_recovery(pop, config).to_json_dict()
        assert sorted(doc) == ['config', 'entry_rel_errors',
                               'isotonic_repair', 'max_rel_error', 'prices',
                               'quadrature_error', 'recovered',
                               'recovered_mean_vm', 'reference', 'tail_mass']
        assert 0.0 <= doc['quadrature_error'] <= pops.SURFACE_TOL
        assert doc['recovered']['entries']['0,1'] == pytest.approx(1.0, abs=1e-6)

    def test_twin_surfaces_raise_no_runtime_warnings(self):
        ratio = pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=100.0)
        config = ident.IdentificationConfig(1.1, 1.9, n_prices=5,
                                            max_order=2, n_quality=256)
        for pop in (pops.make_low_population(ratio, 0.5),
                    pops.make_high_population(ratio, 0.04)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                ident.build_surface(pop, config)

    def test_surface_shape_honors_config(self):
        pop = beta_independent()
        config = ident.IdentificationConfig(0.5, 1.5, n_prices=5,
                                            max_order=2, n_quality=512)
        surface = ident.build_surface(pop, config)
        assert surface.values.shape == (512, 5)
        np.testing.assert_allclose(
            surface.price_grid, ident.chebyshev_prices(0.5, 1.5, 5))

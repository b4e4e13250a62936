import numpy as np
import pytest
from scipy import stats

from demandlab import MomentTable
from demandlab.errors import NoDensity
from demandlab.marginals import MarginalSpec, PwLinearTable


class TestPwLinearTable:
    def test_density_validates_total(self):
        x = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            PwLinearTable.density(x, np.array([1.0, 1.1]))  # integrates to 1.05
        tab = PwLinearTable.density(x, np.array([1.0, 1.0 + 1e-9]))
        assert tab.integral_between(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_raw_total_is_computed(self):
        tab = PwLinearTable.raw(np.array([0.0, 2.0]), np.array([3.0, 3.0]))
        assert tab.total == pytest.approx(6.0)

    def test_cdf_ppf_round_trip(self):
        x = np.linspace(0.0, 1.0, 9)
        tab = PwLinearTable.density(x, 1.5 - x)  # integrates to 1 on [0, 1]
        qs = np.linspace(1e-6, 1 - 1e-6, 41)
        back = tab.cdf(tab.ppf(qs))
        assert np.allclose(back, qs, atol=1e-12)

    def test_cdf_clamps_outside_support(self):
        tab = PwLinearTable.density(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert tab.cdf(0.5) == 0.0
        assert tab.cdf(3.0) == 1.0

    def test_moment_matches_uniform_closed_form(self):
        a, b = 0.5, 2.5
        tab = PwLinearTable.density(np.array([a, b]),
                                    np.array([1.0, 1.0]) / (b - a))
        for n in range(5):
            want = (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
            assert tab.moment(n) == pytest.approx(want, rel=1e-13)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            PwLinearTable.density(np.array([0.0, 1.0]),
                                  np.array([2.1, -0.1]))


class TestMarginalSpec:
    def test_uniform_moments(self):
        spec = MarginalSpec.uniform(0.5, 1.5)
        assert spec.mean == pytest.approx(1.0)
        assert spec.moment(2) == pytest.approx(1.0 + 1.0 / 12.0)

    def test_point_mass(self):
        spec = MarginalSpec.point_mass(2.0)
        assert spec.is_degenerate
        assert spec.moment(3) == pytest.approx(8.0)
        assert spec.cdf(1.999) == 0.0 and spec.cdf(2.0) == 1.0
        with pytest.raises(NoDensity):
            spec.pdf(2.0)

    def test_beta_against_scipy(self):
        a, b, lo, hi = 2.0, 3.0, 0.25, 1.75
        spec = MarginalSpec.scaled_beta(a, b, lo=lo, hi=hi)
        ref = stats.beta(a, b, loc=lo, scale=hi - lo)
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 17)
        assert np.allclose(spec.pdf(xs), ref.pdf(xs), rtol=1e-12)
        assert np.allclose(spec.cdf(xs), ref.cdf(xs), rtol=1e-12)
        for n in range(1, 5):
            assert spec.moment(n) == pytest.approx(ref.moment(n), rel=1e-12)

    def test_beta_ppf_inverts_cdf(self):
        spec = MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5)
        qs = np.linspace(0.01, 0.99, 25)
        assert np.allclose(spec.cdf(spec.ppf(qs)), qs, atol=1e-12)

    def test_tabulated_tracks_source_density(self):
        src = MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5)
        x = np.linspace(0.5, 1.5, 2001)
        y = np.asarray(src.pdf(x))
        y /= np.trapezoid(y, x)
        tab = MarginalSpec.tabulated(x, y)
        assert tab.mean == pytest.approx(src.mean, abs=1e-6)
        assert tab.moment(2) == pytest.approx(src.moment(2), abs=1e-6)

    def test_sampling_is_seeded_and_consistent(self):
        spec = MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        a = spec.sample(1000, rng1)
        b = spec.sample(1000, rng2)
        assert np.array_equal(a, b)
        big = spec.sample(200_000, np.random.default_rng(6))
        se = big.std(ddof=1) / np.sqrt(big.size)
        assert abs(big.mean() - spec.mean) < 4 * se


class TestMomentTable:
    def entries(self):
        e = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0,
             (2, 0): 4.0, (1, 1): 5.0, (0, 2): 6.0}
        return e, {k: 0.0 for k in e}

    def test_requires_full_triangle(self):
        e, errs = self.entries()
        del e[(1, 1)]
        with pytest.raises(ValueError):
            MomentTable(2, e, errs)

    def test_requires_unit_mass_entry(self):
        e, errs = self.entries()
        e[(0, 0)] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            MomentTable(2, e, errs)

    def test_rejects_non_finite(self):
        e, errs = self.entries()
        e[(2, 0)] = np.inf
        with pytest.raises(ValueError):
            MomentTable(2, e, errs)

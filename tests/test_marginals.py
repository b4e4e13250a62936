import hashlib
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
import scipy.special
from scipy import stats

from demandlab import MomentTable, marginals, quadrature
from demandlab.errors import NoDensity, SpecialFunctionFailure
from demandlab.marginals import MarginalSpec, PwLinearTable, _special
from helpers import same_bits, worker_names


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

    def test_ppf_round_trips_rising_flat_and_falling_segments(self):
        # a rising, a flat and two falling segments, the last down to 0:
        # each is solved from its nearer end, and the knots map back
        x = np.array([0.0, 1.0, 1.5, 2.5, 3.0])
        tab = PwLinearTable.raw(x, np.array([0.2, 1.0, 1.0, 0.4, 0.0]))
        qs = np.linspace(0.0, tab.total, 2001)
        assert np.max(np.abs(tab.cdf(tab.ppf(qs)) - qs)) <= 4.5e-16
        assert np.array_equal(tab.ppf(tab._cum), x)
        # a quantile's error times the density is the cdf's rounding
        v = np.linspace(0.0, 3.0, 3001)
        assert np.max(np.abs(tab.ppf(tab.cdf(v)) - v)
                      * tab.value_at(v)) <= 1e-15

    def test_triangular_ppf_holds_its_top_half(self):
        # the falling half is solved from hi with the mass left above q;
        # solved from the peak it lost digits as q neared 1
        law = MarginalSpec.triangular(0.8, 2.2)
        q = np.linspace(0.5, 1.0, 100_001)
        want = 2.2 - 1.4 * np.sqrt((1.0 - q) / 2.0)
        assert np.max(np.abs(law.ppf(q) - want) / want) <= 8e-16

    def test_cdf_clamps_outside_support(self):
        tab = PwLinearTable.density(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert tab.cdf(0.5) == 0.0
        assert tab.cdf(3.0) == 1.0

    def test_cdf_is_monotone_at_its_top_knot(self):
        # the top segment's formula can round past the trapezoid total
        # that the top knot returns: at (0.1, 0.3), cdf(0.3 - 1e-9) read
        # 1.0 over cdf(0.3) = 1 - 2^-53
        for lo, hi in ((0.1, 0.3), (0.5, 0.7), (0.8, 2.2), (1.0, 2.0),
                       (0.1, 0.7), (0.3, 1.1)):
            law = MarginalSpec.triangular(lo, hi)
            below = np.nextafter(hi, -np.inf) - np.geomspace(1e-15, 1e-6,
                                                             40)
            top = law.cdf(hi)
            assert np.all(law.cdf(below) <= top), (lo, hi)
            assert law.cdf(np.nextafter(hi, -np.inf)) <= top, (lo, hi)
            assert top == law.cdf(2.0 * hi), (lo, hi)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = np.cumsum(rng.uniform(0.05, 1.0, rng.integers(2, 9)))
            tab = PwLinearTable.raw(x, rng.uniform(0.0, 2.0, x.size))
            v = np.linspace(x[-2], x[-1], 2001)
            assert np.all(tab.cdf(v) <= tab.cdf(x[-1]))

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
        # no power above the order, so E[vm] fits where hi**2 does not
        assert MarginalSpec.uniform(1e160, 2e160).mean == 1.5e160
        for lo, hi in ((0.0, 1e-3), (0.5, 1.5), (2.0, 7.0)):
            spec = MarginalSpec.uniform(lo, hi)
            for n in range(1, 7):
                want = (hi ** (n + 1) - lo ** (n + 1)) / ((n + 1) * (hi - lo))
                assert spec.moment(n) == pytest.approx(want, rel=1e-14)

    def test_degree_of_polynomial_densities(self):
        assert MarginalSpec.uniform(0.5, 1.5).degree == 0
        assert MarginalSpec.scaled_beta(3.0, 4.0, 0.0, 1.0).degree == 5
        assert MarginalSpec.scaled_beta(1.0, 1.0, 0.0, 1.0).degree == 0
        cap = marginals.INT_SHAPE_MAX
        assert MarginalSpec.scaled_beta(cap - 1.0, 1.0, 0.0, 1.0).degree \
            == cap - 2
        for spec in (MarginalSpec.scaled_beta(2.5, 3.0, 0.0, 1.0),
                     MarginalSpec.scaled_beta(cap / 2, cap / 2 + 1.0, 0.0,
                                              1.0),
                     MarginalSpec.point_mass(1.0),
                     MarginalSpec.triangular(0.0, 1.0),
                     MarginalSpec.tabulated([0.0, 1.0], [1.0, 1.0])):
            assert spec.degree is None

    def test_triangular_closed_forms(self):
        # the closed-form values, read off the law's 3-knot table
        spec = MarginalSpec.triangular(1.0, 3.0)
        assert spec.kind == "tabulated"
        assert spec.pdf(2.0) == 1.0 and spec.pdf(0.5) == 0.0
        assert spec.cdf(2.0) == 0.5 and spec.cdf(1.5) == 0.125
        x = np.linspace(1.0, 3.0, 41)
        np.testing.assert_allclose(spec.ppf(spec.cdf(x)), x, rtol=1e-14)
        # v = 2 + X with X symmetric and E[X^2] = (3 - 1)^2 / 24
        for n, want in ((1, 2.0), (2, 25.0 / 6.0), (3, 9.0)):
            assert spec.moment(n) == pytest.approx(want, rel=1e-14)
        assert spec.knots.tolist() == [1.0, 2.0, 3.0]
        assert MarginalSpec.uniform(1.0, 3.0).knots.tolist() == [1.0, 3.0]

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

    @pytest.mark.parametrize("alpha, beta", [(np.nan, 2.0), (2.0, np.nan),
                                             (np.inf, 2.0), (2.0, np.inf)])
    def test_beta_shapes_must_be_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="finite shape"):
            MarginalSpec.scaled_beta(alpha, beta, 0.5, 1.5)


class TestTruncatedNormal:
    # U = Z / a0 on [-1, 1], Z a standard normal truncated to [-a0, a0]:
    # a0 = 1e-3 and 0.5 take the erf forms, 2, 8 and 37 the Phi ones
    A0 = [1e-3, 0.5, 2.0, 8.0, 37.0]

    @pytest.mark.parametrize("a0", A0)
    def test_matches_scipy_truncnorm(self, a0):
        law = MarginalSpec.truncated_normal(1.0 / a0)
        ref = stats.truncnorm(-a0, a0)
        u = np.linspace(-1.0, 1.0, 2001)
        # the density to 1e-13 relative; where it is below 1e-300 (at
        # a0 = 37 near the ends) to 1e-300 absolute
        want = a0 * ref.pdf(a0 * u)
        assert np.all(np.abs(law.pdf(u) - want)
                      <= 1e-13 * want + 1e-300)
        assert law.pdf(np.array([-1.5, 1.0 + 1e-15, 2.0])).tolist() == [0.0] * 3
        # the cdf to 1e-15 absolute; scipy's truncnorm takes Phi
        # differences, which cancel to about 1e-13 at a0 = 1e-3
        tol = 5e-13 if a0 < 0.5 else 1e-15
        assert np.max(np.abs(law.cdf(u) - ref.cdf(a0 * u))) <= tol
        # past the support it holds its end values, within 1e-15 of 0 and 1
        ends = law.cdf(np.array([-3.0, -1.0, 1.0, 3.0]))
        assert ends[0] == ends[1] and ends[2] == ends[3]
        assert np.allclose(ends[1:3], [0.0, 1.0], rtol=0.0, atol=1e-15)
        q = np.linspace(0.0, 1.0, 2001)
        assert np.max(np.abs(law.cdf(law.ppf(q)) - q)) <= 1e-15
        assert np.all(np.abs(law.ppf(q)) <= 1.0)

    @pytest.mark.parametrize("a0", [2.0, 1.0 / 0.3, 8.0, 20.0])
    def test_cdf_stays_on_zero_one_in_the_lower_tail(self, a0):
        # the Phi forms subtract Phi(-a0) itself, not 1 - Phi(a0), which
        # rounds: the cdf is exactly 0 at -1, never leaves [0, 1], and
        # keeps its relative accuracy where it is tiny
        law = MarginalSpec.truncated_normal(1.0 / a0)
        assert law.cdf(-1.0) == 0.0
        dense = law.cdf(np.linspace(-1.0, 1.0, 200_001))
        assert np.all((dense >= 0.0) & (dense <= 1.0))
        u = np.linspace(-1.0, -0.99, 11)[1:]
        want = stats.truncnorm(-a0, a0).cdf(a0 * u)
        assert np.max(np.abs(law.cdf(u) - want) / want) <= 1e-12

    @pytest.mark.parametrize("a0", A0)
    def test_moments_match_quadrature(self, a0):
        # E[U^n] against segmented_gl of u^n pdf(u) over [-1, 1], split
        # where the density turns (k / a0) and at 0, to its round-off floor
        law = MarginalSpec.truncated_normal(1.0 / a0)
        stops = sorted({min(k / a0, 1.0) for k in (1.0, 2.0, 4.0, 8.0)}
                       - {1.0})
        breaks = np.array([-s for s in stops[::-1]] + [0.0] + stops)
        n = np.arange(17)
        got, est = quadrature.segmented_gl(
            -1.0, 1.0, np.broadcast_to(breaks, (n.size, breaks.size)),
            lambda nodes, rows: nodes ** n[rows][:, None] * law.pdf(nodes),
            tol=0.0)
        for k in range(0, 17, 2):
            assert law.moment(k) == pytest.approx(got[k], rel=1e-12), k
        for k in range(1, 17, 2):
            assert law.moment(k) == 0.0
            assert abs(got[k]) <= est[k] + 1e-16, k
        # a higher order takes its own pass, on the same rule
        assert 0.0 < law.moment(18) <= law.moment(16)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.inf, np.nan])
    def test_sigma_must_be_positive_and_finite(self, sigma):
        with pytest.raises(ValueError, match="positive, finite sigma"):
            MarginalSpec.truncated_normal(sigma)

    def test_support_is_minus_one_to_one(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            MarginalSpec("truncated_normal", 0.0, 1.0, sigma=0.5)
        law = MarginalSpec.truncated_normal(0.5)
        assert law.knots.tolist() == [-1.0, 1.0]
        assert law.mean == 0.0 and law.degree is None
        assert law.end_shape == math.inf


def _powers(x: int, n: int) -> list:
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _rel_error(x: float, num: int, den: int) -> float:
    """|x - num/den| / (num/den), exactly up to the final rounding."""
    xn, xd = float(x).as_integer_ratio()
    return abs(xn * den - num * xd) / (num * xd)


class TestIntegerShapes:
    """Closed-form cdf and pdf of integer beta shapes up to the cap."""

    def test_within_rounding_bounds_of_exact_sums(self):
        # At t = n / d (d a power of 2) and m = d - n, d^(a+b-1) I_t(a, b)
        # is the integer n^a sum_{k<b} C(a+k-1, k) m^k d^(b-1-k), and
        # d^(a+b-2) times the density is (a+b-1) C(a+b-2, a-1) n^(a-1)
        # m^(b-1).  With u = 2^-53: rounding 1 - t costs at most u, which
        # the b-1 powers of 1 - t amplify (b-1)-fold; Horner adds a product
        # and a sum per step and t^a a products, so the cdf is within
        # (a + 3b - 3) u and the density (a + 2b - 3) u.  Normal results
        # only, since a subnormal one keeps fewer digits.
        cap = marginals.INT_SHAPE_MAX
        rng = np.random.default_rng(19)
        t = np.concatenate([rng.random(8), 10.0 ** rng.uniform(-12, 0, 8),
                            1.0 - 10.0 ** rng.uniform(-12, -0.3, 8),
                            [0.5, np.nextafter(0.5, 0.0),
                             np.nextafter(1.0, 0.0)]])
        points = []
        for x in t.tolist():
            n, d = x.as_integer_ratio()
            points.append((_powers(n, cap), _powers(d - n, cap),
                           _powers(d, cap)))
        tiny = 2 ** 1022  # exact value * tiny >= 1: a normal float
        u = 2.0 ** -53
        misses = []
        for s in range(2, cap + 1):
            for a in range(1, s):
                b = s - a
                spec = MarginalSpec.scaled_beta(a, b, 0.0, 1.0)
                cdf, pdf = spec.cdf(t), spec.pdf(t)
                for i, (pn, pm, pd) in enumerate(points):
                    num = pn[a] * sum(math.comb(a + k - 1, k) * pm[k]
                                      * pd[b - 1 - k] for k in range(b))
                    if num * tiny >= pd[s - 1]:
                        err = _rel_error(cdf[i], num, pd[s - 1])
                        if not err <= (a + 3 * b - 3) * u:
                            misses.append(("cdf", a, b, t[i], err / u))
                    num = ((s - 1) * math.comb(s - 2, a - 1) * pn[a - 1]
                           * pm[b - 1])
                    if num * tiny >= pd[s - 2]:
                        err = _rel_error(pdf[i], num, pd[s - 2])
                        if not err <= (a + 2 * b - 3) * u:
                            misses.append(("pdf", a, b, t[i], err / u))
        assert misses == []

    def test_ends_and_outside(self):
        spec = MarginalSpec.scaled_beta(3.0, 4.0, 0.5, 1.5)
        assert spec.cdf(np.array([0.0, 0.5, 1.5, 2.0])).tolist() \
            == [0.0, 0.0, 1.0, 1.0]
        assert spec.pdf(np.array([0.0, 0.5, 1.5, 2.0])).tolist() \
            == [0.0, 0.0, 0.0, 0.0]
        assert MarginalSpec.scaled_beta(1.0, 1.0, 0.5, 1.5).pdf(1.5) == 1.0
        assert np.isnan(spec.cdf(np.nan)) and spec.pdf(np.nan) == 0.0

    def test_bits_do_not_depend_on_the_split(self):
        # products and sums only, so an element's bits are the same in
        # a whole array, in its halves and alone
        spec = MarginalSpec.scaled_beta(3.0, 20.0, 0.5, 1.5)
        v = 0.5 + np.random.default_rng(3).random(1001)
        for fn in (spec.cdf, spec.pdf):
            whole = fn(v)
            assert same_bits(whole, np.concatenate([fn(v[:500]),
                                                    fn(v[500:])]))
            assert same_bits(whole[::97], [fn(x) for x in v[::97]])

    def test_cap_decides_the_route(self, monkeypatch):
        def no_scipy(name, *args):
            raise AssertionError(f"scipy.special.{name}")

        monkeypatch.setattr(marginals, "_special", no_scipy)
        v = np.linspace(0.0, 1.0, 9)
        cap = marginals.INT_SHAPE_MAX
        for a, b in ((1.0, 1.0), (cap / 2, cap / 2), (cap - 1.0, 1.0)):
            spec = MarginalSpec.scaled_beta(a, b, 0.0, 1.0)
            spec.cdf(v), spec.pdf(v)
        # 1e308 is an integer-valued float far above the cap
        for a, b in ((cap / 2, cap / 2 + 1.0), (2.5, 3.0), (1e308, 3.0)):
            spec = MarginalSpec.scaled_beta(a, b, 0.0, 1.0)
            with pytest.raises(AssertionError, match="betainc"):
                spec.cdf(v)

    @pytest.mark.parametrize("a, b", [(2.5, 3.0), (16.0, 17.0)])
    def test_other_shapes_keep_scipy_bits(self, a, b):
        lo, hi = 0.25, 1.75
        spec = MarginalSpec.scaled_beta(a, b, lo, hi)
        v = np.linspace(0.2, 1.8, 33)
        t = (v - lo) / (hi - lo)
        assert same_bits(spec.cdf(v),
                         scipy.special.betainc(a, b, np.clip(t, 0.0, 1.0)))
        ts = np.clip(t, 1e-300, 1.0 - 1e-16)
        log_pdf = ((a - 1.0) * np.log(ts) + (b - 1.0) * np.log1p(-ts)
                   - scipy.special.betaln(a, b))
        assert same_bits(spec.pdf(v),
                         np.where((t >= 0.0) & (t <= 1.0),
                                  np.exp(log_pdf) / (hi - lo), 0.0))


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


def _unit_interval(n, rng):
    # n uniform points with 0, 1 and NaN among them
    x = rng.random(n)
    x[[0, n // 2, n - 1]] = (0.0, 1.0, np.nan)
    return x


# Arguments of each special function, for n elements.
SPECIAL_ARGS = {
    "betainc": lambda n, rng: (2.5, 3.0, _unit_interval(n, rng)),
    "betaincinv": lambda n, rng: (2.0, 3.5, _unit_interval(n, rng)),
    "betaln": lambda n, rng: (4.0 * _unit_interval(n, rng), 2.0),
    "ndtr": lambda n, rng: (4.0 * _unit_interval(n, rng) - 2.0,),
    "ndtri": lambda n, rng: (_unit_interval(n, rng),),
}
SPLIT_SIZES = (marginals.SPLIT_MIN - 1, marginals.SPLIT_MIN,
               marginals.SPLIT_MIN + 7)


@pytest.fixture
def three_cpus(usable_cpus):
    """Three CPUs whatever the machine has."""
    usable_cpus(3)


class TestSpecialHelper:
    @pytest.mark.parametrize("name", sorted(SPECIAL_ARGS))
    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_split_matches_direct_call(self, three_cpus, drainers, name, n):
        args = SPECIAL_ARGS[name](n, np.random.default_rng(n))
        with np.errstate(all="raise"):
            got = _special(name, *args)
            want = getattr(scipy.special, name)(*args)
        # the caller and two workers drain a split call
        split = n >= marginals.SPLIT_MIN
        assert [len(worker_names(run)) for run in drainers] == \
            ([2] if split else [])
        assert [len(run) for run in drainers] == ([3] if split else [])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(SPECIAL_ARGS))
    def test_two_dimensional_input(self, three_cpus, drainers, name):
        flat = SPECIAL_ARGS[name](300 * 257, np.random.default_rng(3))
        args = [a.reshape(300, 257) if np.ndim(a) else a for a in flat]
        got = _special(name, *args)
        assert [len(worker_names(run)) for run in drainers] == [2]
        want = getattr(scipy.special, name)(*args)
        assert got.shape == (300, 257)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(SPECIAL_ARGS))
    def test_scalar_stays_scalar(self, name):
        args = [a[1] if np.ndim(a) else a
                for a in SPECIAL_ARGS[name](3, np.random.default_rng(0))]
        got = _special(name, *args)
        want = getattr(scipy.special, name)(*args)
        assert type(got) is type(want) and np.ndim(got) == 0
        assert got == want

    def test_every_thread_sees_the_callers_error_states(self, three_cpus,
                                                        monkeypatch):
        seen = []

        def probe(x, out):
            time.sleep(0.05)  # long enough for every helper thread to join
            seen.append((threading.get_ident(), np.geterr()["divide"],
                         scipy.special.geterr()["domain"]))
            out[...] = x

        monkeypatch.setattr(scipy.special, "ndtr", probe)
        x = np.arange(4 * marginals.CHUNK, dtype=float)
        with np.errstate(divide="raise"), \
                scipy.special.errstate(domain="raise"):
            assert np.array_equal(_special("ndtr", x), x)
        assert len(seen) == 4
        assert len({thread for thread, *_ in seen}) > 1
        assert {(np_state, sf_state) for _, np_state, sf_state in seen} \
            == {("raise", "raise")}

    @pytest.mark.parametrize("n", SPLIT_SIZES)
    def test_domain_errors_match_on_both_paths(self, three_cpus, n):
        x = np.full(n, 0.5)
        x[-1] = 2.0  # outside betainc's domain: NaN from a finite input
        with scipy.special.errstate(domain="raise"):
            with pytest.raises(scipy.special.SpecialFunctionError):
                scipy.special.betainc(2.0, 3.0, x)
            with pytest.raises(scipy.special.SpecialFunctionError):
                _special("betainc", 2.0, 3.0, x)
        with pytest.raises(SpecialFunctionFailure, match="betainc"):
            _special("betainc", 2.0, 3.0, x)

    def test_nan_from_finite_shapes_is_an_error(self):
        with pytest.raises(SpecialFunctionFailure,
                           match=r"betaincinv\(1e\+308, 3, "):
            MarginalSpec.scaled_beta(1e308, 3.0, 0.0, 1.0).ppf(0.5)
        # NaN in, NaN out is not a failure
        assert np.isnan(MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0)
                        .ppf(np.nan))

    def test_one_cpu_starts_no_pool(self, monkeypatch, drainers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        threads = threading.enumerate()
        q = np.random.default_rng(2).random(2 * marginals.SPLIT_MIN)
        assert np.array_equal(_special("ndtri", q), scipy.special.ndtri(q))
        assert not drainers and threading.enumerate() == threads

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_gets_a_working_pool(self, usable_cpus, drainers):
        # a child forked after the pool has started builds a pool of its
        # own: its parent's threads do not exist in it
        usable_cpus(2)
        spec = MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0)
        q = np.random.default_rng(4).random(10 ** 6)
        want = hashlib.sha256(spec.ppf(q).tobytes()).hexdigest()
        assert any(worker_names(run) for run in drainers)
        ctx = multiprocessing.get_context("fork")
        results = ctx.SimpleQueue()
        child = ctx.Process(target=_hash_ppf, args=(spec, q, results))
        try:
            child.start()
            child.join(timeout=60)
            assert not child.is_alive(), "child hung"
            assert child.exitcode == 0
            assert results.get() == want
        finally:
            if child.is_alive():
                child.kill()
                child.join()


def _hash_ppf(spec, q, results):
    results.put(hashlib.sha256(spec.ppf(q).tobytes()).hexdigest())

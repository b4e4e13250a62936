import dataclasses

import numpy as np
import pytest

import demandlab as dl
from demandlab import populations as pops
from demandlab.errors import BoundaryMassZero, DemoFailure
from demandlab.marginals import MarginalSpec
from helpers import (HIGH_BOUND_U12, HIGH_MEAN_VM, LOW_BOUND_U12,
                     LOW_MEAN_VM, beta_independent, seed_ratio)


class TestFrozenOracles:
    """Closed-form values for the Uniform[1, 2] ratio demo populations."""

    def test_low_family_statistics(self):
        pop = pops.make_low_population(seed_ratio(), delta=0.5)
        report = dl.classify(pop)
        assert report.mean_vm == pytest.approx(LOW_MEAN_VM, abs=1e-12)
        assert report.boundary_mean_vm == pytest.approx(0.5, abs=1e-12)
        assert report.threshold == pytest.approx(2.0 * LOW_MEAN_VM)
        assert report.regime == "low"
        assert report.method == "analytic"
        assert report.residual == 0.0

    def test_high_family_statistics(self):
        pop = pops.make_high_population(seed_ratio(), delta=0.04)
        report = dl.classify(pop)
        assert report.mean_vm == pytest.approx(HIGH_MEAN_VM, abs=1e-12)
        assert report.boundary_mean_vm == pytest.approx(5.0, abs=1e-12)
        assert report.regime == "high"

    def test_bound_values(self):
        low = dl.check_delta_bounds(seed_ratio(), 0.5, "low")
        high = dl.check_delta_bounds(seed_ratio(), 0.04, "high")
        assert low.bound == pytest.approx(LOW_BOUND_U12, abs=1e-9)
        assert high.bound == pytest.approx(HIGH_BOUND_U12, abs=1e-9)
        assert low.ok and high.ok


class TestBoundaryConditionalMean:
    def test_tie_goes_to_low(self):
        # a point mass has boundary mean == mean, so vm <= 2 vm always
        report = dl.classify(pops.PointMassPopulation(2.0, 1.0))
        assert report.boundary_mean_vm == report.mean_vm == 1.0
        assert report.regime == "low"

    def test_regime_is_derived_and_ties_go_to_low(self):
        report = dl.InequalityReport(1.0, 2.0, "analytic", 0.0)
        assert (report.threshold, report.regime) == (2.0, "low")
        above = dl.InequalityReport(1.0, np.nextafter(2.0, 3.0), "analytic",
                                    0.0)
        assert above.regime == "high"
        assert [f.name for f in dataclasses.fields(report)] == [
            "mean_vm", "boundary_mean_vm", "method", "residual"]

    def test_the_hook_decides_the_closed_form(self, monkeypatch):
        # point masses and the conditional forms have a closed form; any
        # other form takes the ladder unless its hook returns a value
        forms = {"point_mass": pops.PointMassPopulation(2.0, 1.0),
                 "low": pops.make_low_population(seed_ratio(), 0.5),
                 "independent": beta_independent()}
        assert {name: dl.boundary_conditional_mean(pop).method
                for name, pop in forms.items()} == {
            "point_mass": "analytic", "low": "analytic",
            "independent": "limit_estimate"}
        assert forms["low"].boundary_mean_analytic() == 0.5
        monkeypatch.setattr(pops.IndependentPopulation,
                            "boundary_mean_analytic", lambda self: 0.75,
                            raising=False)
        assert dl.boundary_conditional_mean(forms["independent"]) == (
            dl.BoundaryMean(0.75, "analytic", 0.0))

    def test_limit_estimate_on_flat_conditional(self):
        # money value independent of the ratio: the band limit is E[vm]
        pop = pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0),
            MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))
        bm = dl.boundary_conditional_mean(pop)
        assert bm.method == "limit_estimate"
        assert bm.value == pytest.approx(1.0, abs=1e-9)

    def test_limit_estimate_on_varying_conditional(self):
        # r -> 0 forces vk -> 0; the weight F_K(b*vm) ~ (b*vm)^2 tilts
        # the band law toward large vm, with limit mu3/mu2 of the money
        # marginal: Beta(2,2) on [0.5, 1.5] gives 1.15 / 1.05
        pop = beta_independent()
        bm = dl.boundary_conditional_mean(pop)
        assert bm.method == "limit_estimate"
        assert bm.value == pytest.approx(1.15 / 1.05, abs=1e-5)
        assert abs(bm.value - 1.15 / 1.05) <= max(5 * bm.residual, 1e-6)

    @pytest.mark.parametrize("alpha", [0.5, 1.2])
    def test_limit_estimate_under_a_rough_money_marginal(self, alpha):
        # vm ~ Beta(alpha, 2) has an end-point term at 0.5 that the band
        # integrals resolve in the graded variable; the limit is still
        # mu3 / mu2 of the money marginal (see the test above)
        vm = MarginalSpec.scaled_beta(alpha, 2.0, lo=0.5, hi=1.5)
        pop = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0), vm)
        report = dl.classify(pop)
        want = vm.moment(3) / vm.moment(2)
        assert report.method == "limit_estimate"
        assert report.boundary_mean_vm == pytest.approx(want, abs=1e-5)
        assert abs(report.boundary_mean_vm - want) <= 5 * report.residual
        assert report.regime == "low"

    def test_band_ladder_cross_validates_the_analytic_limit(self):
        # rerun the generic band extrapolation on a population whose
        # limit is known in closed form; 1% agreement required
        pop = pops.make_high_population(seed_ratio(), delta=0.04)
        sup = pop.support
        b0 = (sup.r_hi - sup.r_lo) / 16.0
        means = []
        for b in b0 * 0.5 ** np.arange(7):
            mass, vm_int = pop._band_vm_moments(sup.r_lo, sup.r_lo + b)
            means.append(vm_int / mass)
        est = 2.0 * means[-1] - means[-2]
        assert est == pytest.approx(5.0, rel=0.01)

    def test_zero_boundary_mass_is_an_error(self):
        r = np.array([1.0, 1.5, 1.50001, 2.0])
        g = np.array([1e-16, 1e-16, 4.0, 4.0])
        g = g / np.trapezoid(g, r)
        dead = pops.RatioMarginalSpec.tabulated(r, g)
        pop = pops.ProductPopulation(dead, MarginalSpec.uniform(0.5, 1.5))
        with pytest.raises(BoundaryMassZero):
            dl.boundary_conditional_mean(pop)


class TestScaleCovariance:
    def test_regime_is_unit_free(self):
        ratio = pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=5.0)
        for c in (0.25, 4.0):
            base = pops.ProductPopulation(
                ratio, MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))
            scaled = pops.ProductPopulation(
                ratio, MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5 * c,
                                                hi=1.5 * c))
            a, b = dl.classify(base), dl.classify(scaled)
            assert b.regime == a.regime
            assert b.mean_vm == pytest.approx(c * a.mean_vm, rel=1e-9)
            assert b.boundary_mean_vm == pytest.approx(
                c * a.boundary_mean_vm, rel=1e-6)

    @pytest.mark.parametrize("vk, vm", [((2.5, 3.0), (2.5, 2.0)),
                                        ((3.3, 2.2), (0.8, 1.7))])
    def test_band_means_keep_their_bits_in_any_money_unit(self, vk, vm):
        # non-integer shapes take the adaptive rule, whose vm row is held
        # to a tolerance in vm's own unit; at 2**40 an absolute 1e-13
        # failed, and the ratio moved by up to 9.6e-9 at 2**-40
        def ratio(c):
            report = dl.classify(pops.IndependentPopulation(
                MarginalSpec.scaled_beta(*vk, 0.0, 1.0),
                MarginalSpec.scaled_beta(*vm, 0.5 * c, 1.5 * c)))
            return report.boundary_mean_vm / report.mean_vm

        base = ratio(1.0)
        assert ratio(2.0 ** -40) == base
        assert ratio(2.0 ** 40) == base
        assert ratio(1e30) == pytest.approx(base, rel=1e-10)


class TestDeltaBounds:
    def test_low_is_weak_high_is_strict(self):
        at_low = dl.check_delta_bounds(seed_ratio(), LOW_BOUND_U12, "low")
        assert at_low.ok
        at_high = dl.check_delta_bounds(seed_ratio(), HIGH_BOUND_U12,
                                        "high")
        assert not at_high.ok

    def test_zero_and_negative_offsets_fail(self):
        for fam in ("low", "high"):
            assert not dl.check_delta_bounds(seed_ratio(), 0.0, fam).ok
            assert not dl.check_delta_bounds(seed_ratio(), -0.1, fam).ok

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            dl.check_delta_bounds(seed_ratio(), 0.1, "middle")

    def test_sweep_brackets_transition_at_the_bound(self):
        # 100 offsets hitting each bound exactly at index 49
        for fam, bound in (("low", LOW_BOUND_U12), ("high", HIGH_BOUND_U12)):
            deltas = bound * (np.arange(1, 101) / 50.0)
            flags = [dl.check_delta_bounds(seed_ratio(), float(d), fam).ok
                     for d in deltas]
            if fam == "low":
                want = [d <= bound for d in deltas]
            else:
                want = [d < bound for d in deltas]
            assert flags == want


class TestNonIdDemo:
    def test_demo_succeeds_with_stock_offsets(self):
        demo = dl.build_nonid_demo(seed_ratio(), 0.5, 0.04, tol=1e-10)
        assert demo.curve_gap <= 1e-10
        assert demo.low_report.regime == "low"
        assert demo.high_report.regime == "high"
        assert demo.bound_low == pytest.approx(LOW_BOUND_U12)
        assert demo.bound_high == pytest.approx(HIGH_BOUND_U12)

    def test_offset_over_bound_fails_with_named_check(self):
        with pytest.raises(DemoFailure) as exc:
            dl.build_nonid_demo(seed_ratio(), 0.5, 0.1)
        assert exc.value.check == "delta_bound_high"

    def test_monte_carlo_noise_fails_a_zero_tolerance(self):
        with pytest.raises(DemoFailure) as exc:
            dl.build_nonid_demo(seed_ratio(), 0.5, 0.04, tol=0.0,
                                mc_draws=20_000)
        assert exc.value.check == "mc_curve_gap"

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_an_unusable_tolerance_is_refused(self, tol):
        # NaN compares false, so it would pass both gap checks
        with pytest.raises(ValueError, match="tol"):
            dl.build_nonid_demo(seed_ratio(), 0.5, 0.04, tol=tol,
                                mc_draws=20_000)

    def test_monte_carlo_needs_a_draw(self):
        # no draws would divide by zero in the empirical curve, and its
        # NaN gap would pass even a zero tolerance
        with pytest.raises(ValueError, match="mc_draws must be >= 1"):
            dl.build_nonid_demo(seed_ratio(), 0.5, 0.04, tol=0.0,
                                mc_draws=0)

    def test_monte_carlo_within_binomial_bands(self):
        demo = dl.build_nonid_demo(seed_ratio(), 0.5, 0.04,
                                   mc_draws=200_000, tol=0.02)
        assert demo.mc_gap is not None
        assert demo.mc_gap <= 0.02

    def test_csv_and_json_layout(self):
        demo = dl.build_nonid_demo(seed_ratio(), 0.5, 0.04)
        lines = demo.curves_csv().strip().split("\n")
        assert lines[0] == "p,D_low,D_high,gap"
        assert len(lines) == 1 + 257
        low, high = demo.shared_curve, demo.high_curve
        assert lines[1:] == [
            f"{p:.17g},{a:.17g},{b:.17g},{abs(a - b):.17g}"
            for p, a, b in zip(low.prices, low.values, high.values)]
        doc = demo.to_json_dict()
        assert doc["low"]["regime"] == "low"
        assert doc["high"]["regime"] == "high"
        assert doc["curve_gap"] == demo.curve_gap

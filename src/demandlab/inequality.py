"""Same-side inequality statistics and the twin-population demonstration.

The classification compares the mean money value of the marginal buyers
at the top of the price range (consumers whose ratio r sits at its
minimum r_lo, i.e. the last to buy as price falls) against twice the
population mean: "low" when the boundary mean is weakly below twice the
mean, "high" when strictly above.  Two populations built on the same
ratio marginal share a demand curve exactly, yet the conditional mean
curve can push the boundary statistic to either side, which is the
non-identification demonstration packaged by :func:`build_nonid_demo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import populations as pops
from .demand import (DemandCurve, csv_column, csv_text, default_price_grid,
                     demand_curve)
from .errors import BoundaryMassZero, DemoFailure
from .populations import (Population, PointMassPopulation,
                          RatioConditionalPopulation, RatioMarginalSpec)

LIMIT_BANDS = 7
GAP_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryMean:
    """Boundary conditional mean with the path that produced it.

    ``method`` is "analytic" when the value comes from a closed form and
    "limit_estimate" when extrapolated from shrinking ratio bands; the
    residual is the change from the previous extrapolation pair (zero on
    the analytic path).
    """

    value: float
    method: str
    residual: float


@dataclass(frozen=True)
class InequalityReport:
    mean_vm: float
    boundary_mean_vm: float
    threshold: float
    regime: str
    method: str
    residual: float

    def __post_init__(self):
        want = "low" if self.boundary_mean_vm <= self.threshold else "high"
        if self.regime != want:
            raise ValueError("regime label inconsistent with statistics")

    def to_json_dict(self) -> dict:
        return {"mean_vm": self.mean_vm,
                "boundary_mean_vm": self.boundary_mean_vm,
                "threshold": self.threshold,
                "regime": self.regime,
                "method": self.method,
                "extrapolation_residual": self.residual}


@dataclass(frozen=True)
class DeltaBoundCheck:
    family: str
    delta: float
    bound: float
    ok: bool


@dataclass(frozen=True, eq=False)
class NonIdDemo:
    """Two populations, one demand curve, opposite classifications."""

    low_pop: Population
    high_pop: Population
    shared_curve: DemandCurve
    high_curve: DemandCurve
    curve_gap: float
    low_report: InequalityReport
    high_report: InequalityReport
    delta_low: float
    delta_high: float
    bound_low: float
    bound_high: float
    tol: float
    mc_draws: int | None = None
    mc_gap: float | None = None

    def curves_csv(self) -> str:
        low = self.shared_curve.values
        high = self.high_curve.values
        return csv_text("p,D_low,D_high,gap",
                        csv_column(self.shared_curve.prices),
                        csv_column(low), csv_column(high),
                        csv_column(np.abs(low - high)))

    def to_json_dict(self) -> dict:
        out = {"delta_low": self.delta_low,
               "delta_high": self.delta_high,
               "bound_low": self.bound_low,
               "bound_high": self.bound_high,
               "curve_gap": self.curve_gap,
               "tol": self.tol,
               "n_prices": int(self.shared_curve.prices.size),
               "low": self.low_report.to_json_dict(),
               "high": self.high_report.to_json_dict()}
        if self.mc_draws is not None:
            out["mc_draws"] = self.mc_draws
            out["mc_gap"] = self.mc_gap
        return out


def mean_vm(pop: Population) -> float:
    """Population mean of the money value (closed form where available)."""
    return float(pop._mean_vm())


def boundary_conditional_mean(pop: Population) -> BoundaryMean:
    """Mean money value of the ratio-boundary consumers, E[vm | r = r_lo].

    Conditioning on a single ratio value means the band limit
    lim E[vm | r in [r_lo, r_lo + b]] as b drops to 0.  Populations built
    from an explicit conditional family evaluate the limit in closed form;
    anything else gets a geometric ladder of band means with a
    linear-in-b extrapolation from the two finest bands.
    """
    if isinstance(pop, RatioConditionalPopulation):
        return BoundaryMean(pop.boundary_mean_analytic(), "analytic", 0.0)
    if isinstance(pop, PointMassPopulation):
        return BoundaryMean(pop.vm, "analytic", 0.0)

    sup = pop.support
    b0 = (sup.r_hi - sup.r_lo) / 16.0
    widths = b0 * 0.5 ** np.arange(LIMIT_BANDS)
    means = []
    for b in widths:
        mass, vm_int = pop._band_vm_moments(sup.r_lo, sup.r_lo + b)
        if mass <= 1e-13:
            raise BoundaryMassZero(
                f"no ratio mass within {b:.3g} of the lower endpoint")
        means.append(vm_int / mass)
    # Band means behave like value + c*b near b = 0; eliminating c from
    # the two finest bands (width ratio 2) gives 2*m[-1] - m[-2].
    est = 2.0 * means[-1] - means[-2]
    prev = 2.0 * means[-2] - means[-3]
    return BoundaryMean(float(est), "limit_estimate", float(abs(est - prev)))


def classify(pop: Population) -> InequalityReport:
    """Low/high label from the boundary mean versus twice the mean."""
    mv = mean_vm(pop)
    bm = boundary_conditional_mean(pop)
    threshold = 2.0 * mv
    regime = "low" if bm.value <= threshold else "high"
    return InequalityReport(mv, bm.value, threshold, regime,
                            bm.method, bm.residual)


def check_delta_bounds(ratio: RatioMarginalSpec, delta: float,
                       family: str) -> DeltaBoundCheck:
    """Admissibility of a family offset against its analytic bound.

    The low family tolerates delta up to the bound inclusive; the high
    family requires strict inequality.
    """
    if family not in ("low", "high"):
        raise ValueError(f"unknown family {family!r}")
    bound, ok = pops._delta_admissible(ratio, delta, family)
    return DeltaBoundCheck(family, float(delta), float(bound), ok)


def _empirical_demand(draws: np.ndarray, prices: np.ndarray) -> np.ndarray:
    r = np.sort(draws[:, 0] / draws[:, 1])
    idx = np.searchsorted(r, prices, side="left")
    return (r.size - idx) / r.size


def build_nonid_demo(ratio: RatioMarginalSpec, delta_low: float,
                     delta_high: float, price_grid=None, tol: float = GAP_TOL,
                     mc_draws: int | None = None,
                     seed: int = 0) -> NonIdDemo:
    """Assemble the identical-demand, opposite-classification demo.

    Builds the low and high families over the same ratio marginal,
    asserts that their demand curves agree within ``tol`` on the grid
    and that the classifications disagree; any failed assertion raises
    :class:`DemoFailure` naming the check.  ``mc_draws`` additionally
    compares seeded empirical demand curves under the same tolerance,
    so a zero tolerance fails once Monte Carlo noise enters.
    """
    if not 0.0 <= tol < np.inf:  # NaN would pass both gap checks
        raise ValueError(f"tol must be finite and >= 0, got {tol:g}")
    if mc_draws is not None and mc_draws < 1:  # no draws: a 0/0 gap
        raise ValueError(f"mc_draws must be >= 1, got {mc_draws}")
    checks = {"low": check_delta_bounds(ratio, delta_low, "low"),
              "high": check_delta_bounds(ratio, delta_high, "high")}
    for fam, chk in checks.items():
        if not chk.ok:
            raise DemoFailure(
                f"{fam}-family offset {chk.delta:g} violates its bound "
                f"{chk.bound:g}", check=f"delta_bound_{fam}",
                value=chk.delta)

    low_pop = pops.make_low_population(ratio, delta_low)
    high_pop = pops.make_high_population(ratio, delta_high)

    if price_grid is None:
        price_grid = default_price_grid(low_pop)
    low_curve = demand_curve(low_pop, price_grid)
    high_curve = demand_curve(high_pop, price_grid)
    gap = float(np.max(np.abs(low_curve.values - high_curve.values)))
    if gap > tol:
        raise DemoFailure(f"demand curves differ by {gap:.3g} > {tol:.3g}",
                          check="curve_gap", value=gap)

    low_report = classify(low_pop)
    high_report = classify(high_pop)
    if low_report.regime != "low" or high_report.regime != "high":
        raise DemoFailure(
            f"expected regimes (low, high), got ({low_report.regime}, "
            f"{high_report.regime})", check="regimes",
            value=high_report.boundary_mean_vm)

    mc_gap = None
    if mc_draws is not None:
        d_low = _empirical_demand(pops.sample(low_pop, mc_draws, seed),
                                  low_curve.prices)
        d_high = _empirical_demand(pops.sample(high_pop, mc_draws, seed + 1),
                                   high_curve.prices)
        mc_gap = float(np.max(np.abs(d_low - d_high)))
        if mc_gap > tol:
            raise DemoFailure(
                f"empirical demand curves differ by {mc_gap:.3g} > "
                f"{tol:.3g}", check="mc_curve_gap", value=mc_gap)

    return NonIdDemo(low_pop, high_pop, low_curve, high_curve, gap,
                     low_report, high_report, delta_low, delta_high,
                     checks["low"].bound, checks["high"].bound, tol,
                     mc_draws, mc_gap)

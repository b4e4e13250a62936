"""Demand curves and quality-augmented demand surfaces.

A consumer with values (vk, vm) facing price p and quality level xq
buys iff vk + xq - vm * p >= 0 (ties buy).  At xq = 0 this is the ratio
rule r >= p, so plain demand is one minus the ratio CDF; the quality
channel tilts the rule and traces out the law of vk - p * vm instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MonotonicityViolation
from .populations import Population

MONOTONE_TOL = 1e-12


def csv_column(values) -> list:
    """Each value as round-trip text (``.17g``), formatted from Python
    floats: a NumPy scalar per element would cost several times more."""
    return list(map("{:.17g}".format,
                    np.asarray(values, dtype=float).ravel().tolist()))


def csv_text(header: str, *columns) -> str:
    """``header``, then one comma-joined line per row of the equally long
    ``csv_column`` lists."""
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def purchase_decision(vk, vm, xq, p):
    """1 if the consumer buys at price p and quality xq, else 0."""
    vk = np.asarray(vk, dtype=float)
    vm = np.asarray(vm, dtype=float)
    if np.any(vm <= 0.0):
        raise ValueError("money value must be positive")
    out = (vk + np.asarray(xq, dtype=float)
           - vm * np.asarray(p, dtype=float) >= 0.0).astype(int)
    return out if out.ndim else int(out)


@dataclass(frozen=True, eq=False)
class DemandCurve:
    """Tabulated demand: sorted positive prices and values in [0, 1]."""

    prices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=float)
        d = np.asarray(self.values, dtype=float)
        if p.ndim != 1 or p.shape != d.shape or p.size < 2:
            raise ValueError("need matching 1-d price/value arrays")
        if not (np.all(np.diff(p) > 0.0) and 0.0 < p[0] and p[-1] < np.inf):
            raise ValueError("prices must be finite, positive, strictly "
                             "increasing")
        if not np.all((d >= -MONOTONE_TOL) & (d <= 1.0 + MONOTONE_TOL)):
            raise ValueError("demand values must lie in [0, 1]")
        rise = np.max(np.diff(d), initial=0.0)
        if rise > MONOTONE_TOL:
            raise MonotonicityViolation(
                f"demand increases by {rise:.3g} along the price grid")
        object.__setattr__(self, "prices", p)
        object.__setattr__(self, "values", np.clip(d, 0.0, 1.0))

    def to_csv(self) -> str:
        return csv_text("p,D", csv_column(self.prices),
                        csv_column(self.values))


@dataclass(frozen=True, eq=False)
class RatioCdfTable:
    """Ratio CDF read off a demand curve: G(r) = 1 - D(r)."""

    r: np.ndarray
    G: np.ndarray

    def to_csv(self) -> str:
        return csv_text("r,G", csv_column(self.r), csv_column(self.G))


@dataclass(frozen=True, eq=False)
class QualityDemandSurface:
    """Matrix of quality-augmented demand over (quality, price) grids.

    ``values[i, j]`` is the buying mass at quality ``quality_grid[i]``
    and price ``price_grid[j]``.  ``tail_mass`` records how much of the
    worst column's probability escapes the quality span (top entry away
    from 1 plus bottom entry away from 0); a finite grid can never cover
    all of the real line, so the truncation loss is surfaced here rather
    than hidden.  ``quadrature_errors[j]`` estimates the absolute
    quadrature error of column j (its worst row's estimate; zeros when
    not given).
    """

    quality_grid: np.ndarray
    price_grid: np.ndarray
    values: np.ndarray
    quadrature_errors: np.ndarray | None = None
    tail_mass: float = field(init=False)

    def __post_init__(self):
        xq = np.asarray(self.quality_grid, dtype=float)
        p = np.asarray(self.price_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if xq.ndim != 1 or p.ndim != 1 or v.shape != (xq.size, p.size):
            raise ValueError("surface values must be (n_quality, n_price)")
        for name, grid in (("quality", xq), ("price", p)):
            if grid.size == 0:
                raise ValueError(f"the {name} grid is empty")
        errors = (np.zeros(p.size) if self.quadrature_errors is None
                  else np.asarray(self.quadrature_errors, dtype=float))
        if errors.shape != p.shape:
            raise ValueError("need one quadrature error per price")
        if np.any(np.diff(xq) <= 0.0) or np.any(np.diff(p) <= 0.0):
            raise ValueError("grids must be strictly increasing")
        if not np.all(p >= 0.0):
            raise ValueError("prices must be >= 0")
        if not np.isfinite(v).all():
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise MonotonicityViolation(
                f"surface value {v[i, j]} at quality {float(xq[i])!r}, "
                f"price {float(p[j])!r} is not finite")
        if v.shape[0] > 1:
            drop = np.max(v[:-1] - v[1:], initial=0.0)
            if drop > 1e-9:
                raise MonotonicityViolation(
                    f"surface decreases by {drop:.3g} along quality")
        if v.shape[1] > 1:
            rise = np.max(np.diff(v, axis=1), initial=0.0)
            if rise > 1e-9:
                raise MonotonicityViolation(
                    f"surface increases by {rise:.3g} along price")
        v = np.clip(v, 0.0, 1.0)
        tail = float(np.max(v[0, :] + (1.0 - v[-1, :])))
        object.__setattr__(self, "quality_grid", xq)
        object.__setattr__(self, "price_grid", p)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "quadrature_errors", errors)
        object.__setattr__(self, "tail_mass", tail)

    def column(self, p: float) -> np.ndarray:
        hits = np.nonzero(np.isclose(self.price_grid, p,
                                     rtol=1e-12, atol=0.0))[0]
        if hits.size != 1:
            raise ValueError(f"price {p!r} is not a unique surface column")
        return self.values[:, hits[0]]

    def to_csv(self) -> str:
        # long form, price fastest; each grid value is formatted once
        xq = csv_column(self.quality_grid)
        p = csv_column(self.price_grid)
        return csv_text("xQ,p,DQ", [x for x in xq for _ in p], p * len(xq),
                        csv_column(self.values))


def default_price_grid(pop: Population, n: int = 257) -> np.ndarray:
    """Chebyshev-spaced price grid padded slightly past the ratio support.

    The padding puts grid points on both choke regions (demand exactly 1
    and exactly 0); when the support starts at 0 the lower end is floored
    at a tiny positive price since demand is defined for p > 0 only.
    """
    if n < 2:
        raise ValueError(f"a price grid needs n >= 2 points, got {n}")
    sup = pop.support
    lo = sup.r_lo * (1.0 - 1e-3)
    hi = sup.r_hi * (1.0 + 1e-3)
    if lo <= 0.0:
        lo = hi * 1e-9
    k = np.arange(n)
    x = -np.cos(np.pi * k / (n - 1))
    return lo + 0.5 * (hi - lo) * (x + 1.0)


def demand_at(pop: Population, p) -> float:
    """Buying mass at price p: P(vk / vm >= p) = 1 - G(p) + atom at p."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all(p_arr > 0.0):
        raise ValueError("price must be positive")
    out = pop._demand_profile(np.atleast_1d(p_arr).astype(float))
    return out.reshape(p_arr.shape) if p_arr.ndim else float(out[0])


def demand_curve(pop: Population, price_grid=None) -> DemandCurve:
    """Demand tabulated on the grid (default: padded Chebyshev grid)."""
    if price_grid is None:
        price_grid = default_price_grid(pop)
    price_grid = np.asarray(price_grid, dtype=float)
    if not np.all(price_grid > 0.0):
        raise ValueError("price must be positive")
    return DemandCurve(price_grid, pop._demand_profile(price_grid))


def invert_demand(curve: DemandCurve) -> RatioCdfTable:
    """Ratio CDF implied by a demand curve, G(r) = 1 - D(r).

    ``DemandCurve`` already rejects rising demand, so G is monotone.
    """
    return RatioCdfTable(curve.prices.copy(), 1.0 - curve.values)


def quality_demand(pop: Population, xq: float, p: float) -> float:
    """Buying mass at quality xq and price p: P(vk + xq - vm p >= 0)."""
    if not 0.0 <= p < np.inf:
        raise ValueError("price must be finite and >= 0")
    if xq != xq:
        raise ValueError("quality offset must not be NaN")
    values, _ = pop._quality_profile(float(p), np.array([float(xq)]))
    out = float(values[0])
    return min(max(out, 0.0), 1.0)


def quality_demand_mc(pop: Population, xq: float, p: float,
                      n: int = 10 ** 6, seed: int = 0):
    """Monte Carlo estimate of quality_demand with its standard error."""
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    from .populations import sample
    draws = sample(pop, n, seed)
    buy = draws[:, 0] + xq - draws[:, 1] * p >= 0.0
    est = float(np.mean(buy))
    se = float(np.sqrt(max(est * (1.0 - est), 1e-12) / n))
    return est, se


def quality_demand_surface(pop: Population, quality_grid,
                           price_grid) -> QualityDemandSurface:
    """Quality-augmented demand on the grid product, with each column's
    quadrature error estimate.  Every row goes to one kernel call (one per
    component of a mixture); a row where nobody or everybody buys takes
    no quadrature (see ``Population._quality_surface``)."""
    xq = np.asarray(quality_grid, dtype=float)
    prices = np.asarray(price_grid, dtype=float)
    if not np.all((prices >= 0.0) & (prices < np.inf)):  # NaN too
        raise ValueError("price must be finite and >= 0")
    if np.isnan(xq).any():
        raise ValueError("quality offset must not be NaN")
    values, errors = pop._quality_surface(prices, xq)
    return QualityDemandSurface(xq, prices, values, errors)

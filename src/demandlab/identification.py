"""Recovery of cross-moments from a quality-augmented demand surface.

At a fixed price p, varying the quality level sweeps out the law of the
slice variable W_p = vk - p * vm: the surface column gives
F(w) = 1 - D_Q(-w, p).  Moments of finitely many slices then pin down
the cross-moments of (vk, vm) through the binomial identity

    E[W_p**n] = sum_k C(n, k) (-p)**k E[vk**(n-k) vm**k],

a Vandermonde-structured linear system across prices, solved per total
order with a recorded condition estimate.  Bounded support keeps the
moment problem determinate, so the recovered table characterizes the
joint law.

Each stage after the surface runs over all price columns at once:
``surface_slices`` reads every slice in one set of array passes, and
``slice_moment_rows`` takes each moment order in one pass over the
slices that share a grid.  ``slice_from_surface`` and ``slice_moments``
are their one-column case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import populations as pops
from .demand import QualityDemandSurface, quality_demand_surface
from .errors import (IllConditioned, InsufficientPrices, NonFiniteMoment,
                     TailMassExceeded)
from .populations import MomentTable, Population

CONDITION_LIMIT = 1e10
TAIL_BOUND = 1e-6


def _require_window(lo: float, hi: float) -> None:
    if not 0.0 < lo < hi < np.inf:
        raise ValueError(f"price window needs 0 < lo < hi < inf, got "
                         f"({lo:g}, {hi:g})")


def _require_tail_bound(tail_bound: float) -> None:
    # no tail mass exceeds NaN, so it would turn the tail gate off
    if not tail_bound > 0.0:
        raise ValueError(f"tail bound must be positive, got {tail_bound:g}")


def chebyshev_prices(lo: float, hi: float, n: int) -> np.ndarray:
    """First-kind Chebyshev nodes on [lo, hi], ascending.

    Clustered toward the interval ends, which keeps the per-order price
    systems well conditioned compared with equispaced nodes.
    """
    _require_window(lo, hi)
    if n < 1:
        raise ValueError("need at least one node")
    k = np.arange(n)
    x = np.cos(np.pi * (2.0 * k + 1.0) / (2.0 * n))
    return np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * x)


def pava(y) -> np.ndarray:
    """Pool-adjacent-violators projection onto non-decreasing sequences."""
    y = np.asarray(y, dtype=float)
    # only a strict drop y[i] > y[i + 1] starts pooling (a NaN compares
    # false, so it never does): the values up to the first drop go onto
    # the stack unpooled, and past the last drop nothing pools once the
    # top of the stack is not above the next value
    drops = np.flatnonzero(y[:-1] > y[1:])
    if not drops.size:
        return y.copy()
    first, last = int(drops[0]), int(drops[-1])
    vals: list[float] = y[:first + 1].tolist()
    counts: list[int] = [1] * len(vals)
    for i in range(first + 1, y.size):
        v = float(y[i])
        if i > last and not vals[-1] > v:
            return np.concatenate((np.repeat(vals, counts), y[i:]))
        vals.append(v)
        counts.append(1)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            total = vals[-1] * counts[-1] + vals[-2] * counts[-2]
            cnt = counts[-1] + counts[-2]
            vals.pop()
            counts.pop()
            vals[-1] = total / cnt
            counts[-1] = cnt
    return np.repeat(vals, counts)


@dataclass(frozen=True, eq=False)
class SliceDistribution:
    """Tabulated CDF of W_p = vk - p * vm read off one surface column."""

    p: float
    w_grid: np.ndarray
    cdf: np.ndarray
    tail_mass: float
    repair: float


@dataclass(frozen=True)
class IdentificationConfig:
    """Price window, orders, and quality-grid policy for recovery.

    ``quality_span`` of None derives a symmetric span wide enough to
    capture every slice's support from the population bounds; an explicit
    (lo, hi) pair overrides it.
    """

    price_lo: float
    price_hi: float
    n_prices: int = 9
    max_order: int = 4
    n_quality: int = 4096
    quality_span: tuple | None = None
    tail_bound: float = TAIL_BOUND

    def __post_init__(self):
        _require_window(self.price_lo, self.price_hi)
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.n_prices < self.max_order + 1:
            raise InsufficientPrices(
                f"{self.n_prices} prices cannot pin down order "
                f"{self.max_order}; need at least {self.max_order + 1}")
        if self.n_quality < 16:
            raise ValueError("quality grid too small")
        _require_tail_bound(self.tail_bound)
        if self.quality_span is not None:
            lo, hi = self.quality_span
            if not lo < hi:
                raise ValueError("quality span needs lo < hi")
            object.__setattr__(self, "quality_span",
                               (float(lo), float(hi)))


def default_quality_grid(pop: Population, prices, n: int) -> np.ndarray:
    """Uniform quality grid covering every slice's support symmetrically.

    W_p lives in [-p * vm_hi, vk_upper]; a symmetric span of the larger
    envelope keeps both tails of every column pinned at 0 and 1.
    """
    p_max = float(np.max(prices))
    half = max(pop.vk_upper, p_max * pop.support.vm_hi) * (1.0 + 1e-3)
    return np.linspace(-half, half, n)


def surface_slices(surface: QualityDemandSurface,
                   tail_bound: float = TAIL_BOUND) -> list:
    """Slice CDFs of every surface column, in price order, read in one
    set of array passes over the surface; they share one ``w_grid``.

    Only a column with a strict drop goes to ``pava``.  TailMassExceeded
    names the first price whose slice misses more than ``tail_bound``,
    which must be positive.
    """
    _require_tail_bound(tail_bound)
    w = -surface.quality_grid[::-1]
    # row j is 1 - column j reversed, one C-contiguous slice
    raw = np.subtract(1.0, surface.values.T[:, ::-1], order="C")
    cdf = np.clip(raw, 0.0, 1.0)
    for j in np.flatnonzero((raw[:, :-1] > raw[:, 1:]).any(axis=1)):
        cdf[j] = np.clip(pava(raw[j]), 0.0, 1.0)
    # |cdf - raw| in raw's buffer: a third matrix would cost page faults
    np.subtract(cdf, raw, out=raw)
    repair = np.max(np.abs(raw, out=raw), axis=1)
    tail = cdf[:, 0] + (1.0 - cdf[:, -1])
    over = np.flatnonzero(tail > tail_bound)
    if over.size:
        j = over[0]
        raise TailMassExceeded(
            f"slice at p={surface.price_grid[j]:g} misses {tail[j]:.3g} of "
            f"mass beyond the quality span (bound {tail_bound:g})")
    return [SliceDistribution(float(p), w, row, float(t), float(r))
            for p, row, t, r in zip(surface.price_grid, cdf, tail, repair)]


def slice_from_surface(surface: QualityDemandSurface, p: float,
                       tail_bound: float = TAIL_BOUND) -> SliceDistribution:
    """Slice CDF at price p: F(w) = 1 - D_Q(-w, p) on w = -xQ reversed.

    Quadrature wiggle is projected away isotonic-ly (magnitude recorded);
    if the span misses more than ``tail_bound`` of probability at either
    end, the slice is unusable and TailMassExceeded is raised.  This is
    ``surface_slices`` of the one-column surface at p.
    """
    column = QualityDemandSurface(surface.quality_grid, [p],
                                  surface.column(p)[:, None])
    return surface_slices(column, tail_bound)[0]


def _integrate_uniform(y: np.ndarray, h: float):
    """Composite Newton-Cotes on a uniform grid (Boole + 3/8 remainder),
    along the last axis."""
    k = y.shape[-1] - 1
    tail = (4 - k % 4) * 3 % 12
    if k < tail or k < 4:
        return np.trapezoid(y, dx=h, axis=-1)
    out = 0.0
    body = y[..., :k - tail + 1]
    if body.shape[-1] > 1:
        out += (2.0 * h / 45.0) * (7.0 * (body[..., 0] + body[..., -1])
                                   + 14.0 * body[..., 4:-1:4].sum(axis=-1)
                                   + 32.0 * body[..., 1::4].sum(axis=-1)
                                   + 32.0 * body[..., 3::4].sum(axis=-1)
                                   + 12.0 * body[..., 2::4].sum(axis=-1))
    for start in range(k - tail, k, 3):
        seg = y[..., start:start + 4]
        out += (3.0 * h / 8.0) * (seg[..., 0] + 3.0 * seg[..., 1]
                                  + 3.0 * seg[..., 2] + seg[..., 3])
    return out


def _grid_moments(w: np.ndarray, cdfs: np.ndarray, n: int) -> np.ndarray:
    """Unchecked E[W**m], m = 1..n, of the slices in the rows of ``cdfs``,
    all tabulated on the grid ``w``: one pass per order over the stack."""
    steps = np.diff(w)
    h = steps[0]
    uniform = np.max(np.abs(steps - h)) <= 1e-9 * abs(h)
    out = np.empty((cdfs.shape[0], n))
    a, b = w[0], w[-1]
    df = None if uniform else np.diff(cdfs, axis=1)
    buf = np.empty_like(cdfs if uniform else df)  # one matrix, reused
    for m in range(1, n + 1):
        if uniform:
            y = np.multiply(w ** (m - 1), cdfs, out=buf)
            out[:, m - 1] = b ** m - m * _integrate_uniform(y, h)
        else:
            wp = w ** (m + 1)
            cell = (wp[1:] - wp[:-1]) / ((m + 1) * steps)
            out[:, m - 1] = (a ** m * cdfs[:, 0]
                             + np.sum(np.multiply(df, cell, out=buf), axis=1)
                             + b ** m * (1.0 - cdfs[:, -1]))
    return out


@np.errstate(over="ignore", invalid="ignore")
def slice_moment_rows(slices, n: int) -> np.ndarray:
    """Raw moments E[W_p**m], m = 1..n, one row per slice.

    Slices on one grid take each order in one pass over the stack of
    their cdfs, so each power of the grid is computed once; each row is ``slice_moments`` of its
    slice, bit for bit, and NonFiniteMoment names the first slice, and
    in it the first order, that ``slice_moments`` would refuse.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    slices = list(slices)
    rows = np.empty((len(slices), n))
    under = np.empty(rows.shape, dtype=bool)
    reach = np.empty(len(slices))  # of |W| on each slice's grid
    grids, groups = [], []  # each distinct grid, and its slices
    for i, s in enumerate(slices):
        for w, idx in zip(grids, groups):
            if s.w_grid is w or (s.w_grid.dtype == w.dtype
                                 and s.w_grid.shape == w.shape
                                 and s.w_grid.tobytes() == w.tobytes()):
                idx.append(i)
                break
        else:
            grids.append(s.w_grid)
            groups.append([i])
    for w, idx in zip(grids, groups):
        rows[idx] = _grid_moments(w, np.array([slices[i].cdf for i in idx]),
                                  n)
        reach[idx] = r = max(abs(w[0]), abs(w[-1]))
        under[idx] = [r ** m < np.finfo(float).tiny for m in range(1, n + 1)]
    bad = np.argwhere(~np.isfinite(rows) | under)
    if bad.size:
        i, j = bad[0]
        where = f"slice moment E[W**{j + 1}] at price {float(slices[i].p)!r}"
        if not np.isfinite(rows[i, j]):
            raise NonFiniteMoment(f"{where} is not finite")
        raise NonFiniteMoment(f"{where} underflows: |W| reaches only "
                              f"{reach[i]:.3g}")
    return rows


def slice_moments(sdist: SliceDistribution, n: int) -> np.ndarray:
    """Raw moments E[W_p**m] for m = 1..n from the tabulated CDF.

    Integration by parts turns the Stieltjes integral into
    b**m - m * int w**(m-1) F(w) dw once the span captures the support
    (mass escaping the ends is assigned to the end points, a tail-bound
    size effect).  Uniform grids get a high-order Newton-Cotes rule;
    irregular grids fall back to the exact integral of the
    piecewise-linear interpolant.  A moment that is not finite raises
    NonFiniteMoment, and so does one whose every term lies below the
    smallest normal float, since it keeps no reliable digit.  This is
    the one-slice case of ``slice_moment_rows``.
    """
    return slice_moment_rows([sdist], n)[0]


@np.errstate(over="ignore")  # an overflowing price power makes cond inf
def recover_from_slice_moments(prices, moment_rows,
                               max_order: int) -> MomentTable:
    """Solve the per-order price systems for the cross-moment table.

    ``moment_rows[i, m-1]`` holds E[W_{p_i}**m].  Each total order n
    gives an (n_prices x (n+1)) system solved by least squares; its
    condition number is stored as the diagnostic of every order-n entry
    and guarded against ``CONDITION_LIMIT``.  The systems are set in
    the money unit s = 2^e nearest the geometric mid-range of the
    prices, e = round((log2 p_min + log2 p_max) / 2): column k holds
    (-p/s)**k and its solution is s**k E[vk**(n-k) vm**k], which is
    rescaled exactly.  So the condition reflects the spread of the
    prices, not their unit.  An entry that is not finite after the
    rescaling raises NonFiniteMoment.
    """
    prices = np.asarray(prices, dtype=float)
    rows = np.asarray(moment_rows, dtype=float)
    if rows.shape != (prices.size, max_order):
        raise ValueError("moment rows must be (n_prices, max_order)")
    distinct = pops.sorted_distinct(prices).size
    if distinct < max_order + 1:
        raise InsufficientPrices(
            f"only {distinct} distinct prices for order {max_order}; "
            f"need at least {max_order + 1}")
    positive = prices[(prices > 0.0) & np.isfinite(prices)]
    e = (pops.unit_exponent(positive.min(), positive.max()) if positive.size
         else 0)
    scaled = np.ldexp(prices, -e)  # exact
    entries = {(0, 0): 1.0}
    errors = {(0, 0): 0.0}
    for n in range(1, max_order + 1):
        design = np.empty((prices.size, n + 1))
        for k in range(n + 1):
            design[:, k] = math.comb(n, k) * (-scaled) ** k
        cond = float(np.linalg.cond(design))
        if cond > CONDITION_LIMIT:
            raise IllConditioned(
                f"order-{n} price system has condition {cond:.3g}; "
                "widen the price window", order=n, condition=cond)
        sol, *_ = np.linalg.lstsq(design, rows[:, n - 1], rcond=None)
        for k in range(n + 1):
            value = float(np.ldexp(sol[k], -e * k))
            if not math.isfinite(value):
                raise NonFiniteMoment(f"recovered moment E[vk**{n - k} "
                                      f"vm**{k}] is not finite")
            entries[(n - k, k)] = value
            errors[(n - k, k)] = cond
    return MomentTable(max_order, entries, errors)


def recover_cross_moments(slices, max_order: int) -> MomentTable:
    """Cross-moment table from ready-made slice distributions: their
    ``slice_moment_rows``, then the price systems."""
    slices = list(slices)
    if not slices:
        raise InsufficientPrices("no slices supplied")
    prices = np.array([s.p for s in slices])
    return recover_from_slice_moments(
        prices, slice_moment_rows(slices, max_order), max_order)


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """End-to-end recovery outcome with per-entry diagnostics.

    ``surface`` is the quality-demand surface the slices were read from;
    it stays out of the JSON report.  ``quadrature_error`` is the largest
    of its per-column quadrature error estimates.
    """

    recovered: MomentTable
    reference: MomentTable
    entry_rel_errors: dict
    max_rel_error: float
    recovered_mean_vm: float
    tail_mass: float
    repair: float
    quadrature_error: float
    prices: tuple
    config: IdentificationConfig
    surface: QualityDemandSurface = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "recovered_mean_vm": self.recovered_mean_vm,
            "tail_mass": self.tail_mass,
            "isotonic_repair": self.repair,
            "quadrature_error": self.quadrature_error,
            "prices": list(self.prices),
            "entry_rel_errors": {f"{j},{k}": v for (j, k), v in
                                 sorted(self.entry_rel_errors.items())},
            "recovered": self.recovered.to_json_dict(),
            "reference": self.reference.to_json_dict(),
            "config": asdict(self.config),
        }


def build_surface(pop: Population,
                  config: IdentificationConfig) -> QualityDemandSurface:
    """Quality-demand surface over the configured grids."""
    prices = chebyshev_prices(config.price_lo, config.price_hi,
                              config.n_prices)
    if config.quality_span is None:
        xq = default_quality_grid(pop, prices, config.n_quality)
    else:
        xq = np.linspace(config.quality_span[0], config.quality_span[1],
                         config.n_quality)
    return quality_demand_surface(pop, xq, prices)


def verify_recovery(pop: Population,
                    config: IdentificationConfig) -> RecoveryReport:
    """Surface -> slices -> moment table, compared against the truth.

    Relative errors use the analytic table as the denominator (floored
    at 1e-12 for entries near zero); the recovered money-value mean is
    surfaced separately since downstream classification narratives
    consume exactly that number.
    """
    surface = build_surface(pop, config)
    slices = surface_slices(surface, config.tail_bound)
    recovered = recover_cross_moments(slices, config.max_order)
    reference = pops.moments(pop, config.max_order)
    rel = {}
    worst = 0.0
    for key in recovered.keys():
        if key == (0, 0):
            continue
        denom = max(abs(reference[key]), 1e-12)
        rel[key] = abs(recovered[key] - reference[key]) / denom
        worst = max(worst, rel[key])
    return RecoveryReport(
        recovered, reference, rel, float(worst),
        recovered_mean_vm=recovered[(0, 1)],
        tail_mass=float(max(s.tail_mass for s in slices)),
        repair=float(max(s.repair for s in slices)),
        quadrature_error=float(np.max(surface.quadrature_errors)),
        prices=tuple(float(p) for p in surface.price_grid),
        config=config, surface=surface)

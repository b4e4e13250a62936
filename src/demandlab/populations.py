"""Joint distributions of good value and money value.

A population describes a pair (vk, vm): the consumer's value for one
unit of the good and the consumer's value for one unit of money, with
vm > 0.  The ratio r = vk / vm is the reservation price.  Five forms are
supported:

* ``PointMassPopulation`` -- a single consumer type.
* ``ProductPopulation`` -- the ratio r and vm independent, with given
  marginals.  The good value is vk = r * vm.
* ``IndependentPopulation`` -- vk and vm independent with given
  marginals.
* ``RatioConditionalPopulation`` -- an explicit ratio marginal g(r)
  together with a conditional law for vm given r: m(r) + eps(r) U, m =
  h / g, for U a ``MarginalSpec.truncated_normal`` on [-1, 1].  The
  symmetric truncation keeps the conditional mean exactly equal to
  m(r), which is what makes the low/high constructions work.
* ``MixturePopulation`` -- a finite convex combination of the above.

The product and ratio-conditional forms are location-scale: given r,
vm = alpha(r) + beta(r) U for a law U free of r (alpha = 0, beta = 1,
U = vm for a product; alpha = m, beta = eps), on which they share one
support, ratio law, density and sampler.  Moments and quality kernels
stay per form (README "Numerical conventions" says why).

A ratio law, ``RatioMarginalSpec``, is a one-dimensional law of
``marginals`` (its continuous part) plus atoms.  ``moments`` tabulates
a population's cross moments as a ``MomentTable``.

Instances are immutable and safe to share across threads; derived
quantities are cached on first use.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import (BoundViolation, DegenerateRatio, NoDensity,
                     NonFiniteMoment, QuadratureFailure)
from .marginals import CHUNK, MarginalSpec, PwLinearTable

TABLE_GRID_DEFAULT = 2048
# Prices per quadrature call in IndependentPopulation._demand_profile.
# Price grids have no size cap, so the block bounds memory: on 2 CPUs
# (Python 3.11, NumPy 2.4, SciPy 1.17) one call for every price took a
# 20k-price curve from 84 to 64 ms, but raised peak RSS from 61 to 103 MB
# at 200k prices and from 79 to 291 MB at 1e6.
PRICE_BLOCK = 2048
# Absolute error tolerance of every surface entry, demand value and ratio
# table entry integrated by quadrature.segmented_gl.  Surface entries lie
# in [0, 1], so this sits below QualityDemandSurface's 1e-9 monotonicity
# check.
SURFACE_TOL = 1e-10
# Largest segmented_gl grade (see _grade).  Terms with s below about 2/3,
# other than s = 1/2, are left to the bisection and its QuadratureFailure:
# within one ulp of the end they hold about ulp^s of mass, which no node
# can resolve.
MAX_GRADE = 4
# RatioConditionalPopulation's quality kernel: relative margin by which a
# row's crossing function must clear zero at an end of the ratio range to
# count as saturated there, and by which a cell between knots widens its
# range of W = (m +/- eps)(r - p) before it drops a row from its root solve.
SATURATION_MARGIN = 1e-9


@dataclass(frozen=True)
class Support:
    """Bounding box of a population: ratio range and money-value cap."""

    r_lo: float
    r_hi: float
    vm_hi: float

    def __post_init__(self):
        if not (0.0 <= self.r_lo < self.r_hi < np.inf):
            raise ValueError("need 0 <= r_lo < r_hi < inf")
        if not (0.0 < self.vm_hi < np.inf):
            raise ValueError("need 0 < vm_hi < inf")


@dataclass(frozen=True, eq=False)
class RatioMarginalSpec:
    """Marginal law of the reservation-price ratio r = vk / vm.

    ``law`` is the continuous part, a uniform or tabulated (triangular
    included) :class:`MarginalSpec` that carries the mass the atoms
    leave, or None.  ``atoms`` carries (position, mass) pairs and is
    nonempty only for degenerate specs (one atom, no law) and for the
    ratio laws reported for mixtures that contain point masses; such
    specs describe outputs and cannot seed new populations.
    """

    law: MarginalSpec | None
    support: Support
    atoms: tuple = ()

    def __post_init__(self):
        if self.law is None and not self.atoms:
            raise ValueError("ratio marginal needs a law or atoms")
        if any(m <= 0.0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")
        if sum(m for _, m in self.atoms) > 1.0 + 1e-12:
            raise ValueError("atom mass exceeds 1")

    @classmethod
    def uniform(cls, r_lo: float, r_hi: float, vm_hi: float = 1.0):
        return cls(support=Support(r_lo, r_hi, vm_hi),  # Support checks first
                   law=MarginalSpec.uniform(r_lo, r_hi))

    @classmethod
    def triangular(cls, r_lo: float, r_hi: float, vm_hi: float = 1.0):
        return cls(support=Support(r_lo, r_hi, vm_hi),
                   law=MarginalSpec.triangular(r_lo, r_hi))

    @classmethod
    def tabulated(cls, r, g, vm_hi: float = 1.0, *, atoms=()):
        cont = 1.0 - sum(m for _, m in atoms)
        table = PwLinearTable.density(r, g, total=cont)
        lo, hi = float(table.x[0]), float(table.x[-1])
        return cls(MarginalSpec("tabulated", lo, hi, table=table),
                   Support(lo, hi, vm_hi), tuple(atoms))

    @classmethod
    def degenerate(cls, r0: float, vm_hi: float = 1.0):
        r0 = float(r0)
        pad = max(abs(r0), 1.0) * 1e-9
        return cls(None, Support(max(r0 - pad, 0.0), r0 + pad, vm_hi),
                   ((r0, 1.0),))

    @property
    def has_density(self) -> bool:
        return self.law is not None and not self.atoms

    @property
    def r_lo(self) -> float:
        return self.support.r_lo

    @property
    def r_hi(self) -> float:
        return self.support.r_hi

    def pdf(self, r):
        out = np.zeros(np.shape(r)) if self.law is None else self.law.pdf(r)
        return out if np.ndim(out) else float(out)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        out = 0.0 if self.law is None else self.law.cdf(r)
        for pos, mass in self.atoms:  # a NaN ratio stays NaN
            out = out + mass * MarginalSpec.point_mass(pos).cdf(r)
        return out if np.ndim(out) else float(out)

    def ppf(self, q, out=None):
        if not self.has_density:
            raise DegenerateRatio(
                "quantile function needs a purely continuous ratio marginal")
        return self.law.ppf(q, out)

    def moment(self, j: int) -> float:
        if j == 0:
            return 1.0
        cont = 0.0 if self.law is None else self.law.moment(j)
        return cont + sum(m * pos ** j for pos, m in self.atoms)

    @property
    def g_lo(self) -> float:
        """Density value at the lower ratio endpoint."""
        return float(self.pdf(self.r_lo))


@dataclass(frozen=True, eq=False)
class ConditionalSpec:
    """Conditional law of vm given the ratio, via its target mean curve.

    ``family`` selects the mean-times-density curve h(r):

    * ``low``  -- h(r) = (r - r_lo) + delta, which pushes the boundary
      conditional mean *below* twice the population mean;
    * ``high`` -- h(r) = 1 / sqrt(r - r_lo + delta), which pushes it
      *above*;
    * ``custom`` -- h tabulated on the ratio support.

    The conditional itself is a normal with pre-truncation mean
    m(r) = h(r) / g(r), standard deviation ``sigma_multiplier * eps(r)``
    and symmetric truncation at m(r) +/- eps(r), eps = a m + b: vm is
    m + eps U for U = ``MarginalSpec.truncated_normal(sigma_multiplier)``.
    ``epsilon_kind`` chooses (a, b): (1/2, 0) for ``half_mean`` and
    (0, ``epsilon_value``) for ``fixed``, a value inside (0, min m).
    """

    family: str
    delta: float | None = None
    h_table: PwLinearTable | None = field(default=None, repr=False)
    epsilon_kind: str = "half_mean"
    epsilon_value: float | None = None
    sigma_multiplier: float = 0.5

    def __post_init__(self):
        if self.family not in ("low", "high", "custom"):
            raise ValueError(f"unknown conditional family {self.family!r}")
        if self.family in ("low", "high"):
            if self.delta is None or not self.delta > 0:
                raise ValueError(f"{self.family} family needs delta > 0")
        elif self.h_table is None:
            raise ValueError("custom family needs an h table")
        if self.epsilon_kind not in ("half_mean", "fixed"):
            raise ValueError(f"unknown epsilon rule {self.epsilon_kind!r}")
        if self.epsilon_kind == "fixed" and (self.epsilon_value is None
                                             or not self.epsilon_value > 0):
            raise ValueError("fixed epsilon rule needs a positive value")
        if not 0.0 < self.sigma_multiplier < np.inf:
            raise ValueError("sigma multiplier must be positive and finite")

    def h(self, r, r_lo: float):
        r = np.asarray(r, dtype=float)
        if self.family == "low":
            out = (r - r_lo) + self.delta
        elif self.family == "high":
            out = 1.0 / np.sqrt(np.maximum(r - r_lo + self.delta, 1e-300))
        else:
            out = self.h_table.value_at(r)
        return out if out.ndim else float(out)

    def h_integral(self, r_lo: float, a: float, b: float) -> float:
        """Exact integral of h over [a, b]."""
        if self.family == "low":
            prim = lambda r: 0.5 * (r - r_lo) ** 2 + self.delta * (r - r_lo)
            return prim(b) - prim(a)
        if self.family == "high":
            prim = lambda r: 2.0 * math.sqrt(r - r_lo + self.delta)
            return prim(b) - prim(a)
        return self.h_table.integral_between(a, b)


class Population:
    """Common interface of all population forms (see module docstring)."""

    # Subclasses implement: support, vk_upper, _density, _sample,
    # _ratio_marginal, _moments, _band_vm_moments, _quality_profile.
    # The location-scale forms (``_LocationScalePopulation``) supply
    # _law, _noise and _vm_band in place of the first five.
    # _moments(pairs) takes a list of (j, k) pairs and returns two arrays
    # in their order: E[vk**j vm**k] and each entry's diagnostic (0 for
    # closed forms, the quadrature tolerance for integrated entries).
    # _quality_profile(p, xq) takes prices p broadcastable against the
    # quality offsets xq, so one call can hold the rows of many prices,
    # and returns each row's buying mass and the estimate of its absolute
    # quadrature error (0 for closed forms, or their round-off floor
    # where their terms cancel).  A row integrates only its
    # live range, where its inner cdf lies strictly inside (0, 1); the
    # mass where everybody buys outside it is a difference of the outer
    # law's cdf, and adds nothing to the estimate.

    @property
    def support(self) -> Support:
        raise NotImplementedError

    @property
    def vk_upper(self) -> float:
        raise NotImplementedError

    def _mean_vm(self) -> float:
        """E[vm]; forms with an exact closed form override this."""
        return float(self._moments([(0, 1)])[0][0])

    def _quality_surface(self, prices: np.ndarray, xq: np.ndarray):
        """Buying mass at every (quality offset, price) pair of the grids,
        as an (xq.size, prices.size) matrix, and each price column's
        worst quadrature estimate, from one ``_quality_profile`` call
        over every (price, offset) row.  A row where nobody or everybody
        buys has an empty live range, so the kernel returns exactly 0 or
        1 for it from the outer law's cdf, with estimate 0 and no
        integrand call.
        """
        try:
            values, errors = self._quality_profile(
                np.repeat(prices, xq.size), np.tile(xq, prices.size))
        except QuadratureFailure as exc:
            if exc.row is None:
                raise
            col, row = divmod(exc.row, xq.size)
            raise QuadratureFailure(
                f"quality surface at price {float(prices[col])!r}, quality "
                f"offset {float(xq[row])!r}: {exc}",
                achieved=exc.achieved, requested=exc.requested) from exc
        shape = (prices.size, xq.size)
        return (values.reshape(shape).T,
                np.max(errors.reshape(shape), axis=1, initial=0.0))

    def _demand_profile(self, prices: np.ndarray) -> np.ndarray:
        """Buying mass at each price, the complement of the ratio law.

        Forms whose ratio marginal is only available as a tabulation
        override this with an exact route; the default reads the
        marginal directly, crediting any atom sitting on a price.
        """
        spec = self._ratio_marginal()
        out = 1.0 - np.asarray(spec.cdf(prices), dtype=float)
        for pos, mass in spec.atoms:
            out = out + mass * (prices == pos)
        return np.clip(out, 0.0, 1.0)

    def __repr__(self):  # keep large tables out of reprs
        return f"<{type(self).__name__} on {self.support}>"


@dataclass(frozen=True, eq=False)
class PointMassPopulation(Population):
    """Every consumer has the same (vk, vm)."""

    vk: float
    vm: float

    def __post_init__(self):
        if not (self.vk >= 0.0 and np.isfinite(self.vk)):
            raise ValueError("good value must be finite and >= 0")
        if not (self.vm > 0.0 and np.isfinite(self.vm)):
            raise ValueError("money value must be finite and > 0")
        try:
            self.support  # the ratio's atom needs a finite bounding box
        except ValueError:
            raise DegenerateRatio(f"ratio {self.vk:g} / {self.vm:g} "
                                  f"overflows") from None

    @cached_property
    def support(self) -> Support:
        spec = self._ratio_marginal()
        return Support(spec.support.r_lo, spec.support.r_hi, self.vm)

    @property
    def vk_upper(self) -> float:
        return self.vk

    def _density(self, vk, vm):
        raise NoDensity("point-mass population has no density")

    def _sample(self, n, rng):
        out = np.empty((2, n))
        out[0], out[1] = self.vk, self.vm
        return out.T

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return RatioMarginalSpec.degenerate(self.vk / self.vm, self.vm)

    def _moments(self, pairs):
        return (np.array([self.vk ** j * self.vm ** k for j, k in pairs]),
                np.zeros(len(pairs)))

    def _band_vm_moments(self, ra, rb):
        inside = ra <= self.vk / self.vm <= rb
        return (1.0 if inside else 0.0), (self.vm if inside else 0.0)

    def _quality_profile(self, p, xq):
        surplus = (self.vk + np.asarray(xq, dtype=float)  # tie buys; NaN stays
                   - self.vm * np.asarray(p, dtype=float))
        return np.heaviside(surplus, 1.0), np.zeros(np.shape(surplus))


def unit_exponent(lo: float, hi: float) -> int:
    """The exponent e of the money unit 2^e nearest the geometric
    mid-range of [lo, hi], 0 < lo <= hi: e = round((log2 lo + log2 hi)
    / 2).  Rescaling lo and hi by a power of two shifts e by its
    exponent."""
    return round(float(np.log2(lo) + np.log2(hi)) / 2.0)


def sorted_distinct(*arrays) -> np.ndarray:
    """The distinct values of the arrays, ascending, with one NaN for
    any number of them: what ``np.union1d``, or ``np.unique`` of one
    array, returns, bit for bit.  Those two check for masked arrays, so
    their first call in a process imports ``numpy.ma`` (about 11 ms),
    which no command needs unless scipy loads it."""
    x = np.sort(np.concatenate([np.ravel(a) for a in arrays]))
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = (x[1:] != x[:-1]) & ~np.isnan(x[:-1])
    return x[keep]


def _polymul(x, y):
    """Products of the polynomials on each line of ``x`` and ``y``, with
    coefficients lowest power first."""
    out = np.zeros((x.shape[0], x.shape[1] + y.shape[1] - 1))
    for i in range(x.shape[1]):
        out[:, i:i + y.shape[1]] += x[:, i:i + 1] * y
    return out


def _grade(*shapes) -> int:
    """segmented_gl grade for an integrand whose end-point terms are
    |u - end|^(s - 1) for the given s: the least m, at most MAX_GRADE,
    that makes every graded term t^(m s - 1) a power series or at least
    C^1 (m s an integer or m s >= 2).  An infinite s (no such term) asks
    for nothing; a larger m than needed only crowds the nodes against
    the ends, where the rounding of u shows."""
    for m in range(1, MAX_GRADE + 1):
        if all(m * s >= 2.0 or float(m * s).is_integer() for s in shapes):
            return m
    return MAX_GRADE


def _money_window(p, xq, vm_lo: float, vm_hi: float):
    """Where a row that buys iff vm (r - p) + xq >= 0 can change state,
    every vm in [vm_lo, vm_hi]: nobody buys below the lesser of
    p - xq / vm_lo and p - xq / vm_hi (infinite at vm_lo = 0) and
    everybody above the greater; at xq = 0 both are p."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = p - xq / vm_hi, p - xq / vm_lo
    return np.fmin(*ends), np.fmax(*ends)


@contextmanager
def _renumbered(rows):
    """Make the row of a QuadratureFailure raised inside the caller's:
    a kernel that passes its rows ``rows`` to segmented_gl, in that
    order, reports segmented_gl's row r as ``rows[r]``."""
    try:
        yield
    except QuadratureFailure as exc:
        if exc.row is not None:
            exc.row = int(rows[exc.row])
        raise


def _require_seed_ratio(ratio: RatioMarginalSpec):
    if ratio.atoms:
        raise DegenerateRatio("ratio specs carrying atoms describe outputs "
                              "and cannot seed a population")


class _LocationScalePopulation(Population):
    """A location-scale form (see module docstring): a seed ``ratio``,
    ``_law(r)``, the ratio density g, alpha and beta > 0 at r, ``_noise``,
    the law of U, and ``_vm_band``, bounds (lo, hi) on every money value.
    """

    @cached_property
    def support(self) -> Support:
        return Support(self.ratio.r_lo, self.ratio.r_hi, self._vm_band[1])

    @property
    def vk_upper(self) -> float:
        return self.ratio.r_hi * self.support.vm_hi

    def _density(self, vk, vm):
        vk = np.asarray(vk, dtype=float)
        vm = np.asarray(vm, dtype=float)
        pos = vm > 0.0
        vms = np.where(pos, vm, 1.0)
        r = vk / vms
        inside = pos & (r >= self.ratio.r_lo) & (r <= self.ratio.r_hi)
        rs = np.where(inside, r, 0.5 * (self.ratio.r_lo + self.ratio.r_hi))
        g, alpha, beta = self._law(rs)
        q = self._noise.pdf((vm - alpha) / beta) / beta
        out = np.where(inside, g * q / vms, 0.0)
        return out if out.ndim else float(out)

    def _sample(self, n, rng):
        # r, then U, each drawn and mapped in place; then, block by
        # block on the calling thread, vm = alpha + beta U and vk = r vm.
        # The draw holds its result and one block's temporaries per CPU
        out = np.empty((2, n))
        self.ratio.ppf(rng.random(out=out[0]), out=out[0])
        self._noise.sample(n, rng, out=out[1])
        for start in range(0, n, CHUNK):
            r, vm = out[:, start:start + CHUNK]
            alpha, beta = self._law(r)[1:]
            vm *= beta
            vm += alpha
            r *= vm
        return out.T

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return self.ratio


@dataclass(frozen=True, eq=False)
class ProductPopulation(_LocationScalePopulation):
    """Ratio and money value independent: vk = r * vm with r ~ ratio."""

    ratio: RatioMarginalSpec
    vm: MarginalSpec

    def __post_init__(self):
        _require_seed_ratio(self.ratio)
        if self.vm.is_degenerate and self.vm.value <= 0.0:
            raise DegenerateRatio("money value has an atom at a "
                                  "non-positive point")
        if self.vm.lo < 0.0:
            raise ValueError("money value support must be >= 0")

    def _law(self, r):
        return self.ratio.pdf(r), 0.0, 1.0

    @property
    def _noise(self) -> MarginalSpec:
        return self.vm

    @property
    def _vm_band(self) -> tuple:
        return self.vm.lo, self.vm.hi

    def _moments(self, pairs):
        return (np.array([self.ratio.moment(j) * self.vm.moment(j + k)
                          for j, k in pairs]), np.zeros(len(pairs)))

    def _band_vm_moments(self, ra, rb):
        mass = float(self.ratio.cdf(rb) - self.ratio.cdf(ra))
        return mass, mass * self.vm.mean

    def _quality_profile(self, p, xq):
        # P(vm (r - p) + xq >= 0): vm's cdf at t = -xq / (r - p) lies in
        # (0, 1) only on the live range [lo, hi]: the money-value window
        # of vm's support.  Everybody buys above it
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi
        window = _money_window(p, xq, self.vm.lo, self.vm.hi)
        lo, hi = (np.clip(end, r_lo, r_hi) for end in window)
        cdf_hi = np.asarray(self.ratio.cdf(hi))
        out = np.where(hi == r_hi, 0.0, 1.0 - cdf_hi)
        errors = np.zeros(xq.shape)
        slow = np.flatnonzero(~(lo >= hi))  # NaN rows too
        if self._vm_poly is not None:
            # the closed form over vm, unless a row's round-off floor
            # exceeds the tolerance; NaN rows keep the adaptive route
            fast = slow[lo[slow] < hi[slow]]
            live, floor = self._closed_live(
                p[fast], xq[fast], lo[fast], hi[fast], cdf_hi[fast],
                *(end[fast] for end in window))
            keep = floor <= SURFACE_TOL
            fast = fast[keep]
            out[fast] += live[keep]
            errors[fast] = floor[keep]
            closed = np.zeros(xq.shape, dtype=bool)
            closed[fast] = True
            slow = slow[~closed[slow]]
        if slow.size:
            with _renumbered(slow):
                live, errors[slow] = self._adaptive_live(
                    p[slow], xq[slow], lo[slow], hi[slow])
            out[slow] += live
        return out, errors

    def _adaptive_live(self, p, xq, lo, hi):
        """Each row's buying mass on its live range, integrated over the
        ratio r by segmented_gl, split at the ratio law's knots."""
        knots = self.ratio.law.knots[1:-1]

        def integrand(nodes, rows):
            x = xq[rows][:, None]
            with np.errstate(divide="ignore"):  # a node rounded onto p
                t = -x / (nodes - p[rows][:, None])
            f_at_t = np.asarray(self.vm.cdf(t))
            return self.ratio.pdf(nodes) * np.where(x > 0.0, f_at_t,
                                                    1.0 - f_at_t)

        # vm's cdf contributes |u - end|^alpha at the live range's ends
        return quadrature.segmented_gl(
            lo, hi, np.broadcast_to(knots, (xq.size, knots.size)), integrand,
            tol=SURFACE_TOL, grade=_grade(self.vm.end_shape + 1.0))

    @cached_property
    def _vm_poly(self):
        """vm's density f on its support as a polynomial in u, lowest power
        first, where ``degree`` is not None: K / w ((u - lo) / w)^(a-1)
        ((hi - u) / w)^(b-1), w = hi - lo, K the constant of the standard
        density (a = b = 1 for a uniform law).  None for every other law,
        or where a coefficient overflows."""
        vm = self.vm
        if vm.degree is None:
            return None
        a, b = ((1, 1) if vm.kind == "uniform"
                else (int(vm.alpha), int(vm.beta)))
        width = np.float64(vm.hi - vm.lo)
        coef = np.array([(a + b - 1) * math.comb(a + b - 2, a - 1) / width])
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(a - 1):
                coef = np.convolve(coef, [-vm.lo / width, 1.0 / width])
            for _ in range(b - 1):
                coef = np.convolve(coef, [vm.hi / width, -1.0 / width])
        return coef if np.all(np.isfinite(coef)) else None

    def _closed_live(self, p, xq, lo, hi, cdf_hi, w_lo, w_hi):
        """Each row's buying mass on its live range [lo, hi] and its
        round-off floor, in closed form over the money value u, for rows
        with xq != 0 and lo < hi; ``cdf_hi`` is G(hi) and [w_lo, w_hi] the
        row's money-value window.

        By Fubini the mass is the integral over u of f(u) (G(hi) -
        G(max(s, lo))) where s = p - xq / u <= hi, f is vm's density and
        G the ratio law's cdf.  Where s < lo, which needs lo = r_lo and
        G(lo) = 0, that is G(hi) times a difference of vm's cdf F.  The
        rest splits at the images u = xq / (p - kappa) of the knots kappa
        of G inside (lo, hi), taken per row by searchsorted; an end of
        [lo, hi] that is a window end maps to vm's own end.  On a piece
        [a, b] whose ratios start at s0 in a cell of slope c, with
        e = p - s0 and y = xq / u, G(hi) - G(s) = A + B y + C y^2 with
        A = G(hi) - G(s0) - g(s0) e - c e^2 / 2, B = g(s0) + c e and
        C = -c / 2.  With f = sum_k c_k u^k (``_vm_poly``) the piece is
        A (F(b) - F(a)) plus B and C times
          int f y   = xq (c_0 ln(b / a) + sum_{k>=1} c_k D_k / k),
          int f y^2 = xq^2 (c_0 (1 / a - 1 / b) + c_1 ln(b / a)
                            + sum_{k>=2} c_k D_{k-1} / (k - 1)),
        D_k = b^k - a^k = b D_{k-1} + (b - a) a^(k-1), a sum of positive
        terms.  ln(b / a) is log1p((b - a) / a) and xq^2 (1 / a - 1 / b)
        is xq (xq / a) (b - a) / b, which keep their relative accuracy on
        a short piece and never square xq alone.

        The floor is ``ROUNDOFF`` times the summed size of every term,
        the cancelling ones included: G(hi), |A|'s parts times F(a) + F(b),
        and |B xq| (|c_0| ln(b / a) + sum |c_k| D_k / k) and its y^2
        analogue.  The c_k grow like (lo / w)^n, n vm's degree, so a
        support far from 0 raises the floor; a row whose floor exceeds
        ``SURFACE_TOL`` takes the adaptive route instead.  Every term is a
        product or quotient of a row's own quantities, so a row's value
        depends on its own p and xq, and a power-of-two money unit scales
        every term exactly.
        """
        vm, law = self.vm, self.ratio.law
        coef = self._vm_poly
        up = xq > 0.0  # s rises with u
        with np.errstate(divide="ignore", invalid="ignore"):
            u_lo = np.where(lo == w_lo, np.where(up, vm.lo, vm.hi),
                            xq / (p - lo))
            u_hi = np.where(hi == w_hi, np.where(up, vm.hi, vm.lo),
                            xq / (p - hi))
        # the pieces: each row's cells of G between lo and hi, in order;
        # a law of one cell gives one piece per row
        knots = law.knots
        slopes = np.diff(law.pdf(knots)) / np.diff(knots)
        if knots.size == 2:
            row = start = slice(None)
            x, q, s0, u0, u1, c = xq, p, lo, u_lo, u_hi, slopes[0]
        else:
            first = np.searchsorted(knots, lo, "right") - 1
            count = np.searchsorted(knots, hi, "left") - first
            start = np.cumsum(count) - count
            row = np.repeat(np.arange(xq.size), count)
            cell = np.arange(row.size) - np.repeat(start - first, count)
            x, q = xq[row], p[row]
            with np.errstate(divide="ignore", invalid="ignore"):
                u0 = np.where(cell == first[row], u_lo[row],
                              x / (q - knots[cell]))
                u1 = np.where(cell == first[row] + count[row] - 1,
                              u_hi[row], x / (q - knots[cell + 1]))
            s0, c = np.maximum(knots[cell], lo[row]), slopes[cell]
        # a rounded image stays on vm's support, and an underflowed one
        # above 0
        floor = max(vm.lo, np.finfo(float).smallest_subnormal)
        a, b = (np.clip(end, floor, vm.hi)
                for end in (np.minimum(u0, u1), np.maximum(u0, u1)))
        ends = np.asarray(vm.cdf(np.concatenate((a, b))))
        F_a, F_b = ends[:a.size], ends[a.size:]
        width = b - a
        with np.errstate(over="ignore"):  # b / a overflows past 1e308
            ln = np.log1p(width / a)
        huge = np.isinf(ln)
        if huge.any():
            ln[huge] = np.log(b[huge]) - np.log(a[huge])
        # int f / u = c_0 ln + sum_k c_k D_k / k (one) and int f / u^2 =
        # c_0 (1 / a - 1 / b) + sum_k c_k int u^(k-2) (two), with the sums
        # of their terms' sizes; int u^(k-2) is ln at k = 1, then D_{k-1}
        # / (k - 1)
        curved = np.any(slopes)
        one, one_size = coef[0] * ln, abs(coef[0]) * ln
        two = two_size = 0.0
        below_k, power, step = ln, width, a  # and D_1, a^1
        for k in range(1, coef.size):
            one += coef[k] / k * power
            one_size += abs(coef[k]) / k * power
            if curved:
                two = two + coef[k] * below_k
                two_size = two_size + abs(coef[k]) * below_k
                below_k = power / k
            power = b * power + width * step
            step = step * a
        g_hi, g_s0, g0 = cdf_hi[row], np.asarray(law.cdf(s0)), law.pdf(s0)
        e = q - s0
        A = g_hi - g_s0 - g0 * e
        size = (g_hi + g_s0 + np.abs(g0 * e)) * (F_a + F_b)
        if curved:
            A -= 0.5 * c * e * e
            size += 0.5 * np.abs(c) * e * e * (F_a + F_b)
            g0 = g0 + c * e  # B
        piece = A * (F_b - F_a) + g0 * x * one
        size += np.abs(g0 * x) * one_size
        if curved:
            x2 = x * (x / a) * width / b  # xq^2 (1 / a - 1 / b)
            piece -= 0.5 * c * (coef[0] * x2 + x * x * two)
            size += 0.5 * np.abs(c) * (abs(coef[0] * x2) + x * x * two_size)
        # where s < lo, everybody buys: u below u_lo if s rises, else above
        # (no mass unless lo = r_lo)
        below = cdf_hi * np.where(up, F_a[start], 1.0 - F_b[start])
        if knots.size > 2:
            piece = np.bincount(row, piece, xq.size)
            size = np.bincount(row, size, xq.size)
        live = below + piece
        size = cdf_hi + size
        return live, quadrature.ROUNDOFF * size

@dataclass(frozen=True, eq=False)
class IndependentPopulation(Population):
    """Good value and money value independent with given marginals."""

    vk: MarginalSpec
    vm: MarginalSpec

    def __post_init__(self):
        if self.vk.lo < 0.0 or self.vk.hi <= 0.0:
            raise ValueError("good-value support must be >= 0 with some "
                             "positive mass")
        if self.vm.lo <= 0.0:
            raise DegenerateRatio("money-value support must be bounded away "
                                  "from zero for a bounded ratio")
        if self.vk.is_degenerate and self.vm.is_degenerate:
            raise DegenerateRatio("both marginals are point masses; use the "
                                  "point_mass population form for a single "
                                  "consumer type")

    @cached_property
    def support(self) -> Support:
        return Support(self.vk.lo / self.vm.hi, self.vk.hi / self.vm.lo,
                       self.vm.hi)

    @property
    def vk_upper(self) -> float:
        return self.vk.hi

    def _density(self, vk, vm):
        if self.vk.is_degenerate or self.vm.is_degenerate:
            raise NoDensity("degenerate marginal component")
        vk = np.asarray(vk, dtype=float)
        vm = np.asarray(vm, dtype=float)
        out = self.vk.pdf(vk) * self.vm.pdf(vm)
        return out if np.ndim(out) else float(out)

    def _sample(self, n, rng):
        out = np.empty((2, n))
        self.vk.sample(n, rng, out=out[0])
        self.vm.sample(n, rng, out=out[1])
        return out.T

    def _degree(self, extra: int) -> int | None:
        """Polynomial degree between its breaks of a kernel made of one
        density or cdf of each marginal and further factors: the two
        density degrees plus ``extra``, which counts one for a cdf and
        one for a factor u.  None, for the adaptive rule, unless both
        densities are polynomials."""
        if self.vk.degree is None or self.vm.degree is None:
            return None
        return self.vk.degree + self.vm.degree + extra

    @cached_property
    def _ratio_table_spec(self) -> RatioMarginalSpec:
        """Tabulated ratio marginal g(r) = int u f_vk(r u) f_vm(u) du."""
        r = np.linspace(self.support.r_lo, self.support.r_hi,
                        TABLE_GRID_DEFAULT)
        if self.vm.is_degenerate:
            u0 = self.vm.value
            g = u0 * np.asarray(self.vk.pdf(r * u0))
            g = g / np.trapezoid(g, r)
            return RatioMarginalSpec.tabulated(r, g, self.vm.hi)
        if self.vk.is_degenerate:
            v0 = self.vk.value
            g = v0 / r ** 2 * np.asarray(self.vm.pdf(v0 / r))
            g = g / np.trapezoid(g, r)
            return RatioMarginalSpec.tabulated(r, g, self.vm.hi)
        rr = r[:, None]
        with np.errstate(divide="ignore"):
            breaks = np.concatenate(
                (np.where(rr > 0, self.vk.lo / np.where(rr > 0, rr, 1.0),
                          np.inf),
                 np.where(rr > 0, self.vk.hi / np.where(rr > 0, rr, 1.0),
                          np.inf)), axis=1)

        def integrand(nodes, rows):
            return (nodes * self.vm.pdf(nodes)
                    * self.vk.pdf(r[rows][:, None] * nodes))

        g, _ = quadrature.segmented_gl(
            self.vm.lo, self.vm.hi, breaks, integrand, tol=SURFACE_TOL,
            grade=_grade(self.vm.end_shape, self.vk.end_shape),
            degree=self._degree(1))
        g = np.clip(g, 0.0, None)
        g /= np.trapezoid(g, r)
        return RatioMarginalSpec.tabulated(r, g, self.vm.hi)

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return self._ratio_table_spec

    def _moments(self, pairs):
        return (np.array([self.vk.moment(j) * self.vm.moment(k)
                          for j, k in pairs]), np.zeros(len(pairs)))

    def _band_vm_moments(self, ra, rb):
        if self.vm.is_degenerate:
            u0 = self.vm.value
            mass = float(self.vk.cdf(rb * u0) - self.vk.cdf(ra * u0))
            return mass, mass * u0
        cuts = [edge / r_end for edge in (self.vk.lo, self.vk.hi)
                for r_end in (ra, rb) if r_end > 0]

        def integrand(nodes, rows):
            # row 0 integrates the band's mass, row 1 its vm integral
            inner = (np.asarray(self.vk.cdf(rb * nodes))
                     - np.asarray(self.vk.cdf(ra * nodes)))
            return nodes ** rows[:, None] * self.vm.pdf(nodes) * inner

        # the vm row is held to 1e-13 in vm's unit, so rescaling money by
        # a power of two moves no bit
        unit = math.ldexp(1.0, unit_exponent(self.vm.lo, self.vm.hi))
        (mass, vm_int), _ = quadrature.segmented_gl(
            self.vm.lo, self.vm.hi, np.array([cuts, cuts]),
            integrand, tol=np.array([1e-13, 1e-13 * unit]),
            grade=_grade(self.vm.end_shape, self.vk.end_shape + 1.0),
            degree=self._degree(2))
        return float(mass), float(vm_int)

    def _quality_profile(self, p, xq):
        # P(vk + xq >= p vm): closed forms at a free price and for a
        # point-mass vm, else quadrature over vm, one row per entry
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        out = np.empty(xq.shape)
        errors = np.zeros(xq.shape)
        # the priced rows are every row unless some price is free: then an
        # index gathers and scatters them
        free = np.flatnonzero(p == 0.0)
        priced = slice(None)
        if free.size:
            priced = np.flatnonzero(p != 0.0)
            if self.vk.is_degenerate:  # a tie buys
                out[free] = np.heaviside(self.vk.value + xq[free], 1.0)
            else:
                out[free] = 1.0 - np.asarray(self.vk.cdf(-xq[free]),
                                             dtype=float)
        p, xq = p[priced], xq[priced]
        if self.vm.is_degenerate:
            out[priced] = 1.0 - np.asarray(
                self.vk.cdf(p * self.vm.value - xq), dtype=float)
        else:
            # vk's cdf at p u - xq lies inside (0, 1) only for u in
            # ((vk.lo + xq) / p, (vk.hi + xq) / p), empty for a point-mass
            # vk: everybody buys below that live range and nobody above it
            lo = np.clip((self.vk.lo + xq) / p, self.vm.lo, self.vm.hi)
            hi = np.clip((self.vk.hi + xq) / p, self.vm.lo, self.vm.hi)

            def integrand(nodes, rows):
                sk = 1.0 - np.asarray(self.vk.cdf(p[rows][:, None] * nodes
                                                  - xq[rows][:, None]))
                return self.vm.pdf(nodes) * sk

            with _renumbered(np.arange(out.size)[priced]):
                live, errors[priced] = quadrature.segmented_gl(
                    lo, hi, np.empty((xq.size, 0)), integrand,
                    tol=SURFACE_TOL,
                    grade=_grade(self.vm.end_shape,
                                 self.vk.end_shape + 1.0),
                    degree=self._degree(1))
            out[priced] = np.asarray(self.vm.cdf(lo), dtype=float) + live
        return out, errors

    def _demand_profile(self, prices):
        # exact route (the tabulated ratio marginal is an export layer):
        # the quality kernel's rows at offset 0, PRICE_BLOCK prices per
        # call; rows are independent, so each keeps its one-price bits
        prices = np.asarray(prices, dtype=float)
        flat = prices.ravel()
        vals = np.empty(flat.size)
        for start in range(0, flat.size, PRICE_BLOCK):
            block = flat[start:start + PRICE_BLOCK]
            vals[start:start + PRICE_BLOCK] = self._quality_profile(
                block, np.zeros(block.size))[0]
        return np.clip(vals.reshape(prices.shape), 0.0, 1.0)

@dataclass(frozen=True, eq=False)
class RatioConditionalPopulation(_LocationScalePopulation):
    """Explicit ratio marginal with a truncated-normal conditional for vm.

    The conditional mean of vm given r equals h(r) / g(r) exactly, by
    symmetry of the truncation.  See :class:`ConditionalSpec`.
    """

    ratio: RatioMarginalSpec
    cond: ConditionalSpec

    def __post_init__(self):
        _require_seed_ratio(self.ratio)
        # a zero density divides by zero in m = h / g; the check reports it
        with np.errstate(divide="ignore", invalid="ignore"):
            _, g, _, m, _ = self._cells
        if g.min() <= 0.0:
            raise ValueError("ratio density must be positive on the whole "
                             "support for the conditional construction")
        if self.cond.family == "custom":
            tbl = self.cond.h_table
            if tbl.x[0] > self.ratio.r_lo or tbl.x[-1] < self.ratio.r_hi:
                raise ValueError("custom h table must cover the ratio "
                                 "support")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("conditional mean curve must be positive and "
                             "finite")
        if self.cond.epsilon_kind == "fixed":
            if self.cond.epsilon_value >= m.min():
                raise ValueError(
                    f"fixed epsilon {self.cond.epsilon_value!r} must stay "
                    f"below the minimum conditional mean {float(m.min())!r}")

    @cached_property
    def _half_width(self) -> tuple:
        """(a, b) of the half-width eps = a m + b; the band edges
        m +/- eps are (1 +/- a) m +/- b."""
        return ((0.5, 0.0) if self.cond.epsilon_kind == "half_mean"
                else (0.0, self.cond.epsilon_value))

    def _law(self, r):
        """Ratio density g, conditional mean m = h / g and truncation
        half-width eps at ``r``, from one ``ratio.pdf`` and one ``cond.h``."""
        g = self.ratio.pdf(r)
        m = self.cond.h(r, self.ratio.r_lo) / g
        a, b = self._half_width
        return g, m, a * m + b

    @cached_property
    def _knots(self) -> np.ndarray:
        """Interior knots of g and of a custom h: the kinks of the law."""
        knots = self.ratio.law.knots
        if self.cond.family == "custom":
            knots = sorted_distinct(knots, self.cond.h_table.x)
        return knots[(knots > self.ratio.r_lo) & (knots < self.ratio.r_hi)]

    @cached_property
    def _cells(self):
        """The law on one grid of the ratio range: 1,025 equispaced
        points, every knot and, for the high family, every turn of m, as
        the grid with g, h and m = h / g there (one ``cond.h`` call), and
        the positions in it of r_lo, the knots and r_hi, the ends of the
        cells on which g and a custom h are linear.

        On each grid cell m is monotone: for the low and custom families
        it is a ratio of linear functions with g > 0, and for the high
        family m = 1 / (u g) with u = sqrt(r - r_lo + delta), where
        g = c r + d, turns only where 2 c u**2 + g = 0, which is a grid
        point.  eps is m / 2 or a constant, so m - eps and m + eps follow
        m and are bounded on a grid cell by their values at its ends.
        """
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi
        ends = np.concatenate(([r_lo], self._knots, [r_hi]))
        r = sorted_distinct(np.linspace(r_lo, r_hi, 1025), ends)
        g = self.ratio.pdf(r)
        if self.cond.family == "high":
            c = np.diff(g) / np.diff(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                turn = (2.0 * c * (r_lo - self.cond.delta)
                        - (g[:-1] - c * r[:-1])) / (3.0 * c)
            r = sorted_distinct(r, turn[(turn > r[:-1]) & (turn < r[1:])])
            g = self.ratio.pdf(r)
        h = self.cond.h(r, r_lo)
        return r, g, h, h / g, np.searchsorted(r, ends)

    @cached_property
    def _noise(self) -> MarginalSpec:
        """The law of U = (vm - m) / eps given the ratio."""
        return MarginalSpec.truncated_normal(self.cond.sigma_multiplier)

    @cached_property
    def _vm_band(self) -> tuple:
        """Bounds on every money value, min(m - eps) and max(m + eps)
        over the ``_cells`` grid, widened by 1e-12 relative."""
        m = self._cells[3]
        a, b = self._half_width
        return (float(np.min((1.0 - a) * m - b)) * (1.0 - 1e-12),
                float(np.max((1.0 + a) * m + b)) * (1.0 + 1e-12))

    def _moments(self, pairs):
        # one segmented_gl row per pair, split at the knots.  The law,
        # E[vm**n | r] for each order n and r**j for each power j in a
        # block are formed once over all its nodes, elementwise, and each
        # line gathers its pair's, so every row keeps the bits of its own
        # one-row quadrature.integrate call
        tol = 1e-11
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi
        powers = np.array([j for j, _ in pairs])
        orders = np.array([j + k for j, k in pairs])

        def gather(keys, fn):
            # line i of fn(keys[i]), with fn called once per distinct key
            distinct = sorted_distinct(keys)
            table = np.stack([fn(key) for key in distinct.tolist()])
            return table[np.searchsorted(distinct, keys),
                         np.arange(keys.size)]

        def integrand(nodes, rows):
            g, m, eps = self._law(nodes)

            def cond(n):  # E[vm**n | r], vm = m + eps U
                out = np.zeros_like(nodes)
                for i in range(0, n + 1, 2):
                    out = out + (math.comb(n, i) * m ** (n - i)
                                 * eps ** i * self._noise.moment(i))
                return out

            return (g * gather(powers[rows], lambda j: nodes ** j)
                    * gather(orders[rows], cond))

        values, _ = quadrature.segmented_gl(
            r_lo, r_hi,
            np.broadcast_to(self._knots, (len(pairs), self._knots.size)),
            integrand, tol=tol)
        return values, np.full(len(pairs), tol)

    def _mean_vm(self):
        return self.cond.h_integral(self.ratio.r_lo, self.ratio.r_lo,
                                    self.ratio.r_hi)

    def _band_vm_moments(self, ra, rb):
        mass = float(self.ratio.cdf(rb) - self.ratio.cdf(ra))
        vm_int = self.cond.h_integral(self.ratio.r_lo, ra, rb)
        return mass, vm_int

    def boundary_mean_analytic(self) -> float:
        """Conditional mean of vm exactly at the lower ratio endpoint."""
        return float(self._law(self.ratio.r_lo)[1])

    def _crossing_pairs(self, k, e, p, xq, starts):
        """The (row, cell) pairs whose -xq lies in the cell's range of
        W = (k m + e)(r - p), the band edge k m + e > 0 (k > 0) times the
        price line, widened by ``SATURATION_MARGIN``; the cells run
        between r_lo, the knots and r_hi.  On a cell [a, b] of the
        ``_cells`` grid the edge is monotone, so W is at most its larger
        end value times b - p, or its smaller where b < p, and at least
        its larger times a - p, or its smaller where a > p; a cell's range
        is the hull of its grid cells' ranges.  The rows are sorted by
        price, then by offset (NaN last, in no pair), and ``starts`` holds
        the first row of each price."""
        r, _, _, m, at = self._cells
        edge = k * m + e
        edge_lo = np.minimum(edge[:-1], edge[1:])
        edge_hi = np.maximum(edge[:-1], edge[1:])
        below, above = r[:-1] - p[starts, None], r[1:] - p[starts, None]
        top = np.maximum.reduceat(
            np.where(above >= 0.0, edge_hi, edge_lo) * above, at[:-1], 1)
        bottom = np.minimum.reduceat(
            np.where(below <= 0.0, edge_hi, edge_lo) * below, at[:-1], 1)
        pad = SATURATION_MARGIN * np.maximum(np.abs(top), np.abs(bottom))
        lo, hi = -top - pad, -bottom + pad
        # one price's rows are consecutive and sorted by offset
        first, end = np.empty((2,) + lo.shape, dtype=np.intp)
        for i, (s, t) in enumerate(zip(starts.tolist(),
                                       np.append(starts[1:], xq.size))):
            first[i] = s + np.searchsorted(xq[s:t], lo[i], "left")
            end[i] = s + np.searchsorted(xq[s:t], hi[i], "right")
        count = np.maximum(end - first, 0).ravel()
        cells = np.repeat(np.tile(np.arange(at.size - 1), starts.size), count)
        return (np.arange(cells.size)
                + np.repeat(first.ravel() - np.cumsum(count) + count, count),
                cells)

    def _crossing_roots(self, sign, p, xq, starts):
        """Where each row's price line meets the band edge m + sign * eps:
        the roots in (r_lo, r_hi] of (m(r) + sign eps(r)) (r - p) + xq, as
        an (n, k) matrix padded with r_hi, for rows sorted as
        ``_crossing_pairs`` takes them.

        The edge is k m + e, k = 1 + sign a and e = sign b for the
        ``_half_width`` (a, b).  On a cell [r0, r1] g and a custom h are
        linear, and the roots are those of H(r) (r - p) + xq g(r), the
        crossing function times g > 0, with H = k h + e g: a quadratic in
        t = r - r0 for the low and custom families.  For the high family
        h = 1 / u with u = sqrt(r - r_lo + delta), so the function times
        u g, (k + e u g)(r - p) + xq u g, is a polynomial in v = u - u(r0),
        since r - r0 = v (2 u(r0) + v), of degree 2 + 3 or 2 + 1 (u g on
        a sloping or constant g) where e != 0, else 3 or 2.
        ``quadrature.poly_roots`` solves them, on the pairs of
        ``_crossing_pairs`` only.  A row's roots depend on its own price,
        offset and cells only.
        """
        r, g, h, _, at = self._cells
        r, g, h = r[at], g[at], h[at]
        a, b = self._half_width
        k, e = 1.0 + sign * a, sign * b
        rows, c = self._crossing_pairs(k, e, p, xq, starts)
        x, q = xq[rows], r[c] - p[rows]
        g_a, g_s = g[c], (np.diff(g) / np.diff(r))[c]
        if self.cond.family == "high":
            u = np.sqrt(r - self.ratio.r_lo + self.cond.delta)
            ua = u[c]
            width = u[c + 1] - ua
            rp = np.column_stack((q, 2.0 * ua, np.ones(q.size)))  # r - p
            ug = np.column_stack((ua * g_a, g_a + 2.0 * ua * ua * g_s,
                                  3.0 * ua * g_s, g_s))  # u g
            one = e * ug[:, :4 if e != 0.0 else 1]  # k + e u g, k at e = 0
            one[:, 0] += k
            coef = np.zeros((q.size, 6))  # (k + e u g)(r - p) + x u g
            coef[:, :4] = x[:, None] * ug
            coef[:, :one.shape[1] + 2] += _polymul(one, rp)
            degree = np.maximum(np.where(g_s != 0.0, 3, 1) + 2 * (e != 0.0),
                                2)
        else:  # (H0 + H1 t)(q + t) + x g
            width = np.diff(r)[c]
            H0 = k * h[c] + e * g_a
            H1 = k * (np.diff(h) / np.diff(r))[c] + e * g_s
            coef = np.column_stack((H0 * q + x * g_a, H0 + H1 * q + x * g_s,
                                    H1))
            degree = np.full(rows.size, 2)
        hit_rows, hit_roots = [rows[:0]], [q[:0]]
        for d in sorted_distinct(degree).tolist():
            pick = np.flatnonzero(degree == d)
            t = quadrature.poly_roots(coef[pick, :d + 1], width[pick])
            # a root on a cell's left end is the previous cell's right end
            line, slot = np.nonzero(t > 0.0)
            t, line = t[line, slot], pick[line]
            hit_rows.append(rows[line])
            hit_roots.append(r[c[line]] + (t * (2.0 * ua[line] + t)
                                           if self.cond.family == "high"
                                           else t))
        rows, found = np.concatenate(hit_rows), np.concatenate(hit_roots)
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)
        roots = np.full((xq.size, slot.max(initial=-1) + 1), self.ratio.r_hi)
        roots[rows, slot] = found[order]
        return roots

    def _live_hull(self, p, xq, roots, starts):
        """Each row's live hull [lo, hi] and the buying mass outside it,
        for rows sorted as ``_crossing_pairs`` takes them.

        A row is live where one edge's crossing function
        (m + sign eps)(r - p) + xq is negative and the other's is not;
        everybody buys where both are nonnegative and nobody where both
        are negative.  So its state changes only at its crossing roots
        (at xq = 0 both edges have one at p), and before its first root
        and after its last it keeps its state at r_lo and r_hi.  Those
        come from g and h at the two ends of the ``_cells`` grid, shared
        by every row; an end where either function lies within
        ``SATURATION_MARGIN`` of zero counts as live, so a root that
        rounding moved past the end cannot hide a live run.  The hull
        runs from the first root, or r_lo where that end is live, to the
        last root, or r_hi.  A rootless row with one saturated state at
        both ends has an empty hull; one whose ends disagree spans the
        whole support.  The hull is cut to the ``_money_window`` of
        ``_vm_band``, which empties it at xq = 0, where the row buys
        exactly where r >= p (vm > 0 and the law has no atoms).  The mass
        outside is ratio.cdf(lo) where everybody buys at r_lo plus
        1 - ratio.cdf(hi) where everybody buys at r_hi or above the
        window.
        """
        r, g, h = self._cells[:3]
        r_lo, r_hi = r[0], r[-1]
        a, b = self._half_width
        edges = [((1.0 + a) * m + b, (1.0 - a) * m - b)
                 for m in (h[[0, -1]] / g[[0, -1]]).tolist()]
        # the states at r_lo and r_hi, one price at a time, where each
        # crossing function's end value is a scalar
        every, sat = np.empty((2, 2, p.size), dtype=bool)
        ends = np.append(starts[1:], p.size)
        for s, t in zip(starts.tolist(), ends.tolist()):
            for i, end in enumerate((r_lo, r_hi)):
                pos = neg = True
                for edge in edges[i]:
                    w = edge * (end - p[s])
                    pad = SATURATION_MARGIN * abs(w)
                    pos = pos & (w + xq[s:t] > pad)
                    neg = neg & (w + xq[s:t] < -pad)
                every[i, s:t], sat[i, s:t] = pos, pos | neg
        # column by column: a reduction along rows of a few entries each
        # costs more than the elementwise passes
        first = np.full(p.size, r_hi)
        for column in (c for R in roots for c in R.T):
            np.minimum(first, column, out=first)
        has = first < r_hi
        last = np.full(has.sum(), r_lo)
        for column in (c for R in roots for c in R[has].T):
            np.maximum(last, np.where(column < r_hi, column, r_lo), out=last)
        lo = np.full(p.size, r_lo)
        hi = np.where(sat[0] & sat[1] & (every[0] == every[1]), r_lo, r_hi)
        lo[has] = np.where(sat[0, has], first[has], r_lo)
        hi[has] = np.where(sat[1, has], last, r_hi)
        cut = np.flatnonzero(lo < hi)  # the rows with a hull to cut
        start, stop = _money_window(p[cut], xq[cut], *self._vm_band)
        start, stop = np.fmax(lo[cut], start), np.fmin(hi[cut], stop)
        every[1, cut[stop < hi[cut]]] = True
        lo[cut], hi[cut] = start, stop
        # a row with neither roots nor a hull has lo = hi = r_lo: the
        # law's cdf is read at r_lo and on the other rows only
        has[cut] = True
        has = np.flatnonzero(has)
        cdf = np.asarray(self.ratio.cdf(np.concatenate(([r_lo], lo[has],
                                                        hi[has]))))
        at_lo, at_hi = np.full((2, p.size), cdf[0])
        at_lo[has], at_hi[has] = cdf[1:].reshape(2, has.size)
        below = np.where(every[0], at_lo, 0.0)
        above = np.where(every[1] & (hi < r_hi), 1.0 - at_hi, 0.0)
        return lo, hi, below + above

    def _quality_profile(self, p, xq):
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        # the crossing roots are found per price in the rows sorted by
        # offset (NaN last): sort the rows by price, then by offset, unless
        # they are, and scatter them back; rows are independent, so each
        # keeps its bits
        order = (slice(None) if np.all((p[1:] > p[:-1]) | (
            (p[1:] == p[:-1]) & (xq[1:] >= xq[:-1]))) else np.lexsort((xq, p)))
        p, xq = p[order], xq[order]
        n = xq.size
        starts = np.flatnonzero(np.r_[n > 0, p[1:] != p[:-1]])
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi
        roots = [self._crossing_roots(sign, p, xq, starts)
                 for sign in (1.0, -1.0)]
        lo, hi, outer = self._live_hull(p, xq, roots, starts)
        # only rows with a nonempty hull (or a NaN one) need quadrature;
        # a row at xq = 0 has none and takes 1 - G(p) (see _live_hull)
        live = np.flatnonzero(~(lo >= hi))
        p, xq = p[live], xq[live]
        # A live row is integrated over the money-value threshold
        # t = -xq / (r - p), where its price line meets vm, not over the
        # ratio r: it buys when vm >= t if xq < 0 (then r > p) and when
        # vm <= t if xq > 0 (then r < p).  With r = p - xq / t and the
        # Jacobian |dr / dt| = |xq| / t**2 the row is the integral of
        # g(r) P(buy | r) |xq| / t**2 over t.  The hull, cut to the window
        # of ``_vm_band``, maps into that band, [min(m - eps), max(m + eps)]:
        # O(1) wide whatever xq is, and away from the pole of r at t = 0,
        # which the pole of t at r = p becomes.  The hull ends, the roots
        # and the knots map to t; p has no image, and a hull end that
        # rounding puts on p maps to the band's top.
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -xq[:, None] / (np.concatenate(
                (lo[live, None], hi[live, None], *(R[live] for R in roots),
                 np.broadcast_to(self._knots, (live.size, self._knots.size))),
                axis=1) - p[:, None])
        ends = np.clip(np.abs(t[:, :2]), *self._vm_band)

        def integrand(nodes, rows):
            x = xq[rows][:, None]
            q = x / nodes  # p - r
            jac = np.abs(q)
            jac /= nodes
            r = np.subtract(p[rows][:, None], q, out=q)
            g, m, eps = self._law(np.clip(r, r_lo, r_hi, out=r))
            # the row buys with P(vm >= t) if xq < 0, P(vm <= t) if xq > 0:
            # U.cdf(u) at u = sign(xq) (t - m) / eps, as U is symmetric.
            # u reuses the nodes, and m, eps go before s is formed, which
            # bounds the node-sized arrays alive at once
            eps *= np.sign(x)
            u = np.subtract(nodes, m, out=nodes)
            del m
            u /= eps
            del eps
            s = self._noise.cdf(u)
            s *= g
            s *= jac
            return s

        with _renumbered(np.arange(n)[order][live]):
            values, errors = quadrature.segmented_gl(
                np.min(ends, axis=1), np.max(ends, axis=1), t[:, 2:],
                integrand, tol=SURFACE_TOL)
        out = np.zeros((2, n))
        out[:, live] = values, errors
        out[0] += outer
        out[:, order] = out.copy()
        return out[0], out[1]

@dataclass(frozen=True, eq=False)
class MixturePopulation(Population):
    """Finite convex combination of populations."""

    components: tuple

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        comps = []
        total = 0.0
        for weight, pop in self.components:
            if not weight > 0.0:
                raise ValueError("mixture weights must be positive")
            if not isinstance(pop, Population):
                raise TypeError("mixture components must be populations")
            comps.append((float(weight), pop))
            total += weight
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"mixture weights sum to {total:.12g}, not 1")
        comps = [(w / total, pop) for w, pop in comps]
        object.__setattr__(self, "components", tuple(comps))

    @cached_property
    def support(self) -> Support:
        subs = [pop.support for _, pop in self.components]
        return Support(min(s.r_lo for s in subs), max(s.r_hi for s in subs),
                       max(s.vm_hi for s in subs))

    @property
    def vk_upper(self) -> float:
        return max(pop.vk_upper for _, pop in self.components)

    def _density(self, vk, vm):
        out = self._blend("_density", vk, vm)
        return out if np.ndim(out) else float(out)

    def _sample(self, n, rng):
        # each draw's component, in the smallest unsigned type, before the
        # result is allocated; np.place scatters a component's draws
        # without an index array.  A draw holds its result, two bytes per
        # draw and one component's draws at a time
        weights = np.array([w for w, _ in self.components])
        idx = rng.choice(len(self.components), size=n, p=weights).astype(
            np.min_scalar_type(len(self.components) - 1))
        out = np.empty((2, n))
        for i, (_, pop) in enumerate(self.components):
            mask = idx == i
            cnt = int(np.count_nonzero(mask))
            if cnt:
                vk, vm = pop._sample(cnt, rng).T
                np.place(out[0], mask, vk)
                np.place(out[1], mask, vm)
                del vk, vm  # before the next component draws
        return out.T

    @cached_property
    def _mixture_ratio_spec(self) -> RatioMarginalSpec:
        specs = [(w, pop._ratio_marginal()) for w, pop in self.components]
        atoms = [(pos, w * mass) for w, spec in specs
                 for pos, mass in spec.atoms]
        cont = 1.0 - sum(m for _, m in atoms)
        sup = self.support
        if cont <= 1e-12:
            return RatioMarginalSpec(None, sup, tuple(atoms))
        r = np.linspace(sup.r_lo, sup.r_hi, TABLE_GRID_DEFAULT)
        g = np.zeros_like(r)
        for w, spec in specs:
            if spec.law is not None:
                g = g + w * np.asarray(spec.pdf(r))
        raw = np.trapezoid(g, r)
        g = g * (cont / raw)
        return RatioMarginalSpec.tabulated(r, g, sup.vm_hi,
                                           atoms=tuple(atoms))

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return self._mixture_ratio_spec

    def _moments(self, pairs):
        return self._blend("_moments", pairs)

    def _mean_vm(self):
        return self._blend("_mean_vm")

    def _band_vm_moments(self, ra, rb):
        return self._blend("_band_vm_moments", ra, rb)

    def _blend(self, method: str, *args):
        # the weighted sum of the components' results in component order,
        # halfwise for a pair-valued hook: an error weighs in like values
        total = []
        for w, pop in self.components:
            out = getattr(pop, method)(*args)
            parts = out if isinstance(out, tuple) else (out,)
            total = [t + w * x
                     for t, x in zip(total or [0.0] * len(parts), parts)]
        return tuple(total) if isinstance(out, tuple) else total[0]

    def _quality_profile(self, p, xq):
        return self._blend("_quality_profile", p, xq)

    def _quality_surface(self, prices, xq):
        # a column's estimate is the weighted sum of the components' worst
        return self._blend("_quality_surface", prices, xq)

    def _demand_profile(self, prices):
        # exact component blend; the tabulated marginal smears component
        # edges over one grid cell and is kept for export only
        return np.clip(self._blend("_demand_profile", prices), 0.0, 1.0)

# -- family constructors and bounds -----------------------------------

def _low_delta_bound(ratio: RatioMarginalSpec) -> float:
    """Largest admissible offset for the low-regime mean curve.

    Equals 2 g(r_lo) * int (r - r_lo) dr over the support, which keeps
    h(r_lo) weakly below twice the integral of h.
    """
    length = ratio.r_hi - ratio.r_lo
    return ratio.g_lo * length ** 2


def _high_delta_bound(ratio: RatioMarginalSpec) -> float:
    """Supremum of offsets keeping the high-regime curve valid (strict).

    The positive root of delta**2 + L*delta - 1/(16 g(r_lo)**2), with
    L the support length.
    """
    g0 = ratio.g_lo
    if g0 <= 0.0:
        return np.inf
    length = ratio.r_hi - ratio.r_lo
    return 0.5 * (math.sqrt(length ** 2 + 1.0 / (4.0 * g0 ** 2)) - length)


def _delta_admissible(ratio: RatioMarginalSpec, delta: float,
                      family: str) -> tuple:
    """The family's offset bound, and whether 0 < delta <= bound (low
    family) or 0 < delta < bound (high family, strict) holds."""
    if family == "low":
        bound = _low_delta_bound(ratio)
        return bound, 0.0 < delta <= bound
    bound = _high_delta_bound(ratio)
    return bound, 0.0 < delta < bound


def _family_population(ratio, delta, family, cond_kwargs):
    _require_seed_ratio(ratio)
    bound, ok = _delta_admissible(ratio, delta, family)
    if not ok:
        end = "]" if family == "low" else ")"
        raise BoundViolation(
            f"{family}-family offset {delta:g} outside (0, {bound:g}{end}",
            delta=delta, bound=bound)
    return RatioConditionalPopulation(
        ratio, ConditionalSpec(family, delta=delta, **cond_kwargs))


def make_low_population(ratio: RatioMarginalSpec, delta: float,
                        **cond_kwargs) -> RatioConditionalPopulation:
    """Population with the given ratio marginal and a *low* boundary mean.

    The conditional mean curve is m(r) = ((r - r_lo) + delta) / g(r); the
    offset must satisfy 0 < delta <= 2 g(r_lo) * int (r - r_lo) dr, else
    :class:`BoundViolation`.
    """
    return _family_population(ratio, delta, "low", cond_kwargs)


def make_high_population(ratio: RatioMarginalSpec, delta: float,
                         **cond_kwargs) -> RatioConditionalPopulation:
    """Population with the given ratio marginal and a *high* boundary mean.

    The conditional mean curve is m(r) = (r - r_lo + delta)**-0.5 / g(r);
    the offset must satisfy 0 < delta < bound with the bound the positive
    root of delta**2 + L*delta - 1/(16 g(r_lo)**2) (strict inequality),
    else :class:`BoundViolation`.
    """
    return _family_population(ratio, delta, "high", cond_kwargs)


@dataclass(frozen=True)
class MomentTable:
    """All cross moments of (good value, money value) up to a total order.

    ``entries`` maps (j, k) with j + k <= max_order to E[vk**j * vm**k];
    ``errors`` carries one numerical diagnostic per entry: 0.0 for closed
    forms, the quadrature tolerance for integrated entries, or the
    condition number of the price system for entries recovered by a
    linear solve.
    """

    max_order: int
    entries: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        expected = {(j, n - j) for n in range(self.max_order + 1)
                    for j in range(n + 1)}
        if set(self.entries) != expected:
            raise ValueError("moment table must cover all (j, k) with "
                             f"j + k <= {self.max_order}")
        if abs(self.entries[(0, 0)] - 1.0) > 1e-9:
            raise ValueError("the (0, 0) entry must equal 1")
        for key, value in self.entries.items():
            if not (value == value and abs(value) != float("inf")):
                raise ValueError(f"non-finite moment at {key}")

    def __getitem__(self, key) -> float:
        return self.entries[tuple(key)]

    def keys(self):
        return sorted(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "entries": {f"{j},{k}": v
                        for (j, k), v in sorted(self.entries.items())},
            "errors": {f"{j},{k}": v
                       for (j, k), v in sorted(self.errors.items())},
        }


# -- module-level operations ------------------------------------------

def density(pop: Population, vk, vm):
    """Joint density of (vk, vm); raises NoDensity on degenerate forms."""
    return pop._density(vk, vm)


def sample(pop: Population, n: int, seed: int) -> np.ndarray:
    """Draw n consumers as an (n, 2) array of (vk, vm) rows: the
    transpose of a (2, n) buffer that holds each column's draws, so the
    columns are contiguous and a draw holds little more than its result
    (README "Reproducibility and threads")."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    rng = np.random.default_rng(seed)
    return pop._sample(int(n), rng)


def ratio_marginal(pop: Population) -> RatioMarginalSpec:
    """Marginal law of the ratio vk / vm (degenerate forms give atoms)."""
    return pop._ratio_marginal()


def _moment_or_inf(pop: Population, pair) -> float:
    try:
        return float(pop._moments([pair])[0][0])
    except OverflowError:
        return math.inf


@np.errstate(over="ignore", invalid="ignore")
def moments(pop: Population, max_order: int) -> MomentTable:
    """Cross moments E[vk**j vm**k] for all j + k <= max_order; the
    first entry that overflows double precision raises NonFiniteMoment."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    pairs = [(j, n - j) for n in range(max_order + 1) for j in range(n + 1)]
    try:
        values, diags = pop._moments(pairs)
    except OverflowError:  # a closed form's float power: find its entry
        values = [_moment_or_inf(pop, pair) for pair in pairs]
    for (j, k), value in zip(pairs, values):
        if not math.isfinite(value):
            raise NonFiniteMoment(
                f"moment E[vk**{j} vm**{k}] overflows double precision")
    return MomentTable(max_order,
                       {pair: float(v) for pair, v in zip(pairs, values)},
                       {pair: float(d) for pair, d in zip(pairs, diags)})

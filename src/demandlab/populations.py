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
  together with a conditional law for vm given r: a normal with mean
  m(r) = h(r) / g(r), truncated symmetrically at m(r) +/- eps(r).  The
  symmetric truncation keeps the conditional mean exactly equal to
  m(r), which is what makes the low/high constructions work.
* ``MixturePopulation`` -- a finite convex combination of the above.

``moments`` tabulates a population's cross moments as a ``MomentTable``.

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
                     QuadratureFailure)
from .marginals import MarginalSpec, PwLinearTable, _special

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
# Population._quality_surface: relative margin by which a quality row
# must clear its column's nobody-buys or everybody-buys bound to be left
# to the class.
SATURATION_MARGIN = 1e-9
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


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

    ``kind`` is one of ``uniform``, ``triangular`` (symmetric),
    ``tabulated`` (piecewise-linear density) or ``degenerate`` (single
    atom).  ``atoms`` carries (position, mass) pairs and is nonempty
    only for degenerate specs and for tabulations reported from
    mixtures that contain point masses; such specs describe outputs and
    cannot seed new populations.
    """

    kind: str
    support: Support
    table: PwLinearTable | None = field(default=None, repr=False)
    atoms: tuple = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "triangular", "tabulated",
                             "degenerate"):
            raise ValueError(f"unknown ratio marginal kind {self.kind!r}")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated ratio marginal needs a table")
        if self.kind == "degenerate" and len(self.atoms) != 1:
            raise ValueError("degenerate ratio marginal needs exactly "
                             "one atom")
        if any(m <= 0.0 for _, m in self.atoms):
            raise ValueError("atom masses must be positive")
        if sum(m for _, m in self.atoms) > 1.0 + 1e-12:
            raise ValueError("atom mass exceeds 1")

    # -- constructors -------------------------------------------------

    @classmethod
    def uniform(cls, r_lo: float, r_hi: float, vm_hi: float = 1.0):
        return cls("uniform", Support(r_lo, r_hi, vm_hi))

    @classmethod
    def triangular(cls, r_lo: float, r_hi: float, vm_hi: float = 1.0):
        return cls("triangular", Support(r_lo, r_hi, vm_hi))

    @classmethod
    def tabulated(cls, r, g, vm_hi: float = 1.0, *, atoms=()):
        cont = 1.0 - sum(m for _, m in atoms)
        table = PwLinearTable.density(r, g, total=cont)
        return cls("tabulated",
                   Support(float(table.x[0]), float(table.x[-1]), vm_hi),
                   table=table, atoms=tuple(atoms))

    @classmethod
    def degenerate(cls, r0: float, vm_hi: float = 1.0):
        r0 = float(r0)
        pad = max(abs(r0), 1.0) * 1e-9
        return cls("degenerate", Support(max(r0 - pad, 0.0), r0 + pad, vm_hi),
                   atoms=((r0, 1.0),))

    # -- basic queries ------------------------------------------------

    @property
    def has_density(self) -> bool:
        return self.kind != "degenerate" and not self.atoms

    @property
    def r_lo(self) -> float:
        return self.support.r_lo

    @property
    def r_hi(self) -> float:
        return self.support.r_hi

    @cached_property
    def _as_table(self) -> PwLinearTable:
        """Piecewise-linear view of the continuous density part."""
        a, b = self.r_lo, self.r_hi
        if self.kind == "uniform":
            h = 1.0 / (b - a)
            return PwLinearTable(np.array([a, b]), np.array([h, h]))
        if self.kind == "triangular":
            peak = 2.0 / (b - a)
            return PwLinearTable(np.array([a, 0.5 * (a + b), b]),
                                 np.array([0.0, peak, 0.0]))
        if self.kind == "tabulated":
            return self.table
        raise DegenerateRatio("degenerate ratio marginal has no density")

    def pdf(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "uniform":
            inside = (r >= self.r_lo) & (r <= self.r_hi)
            out = np.where(inside, 1.0 / (self.r_hi - self.r_lo), 0.0)
        elif self.kind == "triangular":
            a, b = self.r_lo, self.r_hi
            length = b - a
            up = 4.0 * (r - a) / length ** 2
            down = 4.0 * (b - r) / length ** 2
            out = np.clip(np.minimum(up, down), 0.0, None)
        elif self.kind == "tabulated":
            out = self.table.value_at(r)
        else:
            out = np.zeros_like(r)
        return out if out.ndim else float(out)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "uniform":
            out = np.clip((r - self.r_lo) / (self.r_hi - self.r_lo),
                          0.0, 1.0)
        elif self.kind == "triangular":
            a, b = self.r_lo, self.r_hi
            length = b - a
            mid = 0.5 * (a + b)
            rc = np.clip(r, a, b)
            lower = 2.0 * ((rc - a) / length) ** 2
            upper = 1.0 - 2.0 * ((b - rc) / length) ** 2
            out = np.where(rc <= mid, lower, upper)
        elif self.kind == "tabulated":
            out = np.asarray(self.table.cdf(r))
        else:
            out = np.zeros_like(r)
        for pos, mass in self.atoms:
            out = out + mass * (r >= pos)
        return out if out.ndim else float(out)

    def ppf(self, q):
        if not self.has_density:
            raise DegenerateRatio(
                "quantile function needs a purely continuous ratio marginal")
        q = np.asarray(q, dtype=float)
        if self.kind == "uniform":
            out = self.r_lo + (self.r_hi - self.r_lo) * q
        elif self.kind == "triangular":
            a, b = self.r_lo, self.r_hi
            length = b - a
            lower = a + length * np.sqrt(np.clip(q, 0.0, 1.0) / 2.0)
            upper = b - length * np.sqrt(np.clip(1.0 - q, 0.0, 1.0) / 2.0)
            out = np.where(q <= 0.5, lower, upper)
        else:
            out = np.asarray(self.table.ppf(q))
        return out if out.ndim else float(out)

    def moment(self, j: int) -> float:
        if j == 0:
            return 1.0
        if self.kind == "uniform":
            a, b = self.r_lo, self.r_hi
            cont = (b ** (j + 1) - a ** (j + 1)) / ((j + 1) * (b - a))
        elif self.kind == "degenerate":
            cont = 0.0
        else:
            cont = self._as_table.moment(j)
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
    and symmetric truncation at m(r) +/- eps(r).  ``epsilon_kind``
    chooses eps(r): ``half_mean`` takes m(r) / 2; ``fixed`` takes a
    constant, which must stay inside (0, min m).
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


def _trunc_mass(a0: float) -> float:
    """2 Phi(a0) - 1, the mass a standard normal keeps on [-a0, a0].
    Below a0 = 2 the subtraction cancels, so erf(a0 / sqrt 2) gives it.
    A finite sigma multiplier gives a0 >= 5.6e-309, where erf is > 0."""
    if a0 < 2.0:
        return math.erf(a0 / math.sqrt(2.0))
    return float(2.0 * _special("ndtr", a0) - 1.0)


def _trunc_std_even_moments(a0: float, n_max: int) -> tuple:
    """E[U^n] for n <= n_max, where U = Z / a0 lies in [-1, 1] and Z is a
    standard normal truncated to [-a0, a0]; so each lies in [0, 1].

    Odd moments vanish.  For a0 >= 2 even ones follow the two-sided
    recursion u_n = (n - 1) u_{n-2} / a0^2 - 2 phi(a0) / (a0 z), where
    z = 2 Phi(a0) - 1.  Below that its two terms nearly cancel.  U's
    density is proportional to exp(-b u^2), b = a0^2 / 2, and by Kummer's
    transformation int_0^1 u^n exp(-b u^2) du = exp(-b) S_n / (n + 1) with
    the positive series S_n = sum_k b^k / ((n + 3) / 2)_k, so
    E[U^n] = S_n / ((n + 1) S_0) without cancellation.
    """
    u = [1.0] + [0.0] * n_max
    if a0 < 2.0:
        b = 0.5 * a0 * a0
        for n in range(0, n_max + 1, 2):
            term, total, c = 1.0, 1.0, 0.5 * (n + 3)
            while term > 1e-17 * total:
                term *= b / c
                total += term
                c += 1.0
            u[n] = total / (n + 1)
        return tuple(x / u[0] for x in u)
    z = _trunc_mass(a0)  # near 1 here, since a0 >= 2
    phi = math.exp(-0.5 * a0 * a0) / _SQRT2PI
    for n in range(2, n_max + 1, 2):
        u[n] = (n - 1) * u[n - 2] / (a0 * a0) - 2.0 * phi / (a0 * z)
    return tuple(u)


class Population:
    """Common interface of all population forms (see module docstring)."""

    # Subclasses implement: support, vk_upper, _density, _sample,
    # _ratio_marginal, _moments, _band_vm_moments, _quality_profile.
    # _moments(pairs) takes a list of (j, k) pairs and returns two arrays
    # in their order: E[vk**j vm**k] and each entry's diagnostic (0 for
    # closed forms, the quadrature tolerance for integrated entries).
    # _quality_profile(p, xq) takes prices p broadcastable against the
    # quality offsets xq, so one call can hold the rows of many prices,
    # and returns each row's buying mass and the estimate of its absolute
    # quadrature error (0 for closed forms).

    @property
    def support(self) -> Support:
        raise NotImplementedError

    @property
    def vk_upper(self) -> float:
        raise NotImplementedError

    def _mean_vm(self) -> float:
        """E[vm]; forms with an exact closed form override this."""
        return float(self._moments([(0, 1)])[0][0])

    def _saturation_bounds(self, p: float):
        """Quality offsets below which nobody buys and above which
        everybody buys at price p >= 0.  With vk >= 0 and
        0 < vm <= vm_hi, the support box gives
        max(-vk_upper, -vm_hi max(r_hi - p, 0)) and
        min(p vm_hi, vm_hi max(p - r_lo, 0)); forms that know their own
        range of vk - p vm override this."""
        sup = self.support
        return (max(-self.vk_upper, -sup.vm_hi * max(sup.r_hi - p, 0.0)),
                min(p * sup.vm_hi, sup.vm_hi * max(p - sup.r_lo, 0.0)))

    def _quality_surface(self, prices: np.ndarray, xq: np.ndarray):
        """Buying mass at every (quality offset, price) pair of the grids,
        as an (xq.size, prices.size) matrix, and each price column's
        worst quadrature estimate, from one ``_quality_profile`` call.

        In column p nobody buys below and everybody buys above the
        offsets of ``_saturation_bounds(p)``.  In both classes every
        break clips to an end and every cdf to 0 or 1, and the kernel's
        rows are independent, so each row of a class gets the same value
        and estimate.  The kernel runs, for all columns at once, on the
        (price, offset) rows between the classes and on the innermost and
        outermost row of each class; a class whose two rows agree bit for
        bit takes their value.  A column where they differ is computed on
        every row in a second call, so the result is always the kernel's.
        """
        run = np.ones((prices.size, xq.size), dtype=bool)
        classes = []  # (column, rows of the class, its two end rows)
        for j, p in enumerate(prices.tolist()):
            nobody, everybody = self._saturation_bounds(p)
            for c in (xq < nobody - SATURATION_MARGIN * abs(nobody),
                      xq > everybody + SATURATION_MARGIN * abs(everybody)):
                c = np.flatnonzero(c)
                if c.size > 2:
                    ends = c[[np.argmin(xq[c]), np.argmax(xq[c])]]
                    run[j, c] = False
                    run[j, ends] = True
                    classes.append((j, c, ends))
        values = np.empty(run.shape)
        errors = np.zeros(run.shape)

        def compute(col, row):  # the rows of one price are consecutive
            try:
                values[col, row], errors[col, row] = self._quality_profile(
                    prices[col], xq[row])
            except QuadratureFailure as exc:
                if exc.row is None:
                    raise
                raise QuadratureFailure(
                    f"quality surface at price {float(prices[col[exc.row]])!r}"
                    f", quality offset {float(xq[row[exc.row]])!r}: {exc}",
                    achieved=exc.achieved, requested=exc.requested) from exc

        compute(*np.nonzero(run))
        redo = np.zeros(prices.size, dtype=bool)
        for j, c, ends in classes:
            pair = values[j, ends].view(np.int64)
            redo[j] |= pair[0] != pair[1]
            values[j, c] = values[j, ends[0]]
        if redo.any():
            run[:] = redo[:, None]
            compute(*np.nonzero(run))
        return values.T, np.max(errors, axis=1, initial=0.0)

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
        return np.column_stack((np.full(n, self.vk), np.full(n, self.vm)))

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return RatioMarginalSpec.degenerate(self.vk / self.vm, self.vm)

    def _moments(self, pairs):
        return (np.array([self.vk ** j * self.vm ** k for j, k in pairs]),
                np.zeros(len(pairs)))

    def _band_vm_moments(self, ra, rb):
        inside = ra <= self.vk / self.vm <= rb
        return (1.0 if inside else 0.0), (self.vm if inside else 0.0)

    def _quality_profile(self, p, xq):
        buys = (self.vk + np.asarray(xq, dtype=float)
                - self.vm * np.asarray(p, dtype=float) >= 0.0)
        return buys.astype(float), np.zeros(buys.shape)


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
    if ratio.atoms or ratio.kind == "degenerate":
        raise DegenerateRatio("ratio specs carrying atoms describe outputs "
                              "and cannot seed a population")


@dataclass(frozen=True, eq=False)
class ProductPopulation(Population):
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

    @cached_property
    def support(self) -> Support:
        return Support(self.ratio.r_lo, self.ratio.r_hi, self.vm.hi)

    @property
    def vk_upper(self) -> float:
        return self.ratio.r_hi * self.vm.hi

    def _density(self, vk, vm):
        if self.vm.is_degenerate:
            raise NoDensity("degenerate money-value marginal")
        vk = np.asarray(vk, dtype=float)
        vm = np.asarray(vm, dtype=float)
        pos = vm > 0.0
        vms = np.where(pos, vm, 1.0)
        out = np.where(
            pos, self.ratio.pdf(vk / vms) * self.vm.pdf(vm) / vms, 0.0)
        return out if out.ndim else float(out)

    def _sample(self, n, rng):
        r = np.asarray(self.ratio.ppf(rng.random(n)))
        vm = self.vm.sample(n, rng)
        return np.column_stack((r * vm, vm))

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return self.ratio

    def _moments(self, pairs):
        return (np.array([self.ratio.moment(j) * self.vm.moment(j + k)
                          for j, k in pairs]), np.zeros(len(pairs)))

    def _band_vm_moments(self, ra, rb):
        mass = float(self.ratio.cdf(rb) - self.ratio.cdf(ra))
        return mass, mass * self.vm.mean

    def _quality_profile(self, p, xq):
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        n = xq.size
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi
        knots = self.ratio._as_table.x[1:-1]
        cols = [np.clip(p, r_lo, r_hi)[:, None],
                np.broadcast_to(knots, (n, knots.size))]
        for edge in (self.vm.lo, self.vm.hi):
            if edge > 0.0:
                cols.append((p - xq / edge)[:, None])
        breaks = np.concatenate(cols, axis=1)

        def integrand(nodes, rows):
            x = xq[rows][:, None]
            c = nodes - p[rows][:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(c != 0.0, -x / np.where(c != 0.0, c, 1.0), 0.0)
            f_at_t = np.asarray(self.vm.cdf(t))
            s = np.where(c > 0.0, 1.0 - f_at_t,
                         np.where(c < 0.0, f_at_t, (x >= 0.0).astype(float)))
            return self.ratio.pdf(nodes) * s

        # vm's cdf contributes |u - break|^alpha at the breaks
        return quadrature.segmented_gl(
            r_lo, r_hi, breaks, integrand, tol=SURFACE_TOL,
            grade=_grade(self.vm.end_shape + 1.0))

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
        good = self.vk.sample(n, rng)
        money = self.vm.sample(n, rng)
        return np.column_stack((good, money))

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
            grade=_grade(self.vm.end_shape, self.vk.end_shape))
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

        (mass, vm_int), _ = quadrature.segmented_gl(
            self.vm.lo, self.vm.hi, np.array([cuts, cuts]),
            integrand, tol=1e-13,
            grade=_grade(self.vm.end_shape, self.vk.end_shape + 1.0))
        return float(mass), float(vm_int)

    def _saturation_bounds(self, p):
        # vk + xq - p vm runs over [vk.lo - p vm.hi, vk.hi - p vm.lo] + xq
        return p * self.vm.lo - self.vk.hi, p * self.vm.hi - self.vk.lo

    def _quality_profile(self, p, xq):
        # P(vk + xq >= p vm): closed forms at a free price and for a
        # point-mass marginal, else quadrature over vm, one row per entry
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        out = np.empty(xq.shape)
        errors = np.zeros(xq.shape)
        free = p == 0.0
        priced = ~free
        if self.vk.is_degenerate:  # a tie buys
            out[free] = self.vk.value + xq[free] >= 0.0
        else:
            out[free] = 1.0 - np.asarray(self.vk.cdf(-xq[free]), dtype=float)
        p, xq = p[priced], xq[priced]
        if self.vm.is_degenerate:
            out[priced] = 1.0 - np.asarray(
                self.vk.cdf(p * self.vm.value - xq), dtype=float)
        elif self.vk.is_degenerate:
            out[priced] = np.asarray(self.vm.cdf((self.vk.value + xq) / p),
                                     dtype=float)
        else:
            def integrand(nodes, rows):
                sk = 1.0 - np.asarray(self.vk.cdf(p[rows][:, None] * nodes
                                                  - xq[rows][:, None]))
                return self.vm.pdf(nodes) * sk

            with _renumbered(np.flatnonzero(priced)):
                out[priced], errors[priced] = quadrature.segmented_gl(
                    self.vm.lo, self.vm.hi,
                    np.column_stack(((self.vk.lo + xq) / p,
                                     (self.vk.hi + xq) / p)),
                    integrand, tol=SURFACE_TOL,
                    grade=_grade(self.vm.end_shape,
                                 self.vk.end_shape + 1.0))
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
class RatioConditionalPopulation(Population):
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
            g, m, _ = self._scan
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
                    f"fixed epsilon {self.cond.epsilon_value:g} must stay "
                    f"below the minimum conditional mean {m.min():g}")

    def _law(self, r):
        """Ratio density g, conditional mean m = h / g and truncation
        half-width eps at ``r``, from one ``ratio.pdf`` and one ``cond.h``."""
        g = self.ratio.pdf(r)
        m = self.cond.h(r, self.ratio.r_lo) / g
        if self.cond.epsilon_kind == "half_mean":
            eps = 0.5 * m
        else:
            eps = np.full_like(m, self.cond.epsilon_value)
        return g, m, eps

    @cached_property
    def _knots(self) -> np.ndarray:
        """Interior knots of g and of a custom h: the kinks of the law."""
        knots = self.ratio._as_table.x
        if self.cond.family == "custom":
            knots = np.union1d(knots, self.cond.h_table.x)
        return knots[(knots > self.ratio.r_lo) & (knots < self.ratio.r_hi)]

    @cached_property
    def _scan_grid(self) -> np.ndarray:
        """A dense grid of the ratio range holding every knot."""
        grid = np.linspace(self.ratio.r_lo, self.ratio.r_hi, 1025)
        return np.union1d(grid, self._knots)

    @cached_property
    def _scan(self):
        """The law on the scan grid."""
        return self._law(self._scan_grid)

    @cached_property
    def _vm_cells(self):
        """Cells of the ratio range on which m - eps and m + eps are
        monotone, as their edges and each cell's least m - eps and most
        m + eps, which are then found at its ends.

        The scan grid holds every knot, so on each of its cells g and a
        custom h are linear, and for the low and custom families
        m = h / g is a ratio of linear functions, monotone where g > 0.
        For the high family m = 1 / (sqrt(s) g) with s = r - r_lo + delta;
        where g = c r + d on a cell, d/dr (sqrt(s) g) has the sign of
        3 c r + d + 2 c (delta - r_lo), so m turns at most once there, and
        that root becomes an edge.  eps is m / 2 or a constant, so
        m - eps and m + eps follow m.
        """
        r = self._scan_grid
        if self.cond.family == "high":
            g = self._scan[0]
            c = np.diff(g) / np.diff(r)
            d = g[:-1] - c * r[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                turn = (2.0 * c * (self.ratio.r_lo - self.cond.delta)
                        - d) / (3.0 * c)
            r = np.union1d(r, turn[(turn > r[:-1]) & (turn < r[1:])])
        _, m, eps = self._law(r)
        lo, hi = m - eps, m + eps
        return r, np.minimum(lo[:-1], lo[1:]), np.maximum(hi[:-1], hi[1:])

    def _saturation_bounds(self, p):
        # W = vm (r - p) over a cell [a, b] lies between the products of
        # vm's bounds [lo, hi] there and a - p, b - p.  vm > 0, so W is at
        # most hi (b - p), or lo (b - p) where b < p, and at least
        # hi (a - p), or lo (a - p) where a > p
        r, lo, hi = self._vm_cells
        below, above = r[:-1] - p, r[1:] - p
        top = np.max(np.where(above >= 0.0, hi, lo) * above)
        bottom = np.min(np.where(below <= 0.0, hi, lo) * below)
        return -float(top), -float(bottom)

    @property
    def _a0(self) -> float:
        # Truncation half-width in pre-truncation standard deviations.
        return 1.0 / self.cond.sigma_multiplier

    @cached_property
    def _z_mass(self) -> float:
        return _trunc_mass(self._a0)

    @cached_property
    def support(self) -> Support:
        _, m, eps = self._scan
        hi = float(np.max(m + eps))
        return Support(self.ratio.r_lo, self.ratio.r_hi, hi * (1.0 + 1e-12))

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
        g, m, eps = self._law(rs)
        sig = self.cond.sigma_multiplier * eps
        z = (vm - m) / sig
        in_band = np.abs(vm - m) <= eps
        q = np.exp(-0.5 * z * z) / (sig * _SQRT2PI * self._z_mass)
        out = np.where(inside & in_band, g * q / vms, 0.0)
        return out if out.ndim else float(out)

    def _sample(self, n, rng):
        r = np.asarray(self.ratio.ppf(rng.random(n)))
        a0 = self._a0
        u = rng.random(n)
        t = _special("ndtri", _special("ndtr", -a0) + u * self._z_mass)
        # vm = m + sigma_multiplier * eps * t, in place to bound peak memory
        m, sig = self._law(r)[1:]
        sig *= self.cond.sigma_multiplier
        sig *= t
        vm = np.add(m, sig, out=m)
        return np.column_stack((r * vm, vm))

    def _ratio_marginal(self) -> RatioMarginalSpec:
        return self.ratio

    @cached_property
    def _even_moments(self):
        return _trunc_std_even_moments(self._a0, 16)

    def _moments(self, pairs):
        # one segmented_gl row per pair, split at the knots.  The law is
        # evaluated once per block; each row's integrand is then formed
        # on that row's nodes alone, elementwise, so every row keeps the
        # bits of its own one-row quadrature.integrate call
        tol = 1e-11
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi

        def integrand(nodes, rows):
            g, m, eps = self._law(nodes)
            out = np.empty_like(nodes)
            for row in np.unique(rows).tolist():
                j, n = pairs[row][0], sum(pairs[row])
                line = rows == row
                r, m_r, eps_r = nodes[line], m[line], eps[line]
                cond = np.zeros_like(r)  # E[vm**n | r], vm = m + eps U
                for i in range(0, n + 1, 2):
                    cond = cond + (math.comb(n, i) * m_r ** (n - i)
                                   * eps_r ** i * self._even_moments[i])
                out[line] = g[line] * r ** j * cond
            return out

        values, errors = quadrature.segmented_gl(
            r_lo, r_hi,
            np.broadcast_to(self._knots, (len(pairs), self._knots.size)),
            integrand, tol=tol)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise QuadratureFailure(
                f"integral over [{float(r_lo)!r}, {float(r_hi)!r}] is "
                f"{values[bad[0]]}", achieved=float(errors[bad[0]]),
                requested=tol)
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

    def _quality_profile(self, p, xq):
        p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                    np.asarray(xq, dtype=float))
        # solve_crossings needs psi nondecreasing in the row within a
        # group: sort the rows by price, then by offset (NaN last), solve
        # each price's rows as one group and scatter the rows back; rows
        # are independent, so each keeps its bits
        order = np.lexsort((xq, p))
        p, xq = p[order], xq[order]
        n = xq.size
        starts = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        r_lo, r_hi = self.ratio.r_lo, self.ratio.r_hi

        def edge_cross(sign):
            def psi(r, rows):
                m, eps = self._law(r)[1:]
                return (m + sign * eps) * (r - p[rows]) + xq[rows]
            return psi

        roots_hi = quadrature.solve_crossings(edge_cross(+1.0), r_lo, r_hi,
                                              n, starts)
        roots_lo = quadrature.solve_crossings(edge_cross(-1.0), r_lo, r_hi,
                                              n, starts)
        fixed = np.clip(p, r_lo, r_hi)[:, None]
        breaks = np.concatenate(
            (roots_hi, roots_lo, fixed,
             np.broadcast_to(self._knots, (n, self._knots.size))), axis=1)
        a0 = self._a0
        z_mass = self._z_mass
        # below a0 = 2, Phi(a0) - Phi(z) cancels; erf differences, as in
        # _trunc_mass, keep the conditional probabilities accurate
        wide = a0 < 2.0
        cap = (_special("erf", a0 * _SQRT_HALF) if wide
               else _special("ndtr", a0))

        def integrand(nodes, rows):
            g, m, sig = self._law(nodes)
            sig *= self.cond.sigma_multiplier
            # c reuses the nodes, and m, sig, z go before s is formed,
            # which bounds the node-sized arrays alive at once
            c = np.subtract(nodes, p[rows][:, None], out=nodes)
            x = xq[rows][:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = -x / np.where(c != 0.0, c, 1.0)
                z -= m
                z /= sig
                np.clip(z, -a0, a0, out=z)
            if wide:
                z *= _SQRT_HALF
                phi = _special("erf", z)
                above, below = 0.5 * (cap - phi), 0.5 * (phi + cap)
            else:
                phi = _special("ndtr", z)
                above, below = cap - phi, phi - (1.0 - cap)
            del m, sig, z, phi
            above /= z_mass
            below /= z_mass
            s = np.where(c > 0.0, above,
                         np.where(c < 0.0, below, (x >= 0.0).astype(float)))
            s *= g
            return s

        with _renumbered(order):
            values, errors = quadrature.segmented_gl(r_lo, r_hi, breaks,
                                                     integrand,
                                                     tol=SURFACE_TOL)
        out = np.empty((2, n))
        out[:, order] = values, errors
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
        out = 0.0
        for w, pop in self.components:
            out = out + w * np.asarray(pop._density(vk, vm))
        return out if np.ndim(out) else float(out)

    def _sample(self, n, rng):
        weights = np.array([w for w, _ in self.components])
        idx = rng.choice(len(self.components), size=n, p=weights)
        out = np.empty((n, 2))
        for i, (_, pop) in enumerate(self.components):
            mask = idx == i
            cnt = int(mask.sum())
            if cnt:
                out[mask] = pop._sample(cnt, rng)
        return out

    @cached_property
    def _mixture_ratio_spec(self) -> RatioMarginalSpec:
        specs = [(w, pop._ratio_marginal()) for w, pop in self.components]
        atoms: list = []
        for w, spec in specs:
            atoms.extend((pos, w * mass) for pos, mass in spec.atoms)
        cont = 1.0 - sum(m for _, m in atoms)
        sup = self.support
        if cont <= 1e-12:
            if len(atoms) == 1:
                return RatioMarginalSpec.degenerate(atoms[0][0], sup.vm_hi)
            zero = np.zeros(2)
            table = PwLinearTable(np.array([sup.r_lo, sup.r_hi]), zero, 0.0)
            return RatioMarginalSpec("tabulated", sup, table=table,
                                     atoms=tuple(atoms))
        r = np.linspace(sup.r_lo, sup.r_hi, TABLE_GRID_DEFAULT)
        g = np.zeros_like(r)
        for w, spec in specs:
            if spec.kind != "degenerate":
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
        return sum(w * pop._mean_vm() for w, pop in self.components)

    def _band_vm_moments(self, ra, rb):
        return self._blend("_band_vm_moments", ra, rb)

    def _blend(self, method: str, *args):
        # each half of a pair-valued hook is the weighted sum of the
        # components' halves, in component order; an error estimate
        # weighs in like its values
        first, second = 0.0, 0.0
        for w, pop in self.components:
            a, b = getattr(pop, method)(*args)
            first = first + w * a
            second = second + w * b
        return first, second

    def _quality_profile(self, p, xq):
        return self._blend("_quality_profile", p, xq)

    def _quality_surface(self, prices, xq):
        # each component skips the rows its own bounds saturate, and a
        # column's estimate is the weighted sum of the components' worst
        return self._blend("_quality_surface", prices, xq)

    def _demand_profile(self, prices):
        # exact component blend; the tabulated marginal smears component
        # edges over one grid cell and is kept for export only
        out = 0.0
        for w, pop in self.components:
            out = out + w * pop._demand_profile(prices)
        return np.clip(out, 0.0, 1.0)

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
    """Draw n consumers as an (n, 2) array of (vk, vm) rows."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    rng = np.random.default_rng(seed)
    return pop._sample(int(n), rng)


def ratio_marginal(pop: Population) -> RatioMarginalSpec:
    """Marginal law of the ratio vk / vm (degenerate forms give atoms)."""
    return pop._ratio_marginal()


def moments(pop: Population, max_order: int) -> MomentTable:
    """Cross moments E[vk**j vm**k] for all j + k <= max_order."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    pairs = [(j, n - j) for n in range(max_order + 1) for j in range(n + 1)]
    values, diags = pop._moments(pairs)
    return MomentTable(max_order,
                       {pair: float(v) for pair, v in zip(pairs, values)},
                       {pair: float(d) for pair, d in zip(pairs, diags)})

"""One-dimensional laws, ``MarginalSpec``: the vk and vm marginals of a
population, the continuous part of its ratio law r = vk / vm, and the
truncated normal U of a ratio-conditional vm = m(r) + eps(r) U, which
takes Phi differences when cut at a0 >= 2 deviations, else erf ones.

A beta law whose shapes a and b are integers with a + b at most
``INT_SHAPE_MAX`` takes its cdf and pdf in closed form on the calling
thread: I_t(a, b) = t^a sum_{k<b} C(a+k-1, k) (1-t)^k by Horner in
1 - t, and (a+b-1) C(a+b-2, a-1) t^(a-1) (1-t)^(b-1) for the density,
whose powers are taken by squaring.  Both are products and sums only,
never ``np.power``, so each element's bits do not depend on how its
array is split.  Such a law's cdf and pdf load no scipy; its ppf, and
every other shape's cdf and pdf, go through ``betaincinv``, ``betainc``
and ``betaln``.  Between its knots the density of a uniform law, or of
a beta law with these closed forms, is a polynomial whose degree
``MarginalSpec.degree`` reports, so quadrature can take an exact
fixed rule.

Every ``scipy.special`` call in the package goes through ``_special``.
It imports ``scipy.special`` on its first call, so a command that needs
no special function never loads scipy.

One rule, ``blocks``, splits work across CPUs: a job on fewer than
``SPLIT_MIN`` elements is one call on the calling thread, and a larger
one is cut into blocks of ``CHUNK`` that ``workers.run`` spreads over
the CPUs of the process's affinity mask (restrict it with ``taskset``;
there is no other setting), on helper threads that each run starts and
joins.  Two kinds of work take it: a special function on an array
(``_special``), and ``MarginalSpec.ppf`` on an array, which maps each
block into its output, so a draw of n values holds the n results and
one block's temporaries per CPU.  A special function inside a block
runs inline.  Quadrature passes run on the calling thread in blocks of
fewer than ``SPLIT_MIN`` nodes, so a call inside an integrand is never
split.  Each element's value does not depend on the split, so seeded
samples, curves and surfaces are bit-identical whatever the CPU count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import quadrature, workers
from .errors import NoDensity, SpecialFunctionFailure

# Below this many elements a job runs as one call; above it, workers.run
# takes CHUNK elements per item (see ``blocks``).
SPLIT_MIN = 2 ** 16
CHUNK = 2 ** 14
# Integer beta shapes with alpha + beta at most this take the closed-form
# cdf and pdf; every other shape takes betainc and betaln.  The cap bounds
# the passes over each array: a + b - 1 Horner steps for the cdf.
INT_SHAPE_MAX = 32
_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def blocks(fn, size: int) -> None:
    """Call ``fn(part)`` for slices ``part`` that tile range(size): one
    slice on the calling thread below ``SPLIT_MIN``, else ``CHUNK``
    elements per ``workers.run`` item.  The blocks must write disjoint
    outputs, each element's from its own inputs alone, so the result
    does not depend on the split."""
    if size < SPLIT_MIN:
        fn(slice(0, size))
        return
    workers.run(lambda i: fn(slice(i * CHUNK, (i + 1) * CHUNK)),
                -(-size // CHUNK))


def _special(name: str, *args):
    """``scipy.special.<name>(*args)``, sliced across CPUs when large.

    Raises ``SpecialFunctionFailure`` when an element whose arguments
    are not NaN comes back NaN.
    """
    import scipy.special
    fn = getattr(scipy.special, name)
    arrays = [np.asarray(a) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    # Only float64 scalars and full-shape arrays are sliced, so the
    # output dtype and every element's arguments match the direct call.
    if shape and all(a.dtype == np.float64 and a.shape in ((), shape)
                     for a in arrays):
        out = np.empty(shape)
        flat = [a.reshape(-1) if a.ndim else a for a in arrays]
        flat_out = out.reshape(-1)

        def block(part):
            fn(*(a if a.ndim == 0 else a[part] for a in flat),
               out=flat_out[part])

        blocks(block, out.size)
    else:
        out = fn(*args)
    bad = np.isnan(out)
    if np.any(bad):
        for a in arrays:
            bad &= ~np.isnan(a)
        if np.any(bad):
            at = np.unravel_index(np.argmax(bad), shape)
            values = ", ".join(f"{np.broadcast_to(a, shape)[at]:.6g}"
                               for a in arrays)
            raise SpecialFunctionFailure(
                f"scipy.special.{name}({values}) returned NaN")
    return out


@dataclass(frozen=True, eq=False)
class PwLinearTable:
    """A piecewise-linear tabulated function on a sorted knot grid.

    Doubles as a density (``density`` classmethod validates that the raw
    values integrate to ``total`` within ``tol`` and rescales exactly)
    and as a plain positive function (``raw`` classmethod, no
    normalization).  All integrals against the table are exact for the
    interpolant.
    """

    x: np.ndarray
    y: np.ndarray
    total: float = 1.0

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.size < 2 or x.shape != y.shape:
            raise ValueError("table needs matching 1-d arrays, >= 2 knots")
        if not np.all(np.diff(x) > 0.0):
            raise ValueError("table knots must be strictly increasing")
        if np.any(y < 0.0) or not np.all(np.isfinite(y)):
            raise ValueError("table values must be finite and >= 0")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @classmethod
    def density(cls, x, y, *, total: float = 1.0, tol: float = 1e-8):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        raw = float(np.trapezoid(y, x))
        if abs(raw - total) > tol * max(abs(total), 1.0):
            raise ValueError(
                f"tabulated density integrates to {raw:.12g}, "
                f"expected {total:.12g} within {tol:g}")
        if raw <= 0.0:
            raise ValueError("tabulated density has zero mass")
        return cls(x, y * (total / raw), total)

    @classmethod
    def raw(cls, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(x, y, float(np.trapezoid(y, x)))

    @cached_property
    def _cum(self) -> np.ndarray:
        seg = 0.5 * (self.y[:-1] + self.y[1:]) * np.diff(self.x)
        return np.concatenate(([0.0], np.cumsum(seg)))

    def value_at(self, v):
        return np.interp(v, self.x, self.y, left=0.0, right=0.0)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        idx = np.clip(np.searchsorted(self.x, v, side="right") - 1,
                      0, self.x.size - 2)
        x0, x1 = self.x[idx], self.x[idx + 1]
        y0, y1 = self.y[idx], self.y[idx + 1]
        t = np.clip(v - x0, 0.0, x1 - x0)
        slope = (y1 - y0) / (x1 - x0)
        # the top segment's formula can round past the trapezoid total
        # that the top knot returns, so it is clamped to that total
        out = np.minimum(self._cum[idx] + y0 * t + 0.5 * slope * t * t,
                         self._cum[-1])
        out = np.where(v <= self.x[0], 0.0, out)
        out = np.where(v >= self.x[-1], self._cum[-1], out)
        return out if out.ndim else float(out)

    def ppf(self, q):
        """Inverse of ``cdf`` for targets in [0, total]."""
        q = np.asarray(q, dtype=float)
        if np.any(q < -1e-12) or np.any(q > self._cum[-1] + 1e-12):
            raise ValueError("ppf target outside [0, total mass]")
        qc = np.clip(q, 0.0, self._cum[-1])
        idx = np.clip(np.searchsorted(self._cum, qc, side="right") - 1,
                      0, self.x.size - 2)
        x0, x1 = self.x[idx], self.x[idx + 1]
        y0, y1 = self.y[idx], self.y[idx + 1]
        dx = x1 - x0
        slope = (y1 - y0) / dx
        # solved from the left end if the segment rises, else from the
        # right with the mass d above q: the step s with y s + |slope| s^2
        # / 2 = d is 2 d / (y + sqrt(y^2 + 2 |slope| d)), cancelling nowhere
        fall = slope < 0.0
        y = np.where(fall, y1, y0)
        d = np.where(fall, self._cum[idx + 1] - qc, qc - self._cum[idx])
        root = y + np.sqrt(y * y + 2.0 * np.abs(slope) * d)  # 0 only at d = 0
        step = np.clip(2.0 * d / np.where(root > 0.0, root, 1.0), 0.0, dx)
        out = np.where(fall, x1 - step, x0 + step)
        return out if out.ndim else float(out)

    def integral_between(self, a: float, b: float) -> float:
        return float(self.cdf(b) - self.cdf(a))

    def moment(self, n: int) -> float:
        """Exact integral of v**n against the table: the Gauss-Legendre
        rule exact for degree n + 1 on every segment."""
        x, w = quadrature._gauss_legendre((n + 3) // 2)
        half = 0.5 * np.diff(self.x)
        mid = 0.5 * (self.x[:-1] + self.x[1:])
        nodes = mid[:, None] + half[:, None] * x[None, :]
        weights = half[:, None] * w[None, :]
        vals = nodes ** n * self.value_at(nodes.ravel()).reshape(nodes.shape)
        return float(np.sum(weights * vals))


def _int_beta_cdf(a: int, b: int, t: np.ndarray) -> np.ndarray:
    """I_t(a, b) = t^a sum_{k<b} C(a+k-1, k) (1-t)^k for t in [0, 1], by
    Horner in 1 - t, then a products by t."""
    u = 1.0 - t
    out = np.full_like(t, float(math.comb(a + b - 2, b - 1)))
    for k in range(b - 2, -1, -1):
        out *= u
        out += math.comb(a + k - 1, k)
    for _ in range(a):
        out *= t
    return out


def _times_power(out, x: np.ndarray, n: int) -> np.ndarray:
    """out * x^n by squaring, for n >= 1, where ``out`` is a scalar or an
    array.  Works in place: x is overwritten, and so is an array ``out``."""
    while True:
        if n & 1:
            if np.ndim(out):
                out *= x
            elif n == 1:  # x is not needed again
                x *= out
                out = x
            else:
                out = x * out
        n >>= 1
        if not n:
            return out
        x *= x


def _int_beta_pdf(a: int, b: int, t: np.ndarray, scale: float) -> np.ndarray:
    """(a+b-1) C(a+b-2, a-1) t^(a-1) (1-t)^(b-1) / scale for t in [0, 1],
    as (t (1-t))^(min(a, b) - 1) times the surplus power of t or 1 - t,
    each power by squaring.  The running product starts from the
    constant, so it never falls below the result, where a normal result
    would lose digits to a subnormal partial product."""
    out = (a + b - 1) * math.comb(a + b - 2, a - 1) / scale
    u = 1.0 - t
    if a == b and a > 1:  # 1 - t is not needed again
        u *= t
        out = _times_power(out, u, a - 1)
    elif min(a, b) > 1:
        out = _times_power(out, t * u, min(a, b) - 1)
    if a != b:
        out = _times_power(out, u if b > a else t.copy(), abs(a - b))
    return out if np.ndim(out) else np.full_like(t, out)


@functools.lru_cache
def _trunc_moments(a0: float, mass: float, n_max: int) -> tuple:
    """E[U^n] in [0, 1], n <= n_max, for U = Z / a0, Z a standard normal
    truncated to [-a0, a0] of ``mass``.  Odd ones vanish.  For a0 >= 2
    u_n = (n - 1) u_{n-2} / a0^2 - 2 phi(a0) / (a0 mass); below, where
    its terms cancel, Kummer's transformation gives the positive series
    E[U^n] = S_n / ((n + 1) S_0), S_n = sum_k (a0^2 / 2)^k / ((n + 3) / 2)_k.
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
    phi = math.exp(-0.5 * a0 * a0) / _SQRT2PI
    for n in range(2, n_max + 1, 2):
        u[n] = (n - 1) * u[n - 2] / (a0 * a0) - 2.0 * phi / (a0 * mass)
    return tuple(u)


# Product of (alpha + i) / (alpha + beta + i), i.e. the raw moments of a
# standard Beta(alpha, beta) variate.
def _beta_raw_moment(alpha: float, beta: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= (alpha + i) / (alpha + beta + i)
    return out


@dataclass(frozen=True, eq=False)
class MarginalSpec:
    """Descriptor for a one-dimensional law.

    Kinds: ``point_mass`` (single atom), ``uniform``, ``beta`` (shape
    ``alpha, beta`` rescaled to [lo, hi]), ``tabulated`` (piecewise-
    linear density, whose mass is its table's ``total``; ``triangular``
    builds the symmetric triangular law as one, which scenario files
    offer for ratio laws only) and ``truncated_normal`` (U = Z / a0 on
    [-1, 1] for Z a standard normal truncated to [-a0, a0], a0 = 1 /
    ``sigma``).  Build instances through the
    classmethods; the raw constructor performs only consistency checks.
    """

    kind: str
    lo: float
    hi: float
    value: float | None = None
    alpha: float | None = None
    beta: float | None = None
    table: PwLinearTable | None = field(default=None, repr=False)
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in ("point_mass", "uniform", "beta", "tabulated",
                             "truncated_normal"):
            raise ValueError(f"unknown marginal kind {self.kind!r}")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError("marginal support must be finite")
        if self.kind == "point_mass":
            if self.value is None:
                raise ValueError("point_mass marginal needs a value")
        elif self.hi <= self.lo:
            raise ValueError("marginal needs lo < hi")
        if self.kind == "beta" and (self.alpha is None or self.beta is None
                                    or not 0.0 < self.alpha < math.inf
                                    or not 0.0 < self.beta < math.inf):
            raise ValueError(
                "beta marginal needs positive, finite shape parameters")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated marginal needs a table")
        if self.kind == "truncated_normal" and not (
                (self.lo, self.hi) == (-1.0, 1.0)
                and 0.0 < (self.sigma or 0.0) < math.inf):
            raise ValueError("truncated normal lies on [-1, 1] and needs a "
                             "positive, finite sigma")

    @classmethod
    def point_mass(cls, value: float):
        return cls("point_mass", float(value), float(value), value=float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float):
        return cls("uniform", float(lo), float(hi))

    @classmethod
    def triangular(cls, lo: float, hi: float):
        lo, hi = float(lo), float(hi)  # symmetric, as a 3-knot table
        return cls("tabulated", lo, hi, table=PwLinearTable(
            np.array([lo, 0.5 * (lo + hi), hi]),
            np.array([0.0, 2.0 / (hi - lo), 0.0])))

    @classmethod
    def scaled_beta(cls, alpha: float, beta: float, lo: float, hi: float):
        return cls("beta", float(lo), float(hi),
                   alpha=float(alpha), beta=float(beta))

    @classmethod
    def tabulated(cls, x, y):
        table = PwLinearTable.density(x, y)
        return cls("tabulated", float(table.x[0]), float(table.x[-1]),
                   table=table)

    @classmethod
    def truncated_normal(cls, sigma: float):
        return cls("truncated_normal", -1.0, 1.0, sigma=float(sigma))

    @property
    def is_degenerate(self) -> bool:
        return self.kind == "point_mass"

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def knots(self) -> np.ndarray:
        """The support ends and the kinks of the density between them."""
        return (np.array([self.lo, self.hi]) if self.table is None
                else self.table.x)

    @property
    def end_shape(self) -> float:
        """Smallest s of a density term |v - end|^(s - 1) at a support end
        that is not a polynomial, i.e. a non-integer beta shape; inf for
        every other law."""
        if self.kind != "beta":
            return math.inf
        return min((s for s in (self.alpha, self.beta) if s != round(s)),
                   default=math.inf)

    @property
    def degree(self) -> int | None:
        """Degree of the density as a polynomial on the support: 0 for a
        uniform law, a + b - 2 for a beta law that takes the closed
        forms; None for every other law."""
        if self.kind == "uniform":
            return 0
        if self._int_shapes:
            return sum(self._int_shapes) - 2
        return None

    @cached_property
    def _int_shapes(self) -> tuple[int, int] | None:
        """The shapes as ints when ``cdf`` and ``pdf`` take the closed
        forms: a beta law whose shapes are integers with alpha + beta at
        most ``INT_SHAPE_MAX``; else None."""
        if (self.kind == "beta" and self.alpha + self.beta <= INT_SHAPE_MAX
                and float(self.alpha).is_integer()
                and float(self.beta).is_integer()):
            return int(self.alpha), int(self.beta)
        return None

    @property
    def _a0(self) -> float:  # a truncated normal's cut, in deviations
        return 1.0 / self.sigma

    @cached_property
    def _shift(self) -> float:  # erf(a0 / sqrt 2), or Phi(-a0) from a0 = 2
        a0 = self._a0
        return (_special("erf", a0 * _SQRT_HALF) if a0 < 2.0
                else _special("ndtr", -a0))

    @cached_property
    def _mass(self) -> float:  # 2 Phi(a0) - 1, which cancels below a0 = 2
        a0 = self._a0
        return (math.erf(a0 / math.sqrt(2.0)) if a0 < 2.0
                else float(2.0 * _special("ndtr", a0) - 1.0))

    def moment(self, n: int) -> float:
        if n == 0:
            return 1.0
        if self.kind == "truncated_normal":
            # one cached table holds every order a moment table reads
            return _trunc_moments(self._a0, self._mass, max(n, 16))[n]
        if self.kind == "point_mass":
            return float(self.value) ** n
        if self.kind == "uniform":
            # (hi^(n+1) - lo^(n+1)) / ((n+1)(hi - lo)) with no power above
            # n, which would overflow first
            return sum(self.hi ** i * self.lo ** (n - i)
                       for i in range(n + 1)) / (n + 1)
        if self.kind == "beta":
            scale = self.hi - self.lo
            out = 0.0
            for i in range(n + 1):
                out += (math.comb(n, i) * self.lo ** (n - i) * scale ** i
                        * _beta_raw_moment(self.alpha, self.beta, i))
            return out
        return self.table.moment(n)

    def pdf(self, v):
        if self.kind == "point_mass":
            raise NoDensity("point-mass marginal has no density")
        v = np.asarray(v, dtype=float)
        if self.kind == "uniform":
            inside = (v >= self.lo) & (v <= self.hi)
            out = np.where(inside, 1.0 / (self.hi - self.lo), 0.0)
        elif self.kind == "beta":
            scale = self.hi - self.lo
            t = (v - self.lo) / scale
            inside = (t >= 0.0) & (t <= 1.0)
            if self._int_shapes:
                out = _int_beta_pdf(*self._int_shapes, np.clip(t, 0.0, 1.0),
                                    scale)
            else:
                # the density on [0, 1], then over the scale: a power-of-
                # two rescaling of the support moves no bit
                ts = np.clip(t, 1e-300, 1.0 - 1e-16)
                out = np.exp((self.alpha - 1.0) * np.log(ts)
                             + (self.beta - 1.0) * np.log1p(-ts)
                             - _special("betaln", self.alpha,
                                        self.beta)) / scale
            out = np.where(inside, out, 0.0)
        elif self.kind == "truncated_normal":
            z = np.clip(v, -1.0, 1.0) * self._a0
            out = np.where(np.abs(v) <= 1.0, np.exp(-0.5 * z * z) / (
                self.sigma * _SQRT2PI * self._mass), 0.0)
        else:
            out = self.table.value_at(v)
        return out if out.ndim else float(out)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "point_mass":
            out = np.where(np.isnan(v), np.nan, v >= self.value)
        elif self.kind == "uniform":
            out = np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        elif self.kind == "beta":
            t = np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)
            out = (_int_beta_cdf(*self._int_shapes, t) if self._int_shapes
                   else _special("betainc", self.alpha, self.beta, t))
        elif self.kind == "truncated_normal":
            z = np.clip(v, -1.0, 1.0)
            z *= self._a0
            if self._a0 < 2.0:  # Phi(z) - Phi(-a0) cancels
                z *= _SQRT_HALF
                out = _special("erf", z)
                out += self._shift
                out *= 0.5 / self._mass
            else:
                out = _special("ndtr", z)
                out -= self._shift
                out /= self._mass
        else:
            out = np.asarray(self.table.cdf(v))
        return out if out.ndim else float(out)

    def ppf(self, q, out=None):
        """The quantiles at q.  An array is mapped by ``blocks`` into
        ``out``, a new array unless given: a C-contiguous float array of
        q's shape, which may be q itself."""
        q = np.asarray(q, dtype=float)
        if not q.ndim:
            return float(self._quantiles(q))
        if out is None:
            out = np.empty(q.shape)
        flat_q, flat_out = q.reshape(-1), out.reshape(-1)

        def block(part):
            flat_out[part] = self._quantiles(flat_q[part])

        blocks(block, q.size)
        return out

    def _quantiles(self, q: np.ndarray) -> np.ndarray:
        if self.kind == "point_mass":
            out = np.full_like(q, self.value)
        elif self.kind == "uniform":
            out = self.lo + (self.hi - self.lo) * q
        elif self.kind == "beta":
            out = self.lo + (self.hi - self.lo) * _special(
                "betaincinv", self.alpha, self.beta, np.clip(q, 0.0, 1.0))
        elif self.kind == "truncated_normal":
            a0 = self._a0
            if a0 < 2.0:  # Phi(-a0) + q mass cancels
                out = _special("erfinv", (2.0 * q - 1.0) * self._mass)
                out *= math.sqrt(2.0)
            else:
                out = _special("ndtri", self._shift + q * self._mass)
            out = np.asarray(out)
            out /= a0
            np.clip(out, -1.0, 1.0, out=out)  # a rounded end stays on [-1, 1]
        else:
            out = self.table.ppf(q)
        return out

    def sample(self, n: int, rng: np.random.Generator,
               out=None) -> np.ndarray:
        """n draws, the ppf of n uniforms that ``rng`` draws in one call
        (none for a point mass) and ``ppf`` maps in place, into ``out``
        (a C-contiguous float array of n elements) when given."""
        out = np.empty(n) if out is None else out
        if self.kind == "point_mass":
            out.fill(self.value)
        else:
            self.ppf(rng.random(out=out), out=out)
        return out

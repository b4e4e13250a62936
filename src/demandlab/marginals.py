"""One-dimensional value distributions used as population building blocks.

A beta law whose shapes a and b are integers with a + b at most
``INT_SHAPE_MAX`` takes its cdf and pdf in closed form on the calling
thread: I_t(a, b) = t^a sum_{k<b} C(a+k-1, k) (1-t)^k by Horner in
1 - t, and (a+b-1) C(a+b-2, a-1) t^(a-1) (1-t)^(b-1) for the density.
Powers are repeated products, never ``np.power``, so each element's bits
do not depend on how its array is split.  Such a law's cdf and pdf load
no scipy; its ppf, and every other shape's cdf and pdf, go through
``betaincinv``, ``betainc`` and ``betaln``.

Every ``scipy.special`` call in the package goes through ``_special``.
It imports ``scipy.special`` on its first call, so a command that needs
no special function never loads scipy.  Arrays of at least ``SPLIT_MIN``
elements are cut into chunks of ``CHUNK`` that ``workers.run`` spreads
over the CPUs of the process's affinity mask (restrict it with
``taskset``; there is no other setting), as it spreads the blocks of
each quadrature pass.  A call inside such a block runs its chunks on
the block's thread.  Each element's value does not depend on the split,
so seeded samples, curves and surfaces are bit-identical whatever the
CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import workers
from .errors import NoDensity, SpecialFunctionFailure

# Below this many elements a special function runs as one call; above
# it, workers.run takes CHUNK elements per item.
SPLIT_MIN = 2 ** 16
CHUNK = 2 ** 14
# Integer beta shapes with alpha + beta at most this take the closed-form
# cdf and pdf; every other shape takes betainc and betaln.  The cap bounds
# the passes over each array: a + b - 2 products for the pdf.
INT_SHAPE_MAX = 32


def _special(name: str, *args):
    """``scipy.special.<name>(*args)``, sliced across CPUs when large.

    Raises ``SpecialFunctionFailure`` when an element whose arguments
    are not NaN comes back NaN.
    """
    import scipy.special
    fn = getattr(scipy.special, name)
    arrays = [np.asarray(a) for a in args]
    shape = np.broadcast_shapes(*(a.shape for a in arrays))
    size = math.prod(shape)
    # Only float64 scalars and full-shape arrays are sliced, so the
    # output dtype and every element's arguments match the direct call.
    if size >= SPLIT_MIN and all(a.dtype == np.float64
                                 and a.shape in ((), shape) for a in arrays):
        out = np.empty(shape)
        flat = [a.reshape(-1) if a.ndim else a for a in arrays]
        flat_out = out.reshape(-1)

        def chunk(i):
            part = slice(i * CHUNK, (i + 1) * CHUNK)
            fn(*(a if a.ndim == 0 else a[part] for a in flat),
               out=flat_out[part])

        workers.run(chunk, -(-size // CHUNK))
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
        out = self._cum[idx] + y0 * t + 0.5 * slope * t * t
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
        d = qc - self._cum[idx]
        slope = (y1 - y0) / dx
        disc = np.maximum(y0 * y0 + 2.0 * slope * d, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lin = d / np.where(y0 > 0.0, y0, 1.0)
            t_quad = (np.sqrt(disc) - y0) / np.where(slope != 0.0, slope, 1.0)
        t = np.where(np.abs(slope) * dx < 1e-14 * (y0 + 1e-300), t_lin, t_quad)
        t = np.where(y0 + np.abs(slope) * dx <= 0.0, 0.0, t)
        out = x0 + np.clip(t, 0.0, dx)
        return out if out.ndim else float(out)

    def integral_between(self, a: float, b: float) -> float:
        return float(self.cdf(b) - self.cdf(a))

    def moment(self, n: int) -> float:
        """Exact integral of v**n against the table."""
        order = max(1, (n + 2 + 1) // 2)
        x, w = np.polynomial.legendre.leggauss(order)
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


def _int_beta_pdf(a: int, b: int, t: np.ndarray, scale: float) -> np.ndarray:
    """(a+b-1) C(a+b-2, a-1) t^(a-1) (1-t)^(b-1) / scale for t in [0, 1]."""
    u = 1.0 - t
    out = np.full_like(t, (a + b - 1) * math.comb(a + b - 2, a - 1) / scale)
    for _ in range(a - 1):
        out *= t
    for _ in range(b - 1):
        out *= u
    return out


# Product of (alpha + i) / (alpha + beta + i), i.e. the raw moments of a
# standard Beta(alpha, beta) variate.
def _beta_raw_moment(alpha: float, beta: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= (alpha + i) / (alpha + beta + i)
    return out


@dataclass(frozen=True, eq=False)
class MarginalSpec:
    """Descriptor for a one-dimensional value marginal.

    Kinds: ``point_mass`` (single atom), ``uniform``, ``beta`` (shape
    ``alpha, beta`` rescaled to [lo, hi]) and ``tabulated``
    (piecewise-linear density).  Build instances through the
    classmethods; the raw constructor performs only consistency checks.
    """

    kind: str
    lo: float
    hi: float
    value: float | None = None
    alpha: float | None = None
    beta: float | None = None
    table: PwLinearTable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("point_mass", "uniform", "beta", "tabulated"):
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

    @classmethod
    def point_mass(cls, value: float):
        return cls("point_mass", float(value), float(value), value=float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float):
        return cls("uniform", float(lo), float(hi))

    @classmethod
    def scaled_beta(cls, alpha: float, beta: float, lo: float, hi: float):
        return cls("beta", float(lo), float(hi),
                   alpha=float(alpha), beta=float(beta))

    @classmethod
    def tabulated(cls, x, y):
        table = PwLinearTable.density(x, y)
        return cls("tabulated", float(table.x[0]), float(table.x[-1]),
                   table=table)

    @property
    def is_degenerate(self) -> bool:
        return self.kind == "point_mass"

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def end_shape(self) -> float:
        """Smallest s of a density term |v - end|^(s - 1) at a support end
        that is not a polynomial, i.e. a non-integer beta shape; inf for
        every other law."""
        if self.kind != "beta":
            return math.inf
        return min((s for s in (self.alpha, self.beta) if s != round(s)),
                   default=math.inf)

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

    def moment(self, n: int) -> float:
        if n == 0:
            return 1.0
        if self.kind == "point_mass":
            return float(self.value) ** n
        if self.kind == "uniform":
            return float((self.hi ** (n + 1) - self.lo ** (n + 1))
                         / ((n + 1) * (self.hi - self.lo)))
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
                ts = np.clip(t, 1e-300, 1.0 - 1e-16)
                out = np.exp((self.alpha - 1.0) * np.log(ts)
                             + (self.beta - 1.0) * np.log1p(-ts)
                             - _special("betaln", self.alpha, self.beta)
                             - np.log(scale))
            out = np.where(inside, out, 0.0)
        else:
            out = self.table.value_at(v)
        return out if out.ndim else float(out)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        if self.kind == "point_mass":
            out = np.where(v >= self.value, 1.0, 0.0)
        elif self.kind == "uniform":
            out = np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        elif self.kind == "beta":
            t = np.clip((v - self.lo) / (self.hi - self.lo), 0.0, 1.0)
            out = (_int_beta_cdf(*self._int_shapes, t) if self._int_shapes
                   else _special("betainc", self.alpha, self.beta, t))
        else:
            out = np.asarray(self.table.cdf(v))
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "point_mass":
            out = np.full_like(q, self.value)
        elif self.kind == "uniform":
            out = self.lo + (self.hi - self.lo) * q
        elif self.kind == "beta":
            out = self.lo + (self.hi - self.lo) * _special(
                "betaincinv", self.alpha, self.beta, np.clip(q, 0.0, 1.0))
        else:
            out = np.asarray(self.table.ppf(q))
        return out if out.ndim else float(out)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "point_mass":
            return np.full(n, float(self.value))
        return np.asarray(self.ppf(rng.random(n)), dtype=float)

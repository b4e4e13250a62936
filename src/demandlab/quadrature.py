"""Adaptive Gauss-Legendre quadrature and vectorized panel rules.

Integrands must be vectorized: they receive an ndarray of abscissae and
return an ndarray of the same shape.  ``integrate`` controls absolute
error by comparing a 7-point and a 15-point Gauss-Legendre rule on each
interval and bisecting intervals that miss their share of the budget.
After ``max_levels`` bisections an interval that still misses its budget
raises :class:`QuadratureFailure`.

The column helpers at the bottom (``solve_crossings``,
``segmented_gl``) integrate a family of integrands that differ only
through a row parameter, splitting each row's interval at known or
numerically located kinks so that plain Gauss-Legendre panels see smooth
pieces.  They are the workhorses behind quality-demand surfaces.
``solve_crossings`` takes a row-indexed ``psi(r, rows)``, so the part
shared by all rows is evaluated once on the coarse grid, and it bisects
only the cells where that grid brackets a root.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure


@lru_cache(maxsize=None)
def _rule(order: int):
    return np.polynomial.legendre.leggauss(order)


_X7, _W7 = _rule(7)
_X15, _W15 = _rule(15)

# solve_crossings: coarse scan points, bisection steps per bracketed
# cell, and roots allowed per row.
COARSE = 513
BISECTIONS = 64
MAX_ROOTS = 4


def integrate(f, a: float, b: float, *, tol: float = 1e-8,
              max_levels: int = 20, breakpoints=()) -> float:
    """Adaptively integrate a vectorized integrand on a finite interval.

    ``breakpoints`` lists abscissae where the integrand is known to be
    non-smooth; the interval is pre-split there so panels only ever see
    smooth pieces.  The error budget is absolute and divided across
    segments in proportion to their length.
    """
    if b == a:
        return 0.0
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    cuts = [a] + sorted({float(p) for p in breakpoints if a < p < b}) + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += _adaptive(f, lo, hi, tol * (hi - lo) / (b - a), max_levels)
    return total


def _adaptive(f, a: float, b: float, tol: float, max_levels: int) -> float:
    acc = 0.0
    stack = [(a, b, tol, 0)]
    while stack:
        lo, hi, budget, level = stack.pop()
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        xs = np.concatenate((mid + half * _X7, mid + half * _X15))
        ys = np.asarray(f(xs), dtype=float)
        coarse = half * float(np.dot(_W7, ys[:7]))
        fine = half * float(np.dot(_W15, ys[7:]))
        err = abs(fine - coarse)
        # Roundoff floor: below ~1e2 ulps of the local magnitude further
        # bisection cannot help.
        floor = 128.0 * np.finfo(float).eps * (abs(fine) + 1e-30)
        if err <= max(budget, floor):
            acc += fine
        elif level >= max_levels:
            raise QuadratureFailure(
                f"interval [{lo:g}, {hi:g}] missed tolerance after "
                f"{max_levels} bisections (err {err:.3e} > {budget:.3e})",
                achieved=err, requested=budget)
        else:
            stack.append((lo, mid, budget / 2.0, level + 1))
            stack.append((mid, hi, budget / 2.0, level + 1))
    return acc


def integrate2d(f, x_lo: float, x_hi: float, y_lo, y_hi, *,
                tol: float = 1e-8, max_levels: int = 20) -> float:
    """Nested adaptive integral of f(x, y) over a y-slice-described region.

    ``y_lo`` / ``y_hi`` are floats or callables of x.  ``f`` must accept a
    scalar x and an ndarray of y values.  Used mostly as an independent
    cross-check route; the production paths use the column helpers.
    """
    lo_fn = y_lo if callable(y_lo) else (lambda _x: y_lo)
    hi_fn = y_hi if callable(y_hi) else (lambda _x: y_hi)
    inner_tol = tol / max(x_hi - x_lo, 1.0) / 8.0

    def outer(xs):
        out = np.empty_like(xs, dtype=float)
        for i, x in enumerate(xs):
            lo, hi = lo_fn(x), hi_fn(x)
            if hi <= lo:
                out[i] = 0.0
            else:
                out[i] = integrate(lambda y: f(x, y), lo, hi,
                                   tol=inner_tol, max_levels=max_levels)
        return out

    return integrate(outer, x_lo, x_hi, tol=tol, max_levels=max_levels)


def solve_crossings(psi, lo: float, hi: float, n_rows: int) -> np.ndarray:
    """Locate sign changes of a row-indexed function by bisection.

    ``psi(r, rows)`` evaluates rows ``rows`` at abscissae ``r`` and
    returns values of their broadcast shape, so a part shared by all
    rows is computed once per abscissa.  Each row is an independent
    one-dimensional root problem (the row index selects, e.g., one
    quality offset).  A coarse scan of ``COARSE`` points brackets the
    sign flips, and only the bracketing cells are bisected,
    ``BISECTIONS`` times each.  Returns an (n_rows, MAX_ROOTS) matrix of
    each row's roots in ascending order, padded with ``hi``; a row with
    more than ``MAX_ROOTS`` flips raises :class:`QuadratureFailure`.
    Roots are only located where the coarse scan sees a sign flip,
    which is adequate for the piecewise-monotone crossing functions
    used here.
    """
    grid = np.linspace(lo, hi, COARSE)
    vals = psi(grid[None, :], np.arange(n_rows)[:, None])
    sgn = np.where(vals >= 0.0, 1.0, -1.0)
    rows, cells = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0.0)
    # nonzero walks row by row, so a root's slot is its rank in its row
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    if np.any(slot >= MAX_ROOTS):
        raise QuadratureFailure(
            f"more than {MAX_ROOTS} kinks per row in column integrand")
    a, b, fa = grid[cells], grid[cells + 1], vals[rows, cells]
    for _ in range(BISECTIONS):
        m = 0.5 * (a + b)
        fm = psi(m, rows)
        left = fa * fm <= 0.0
        a, b, fa = (np.where(left, a, m), np.where(left, m, b),
                    np.where(left, fa, fm))
    roots = np.full((n_rows, MAX_ROOTS), float(hi))
    roots[rows, slot] = 0.5 * (a + b)
    return roots


def segmented_gl(lo: float, hi: float, breaks: np.ndarray, *,
                 order: int = 16, panels: int = 3):
    """Per-row composite Gauss-Legendre nodes split at per-row breaks.

    ``breaks`` is (n_rows, k); entries outside (lo, hi) are clipped to the
    nearest endpoint, which yields zero-width panels with zero weight.
    Returns node and weight matrices of shape (n_rows, n_nodes).
    """
    n_rows = breaks.shape[0]
    clipped = np.clip(breaks, lo, hi)
    edges = np.concatenate(
        (np.full((n_rows, 1), float(lo)), np.sort(clipped, axis=1),
         np.full((n_rows, 1), float(hi))), axis=1)
    x, w = _rule(order)
    seg_lo = edges[:, :-1]
    seg_len = np.diff(edges, axis=1)
    # Subdivide each segment into `panels` uniform panels.
    offs = (np.arange(panels) / panels)[None, None, :]
    p_lo = seg_lo[:, :, None] + seg_len[:, :, None] * offs
    p_half = seg_len[:, :, None] / (2.0 * panels)
    mid = p_lo + p_half
    nodes = mid[..., None] + p_half[..., None] * x
    weights = np.broadcast_to(p_half[..., None], nodes.shape) * w
    return nodes.reshape(n_rows, -1), weights.reshape(n_rows, -1)

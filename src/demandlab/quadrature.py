"""Adaptive Gauss-Legendre quadrature and vectorized panel rules.

Integrands must be vectorized: they receive an ndarray of abscissae and
return an ndarray of the same shape.  ``integrate`` controls absolute
error by comparing a 7-point and a 15-point Gauss-Legendre rule on each
interval and bisecting intervals that miss their share of the budget.
After ``MAX_LEVELS`` bisections an interval that still misses its budget
raises :class:`QuadratureFailure`.

The column helpers at the bottom (``solve_crossings``,
``segmented_gl``) integrate a family of integrands that differ only
through a row parameter, splitting each row's interval at known or
numerically located kinks so that plain Gauss-Legendre panels see smooth
pieces.  They are the workhorses behind quality-demand surfaces.
``solve_crossings`` takes a row-indexed ``psi(r, rows)`` that is
nondecreasing in the row index; it binary-searches the rows at each
coarse scan point instead of evaluating them all, and bisects only the
cells where the scan brackets a root.  ``segmented_gl`` emits no panel
for a zero-width segment, so each row's sum keeps its bits while the
node count follows the row with the most positive-width segments.
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

# integrate: bisections of one interval before it fails.
MAX_LEVELS = 20
# solve_crossings: coarse scan points and bisection steps per bracketed
# cell.
COARSE = 513
BISECTIONS = 64


def integrate(f, a: float, b: float, *, tol: float, breakpoints=()) -> float:
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
        total += _adaptive(f, lo, hi, tol * (hi - lo) / (b - a))
    return total


def _adaptive(f, a: float, b: float, tol: float) -> float:
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
        elif level >= MAX_LEVELS:
            raise QuadratureFailure(
                f"interval [{float(lo)!r}, {float(hi)!r}] missed tolerance "
                f"after {MAX_LEVELS} bisections "
                f"(err {err:.3e} > {budget:.3e})",
                achieved=err, requested=budget)
        else:
            stack.append((lo, mid, budget / 2.0, level + 1))
            stack.append((mid, hi, budget / 2.0, level + 1))
    return acc


def solve_crossings(psi, lo: float, hi: float, n_rows: int) -> np.ndarray:
    """Locate sign changes of a row-indexed function by bisection.

    ``psi(r, rows)`` evaluates rows ``rows`` at abscissae ``r`` and
    returns values of their broadcast shape, so a part shared by all
    rows is computed once per abscissa.  Each row is an independent
    one-dimensional root problem (the row index selects, e.g., one
    quality offset).

    Precondition: at every abscissa ``psi`` is nondecreasing in the row
    index, as ``f(r) + c[rows]`` is for sorted ``c`` (``fl(a + x)`` is
    monotone in x, so this holds exactly in floating point); a NaN value
    counts as nonnegative, so rows that give NaN go last.  Then the rows
    with ``psi >= 0`` at a scan point are a suffix, found by binary
    search, and the coarse scan of ``COARSE`` points costs
    ``COARSE * ceil(log2(n_rows + 1))`` evaluations.  The rows between
    the suffix starts of two neighbouring scan points are exactly those
    whose sign flips in that cell; only these (row, cell) pairs are
    bisected, ``BISECTIONS`` times each.

    Returns an (n_rows, k) matrix of each row's roots in ascending
    order, padded with ``hi``, where k is the most roots any row has
    (0 when no row has one).  Roots are only located where the coarse
    scan sees a sign flip, which is adequate for the piecewise-monotone
    crossing functions used here.
    """
    grid = np.linspace(lo, hi, COARSE)
    # binary search at every scan point for split[j], the first row with
    # psi(grid[j], row) >= 0 or NaN (n_rows if none)
    split = np.zeros(COARSE, dtype=np.intp)
    top = np.full(COARSE, n_rows, dtype=np.intp)
    for _ in range(int(n_rows).bit_length()):
        mid = (split + top) // 2
        up = ~(psi(grid, np.minimum(mid, n_rows - 1)) < 0.0)
        open_ = split < top
        top = np.where(open_ & up, mid, top)
        split = np.where(open_ & ~up, mid + 1, split)
    # cell j brackets the rows from the lower of its two splits up to
    # the higher one
    start = np.minimum(split[:-1], split[1:])
    count = np.abs(np.diff(split))
    cells = np.repeat(np.arange(COARSE - 1), count)
    rows = (np.repeat(start - np.cumsum(count) + count, count)
            + np.arange(cells.size))
    order = np.lexsort((cells, rows))
    rows, cells = rows[order], cells[order]
    # pairs are sorted by row, so a root's slot is its rank in its row
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    roots = np.full((n_rows, slot.max(initial=-1) + 1), float(hi))
    if not rows.size:
        return roots
    a, b = grid[cells], grid[cells + 1]
    fa = psi(a, rows)
    for _ in range(BISECTIONS):
        m = 0.5 * (a + b)
        fm = psi(m, rows)
        left = fa * fm <= 0.0
        a, b, fa = (np.where(left, a, m), np.where(left, m, b),
                    np.where(left, fa, fm))
    roots[rows, slot] = 0.5 * (a + b)
    return roots


def segmented_gl(lo: float, hi: float, breaks: np.ndarray, *,
                 order: int = 16, panels: int = 3):
    """Per-row composite Gauss-Legendre nodes split at per-row breaks.

    ``breaks`` is (n_rows, k); entries outside (lo, hi) are clipped to the
    nearest endpoint.  Each row's positive-width segments are moved to
    the front in their order, and zero-width ones, whose panels would
    carry weight 0, are dropped, so the node count is set by the row with
    the most positive-width segments.  A shorter row is padded with its
    own zero-width segments, which keep weight 0; a row sum in node order
    is therefore the one the full-width rule gives.  Returns node and
    weight matrices of shape (n_rows, n_nodes).
    """
    n_rows = breaks.shape[0]
    clipped = np.clip(breaks, lo, hi)
    edges = np.concatenate(
        (np.full((n_rows, 1), float(lo)), np.sort(clipped, axis=1),
         np.full((n_rows, 1), float(hi))), axis=1)
    x, w = _rule(order)
    seg_lo = edges[:, :-1]
    seg_len = np.diff(edges, axis=1)
    keep = seg_len != 0.0  # NaN breaks keep their NaN panels
    width = int(keep.sum(axis=1).max(initial=0))
    front = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    seg_lo = np.take_along_axis(seg_lo, front, axis=1)
    seg_len = np.take_along_axis(seg_len, front, axis=1)
    # Subdivide each segment into `panels` uniform panels.
    offs = (np.arange(panels) / panels)[None, None, :]
    p_lo = seg_lo[:, :, None] + seg_len[:, :, None] * offs
    p_half = seg_len[:, :, None] / (2.0 * panels)
    mid = p_lo + p_half
    nodes = mid[..., None] + p_half[..., None] * x
    weights = np.broadcast_to(p_half[..., None], nodes.shape) * w
    return nodes.reshape(n_rows, -1), weights.reshape(n_rows, -1)

import re

import numpy as np
import pytest

from demandlab import quadrature as q
from demandlab.errors import QuadratureFailure


def test_adaptive_matches_closed_forms():
    assert q.integrate(np.sin, 0.0, np.pi, tol=1e-12) == pytest.approx(
        2.0, abs=1e-11)
    assert q.integrate(np.exp, -1.0, 2.0, tol=1e-12) == pytest.approx(
        np.exp(2.0) - np.exp(-1.0), rel=1e-12)


def test_adaptive_uses_breakpoints_for_kinks():
    got = q.integrate(np.abs, -1.0, 1.0, tol=1e-13, breakpoints=(0.0,))
    assert got == pytest.approx(1.0, abs=1e-14)


def test_adaptive_reports_failure_with_achieved_error():
    # the failing interval is printed at round-trip precision: near 1 its
    # endpoints differ only past the sixth significant digit
    for c, a, b in ((0.0, 0.0, 1.0), (1.0, 0.5, 2.0)):
        f = lambda x: 1.0 / np.sqrt(np.abs(x - c) + 1e-15)
        with pytest.raises(QuadratureFailure) as exc:
            q.integrate(f, a, b, tol=1e-14)
        assert exc.value.achieved > exc.value.requested
        lo, hi = re.search(r"interval \[(.+?), (.+?)\]",
                           str(exc.value)).groups()
        assert float(lo) < float(hi)


def test_segmented_gl_is_exact_across_kinks():
    # per-row |x - c| has a kink at c; a segment boundary there makes
    # fixed-order Gauss-Legendre exact
    breaks = np.array([[0.5], [1.0], [1.5]])
    x, w = q.segmented_gl(0.0, 2.0, breaks, order=8, panels=1)
    vals = np.abs(x - breaks)
    got = np.sum(w * vals, axis=1)
    want = np.array([(0.5 ** 2 + 1.5 ** 2) / 2,
                     1.0,
                     (1.5 ** 2 + 0.5 ** 2) / 2])
    assert np.allclose(got, want, rtol=1e-14)


def _full_width_gl(lo, hi, breaks, order, panels):
    """Every segment's panels, zero-width ones included, in edge order."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, wts = [], []
    for row in breaks:
        edges = np.concatenate(([lo], np.sort(np.clip(row, lo, hi)), [hi]))
        xs, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = (b - a) / (2.0 * panels)
            for k in range(panels):
                mid = (a + (b - a) * (k / panels)) + half
                xs.append(mid + half * x)
                ws.append(half * w)
        nodes.append(np.concatenate(xs))
        wts.append(np.concatenate(ws))
    return np.array(nodes), np.array(wts)


def test_segmented_gl_drops_zero_width_panels_keeping_row_sums():
    # breaks clipped to either end point, repeated, or outside the range
    lo, hi = 0.5, 1.5
    breaks = np.array([[0.2, 0.9, 0.9, 2.0],
                       [0.7, 1.1, 1.1, 0.8],
                       [1.5, 1.5, 0.5, 0.5],
                       [-1.0, 0.6, 3.0, 1.2]])
    x, w = q.segmented_gl(lo, hi, breaks, order=16, panels=3)
    # the widest row has 4 of its 5 segments of positive width
    assert x.shape == w.shape == (4, 4 * 3 * 16)
    ref_x, ref_w = _full_width_gl(lo, hi, breaks, 16, 3)
    assert ref_x.shape == (4, 5 * 3 * 16)
    g = lambda v: np.exp(-v) * np.abs(v - 0.9)
    h = lambda v: 1.0 + np.sin(3.0 * v)
    got = np.einsum("ij,ij,ij->i", w, g(x), h(x))
    want = np.einsum("ij,ij,ij->i", ref_w, g(ref_x), h(ref_x))
    assert np.array_equal(got, want)
    # the kept panels are the reference's positive-weight ones, in order
    for row in range(4):
        kept = ref_w[row] != 0.0
        n = int(kept.sum())
        assert np.array_equal(x[row, :n], ref_x[row, kept])
        assert np.array_equal(w[row, :n], ref_w[row, kept])
        assert not np.any(w[row, n:])


# Row-monotone crossing family psi(r, rows) = f(r) + c[rows] with c
# sorted: f has roots 0.5, 1.5 and 3, and f + c keeps three roots in
# (0, 4) for |c| <= 0.3, none for c = -9 or c = 3.
def _cubic(r):
    return (r - 0.5) * (r - 1.5) * (r - 3.0)


def _cubic_roots(c, lo, hi):
    roots = np.roots([1.0, -5.0, 6.75, c - 2.25])
    real = np.sort(roots[np.isreal(roots)].real)
    return real[(real > lo) & (real < hi)]


def test_solve_crossings_locates_roots_per_row():
    c = np.array([-0.3, 0.0, 0.3])
    found = q.solve_crossings(lambda r, rows: _cubic(r) + c[rows],
                              0.0, 4.0, 3)
    # as wide as the row with the most roots: every row has three
    assert found.shape == (3, 3)
    for row, level in enumerate(c):
        assert np.allclose(found[row], _cubic_roots(level, 0.0, 4.0),
                           rtol=0.0, atol=1e-12)


def test_solve_crossings_handles_rootless_rows():
    c = np.array([-9.0, 0.0, 3.0])
    found = q.solve_crossings(lambda r, rows: _cubic(r) + c[rows],
                              0.0, 4.0, 3)
    # rows with fewer roots than the widest are padded with the upper end
    assert found.shape == (3, 3)
    assert np.all(found[[0, 2]] == 4.0)
    assert np.allclose(found[1], [0.5, 1.5, 3.0], rtol=0.0, atol=1e-12)
    # a row whose psi is NaN counts as nonnegative, so sorted last it
    # brackets nothing, even where every other row is negative
    c_nan = np.array([-9.0, 0.0, np.nan])
    found = q.solve_crossings(lambda r, rows: _cubic(r) + c_nan[rows],
                              0.0, 4.0, 3)
    assert found.shape == (3, 3)
    assert np.all(found[[0, 2]] == 4.0)
    assert np.allclose(found[1], [0.5, 1.5, 3.0], rtol=0.0, atol=1e-12)
    # a single rootless row never reaches the bisection, and with no
    # root anywhere the matrix has no columns
    sizes = []

    def psi(r, rows):
        sizes.append(np.broadcast(r, rows).size)
        return np.ones_like(r + rows, dtype=float)

    assert q.solve_crossings(psi, 0.0, 1.0, 1).shape == (1, 0)
    assert sizes == [q.COARSE]


def test_solve_crossings_returns_every_root():
    # sin(r) + c changes sign five times inside (0.5, 16) for these c
    c = np.array([-0.1, 0.0, 0.1])
    psi = lambda r, rows: np.sin(r) + c[rows]
    found = q.solve_crossings(psi, 0.5, 16.0, 3)
    assert found.shape == (3, 5)
    k = np.arange(1, 6)
    want = np.pi * k - (-1.0) ** k * np.arcsin(c)[:, None]
    assert np.allclose(found, want, rtol=0.0, atol=1e-12)


def test_solve_crossings_bisects_only_bracketed_cells():
    # many rows, most rootless: the scan costs about COARSE evaluations
    # per halving of the row range, and only bracketed cells are bisected
    c = np.concatenate((np.full(200, -9.0), np.linspace(-0.3, 0.3, 40),
                        np.full(160, 3.0)))
    sizes = []

    def psi(r, rows):
        sizes.append(np.broadcast(r, rows).size)
        return _cubic(r) + c[rows]

    n_rows = c.size
    found = q.solve_crossings(psi, 0.0, 4.0, n_rows)
    pairs = 3 * 40
    scan, bisect = sizes[:-(q.BISECTIONS + 1)], sizes[-(q.BISECTIONS + 1):]
    assert sum(scan) <= q.COARSE * int(np.ceil(np.log2(n_rows + 1)))
    assert bisect == [pairs] * (q.BISECTIONS + 1)
    # the same brackets as a scan of every row at every point
    grid = np.linspace(0.0, 4.0, q.COARSE)
    sgn = np.where(_cubic(grid)[None, :] + c[:, None] >= 0.0, 1.0, -1.0)
    flips = (sgn[:, :-1] * sgn[:, 1:] < 0.0).sum(axis=1)
    assert np.array_equal((found < 4.0).sum(axis=1), flips)
    for row in np.flatnonzero(flips):
        assert np.allclose(found[row, :3], _cubic_roots(c[row], 0.0, 4.0),
                           rtol=0.0, atol=1e-12)

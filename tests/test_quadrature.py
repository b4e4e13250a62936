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
    f = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-15)
    with pytest.raises(QuadratureFailure) as exc:
        q.integrate(f, 0.0, 1.0, tol=1e-14, max_levels=2)
    assert exc.value.achieved > exc.value.requested


def test_integrate2d_separable_product():
    got = q.integrate2d(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0, tol=1e-10)
    assert got == pytest.approx(0.25, abs=1e-10)


def test_integrate2d_callable_limits():
    # area of the triangle 0 <= y <= x <= 1
    got = q.integrate2d(lambda x, y: np.ones_like(x * y), 0.0, 1.0,
                        lambda x: 0.0 * x, lambda x: x, tol=1e-10)
    assert got == pytest.approx(0.5, abs=1e-9)


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


def test_solve_crossings_locates_roots_per_row():
    # psi(r) = (r - a)(r - b)(r - c) row-wise; roots inside [0, 4]
    roots = np.array([[0.5, 1.5, 3.0],
                      [1.0, 2.0, 3.5]])

    def psi(r, rows):
        return ((r - roots[rows, 0]) * (r - roots[rows, 1])
                * (r - roots[rows, 2]))

    found = q.solve_crossings(psi, 0.0, 4.0, 2)
    assert found.shape == (2, q.MAX_ROOTS) == (2, 4)
    assert np.allclose(found[:, :3], roots, atol=1e-12)
    # unused slots are padded with the upper end point
    assert np.allclose(found[:, 3], 4.0)


def test_solve_crossings_handles_rootless_rows():
    psi = lambda r, rows: np.ones_like(r + rows)
    found = q.solve_crossings(psi, 0.0, 1.0, 1)
    assert found.shape == (1, 4)
    assert np.allclose(found, 1.0)


def test_solve_crossings_rejects_more_roots_than_slots():
    # sin changes sign at pi, 2 pi, ..., 5 pi inside (0.5, 16)
    psi = lambda r, rows: np.sin(r + 0.0 * rows)
    with pytest.raises(QuadratureFailure, match="more than 4"):
        q.solve_crossings(psi, 0.5, 16.0, 2)
    # four sign changes still fit
    found = q.solve_crossings(psi, 0.5, 13.0, 2)
    assert np.allclose(found, np.pi * np.arange(1, 5), atol=1e-12)


def test_solve_crossings_bisects_only_bracketed_cells():
    # roots in [0, 1]: none in row 0, 0.4 in row 1, 0.3 and 0.7 in row 2
    a = np.array([2.0, 0.4, 0.3])
    b = np.array([2.0, 2.0, 0.7])
    sizes = []

    def psi(r, rows):
        sizes.append(np.broadcast(r, rows).size)
        return (r - a[rows]) * (r - b[rows])

    found = q.solve_crossings(psi, 0.0, 1.0, 3)
    assert np.allclose(found[:, :2], [[1.0, 1.0], [0.4, 1.0], [0.3, 0.7]],
                       atol=1e-12)
    assert sizes == [3 * q.COARSE] + [3] * q.BISECTIONS

    sizes.clear()
    q.solve_crossings(psi, 0.0, 1.0, 1)
    assert sizes[0] == q.COARSE
    assert not any(sizes[1:])

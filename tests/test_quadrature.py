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

    def psi(r):
        return ((r - roots[:, :1]) * (r - roots[:, 1:2])
                * (r - roots[:, 2:3]))

    found = q.solve_crossings(psi, 0.0, 4.0, 2, max_roots=4)
    assert found.shape == (2, 4)
    assert np.allclose(found[:, :3], roots, atol=1e-12)
    # unused slots are padded with the upper end point
    assert np.allclose(found[:, 3], 4.0)


def test_solve_crossings_handles_rootless_rows():
    psi = lambda r: np.ones_like(r)
    found = q.solve_crossings(psi, 0.0, 1.0, 1, max_roots=2)
    assert np.allclose(found, 1.0)

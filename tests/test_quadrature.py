import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demandlab
from demandlab import quadrature as q
from demandlab.errors import QuadratureFailure
from helpers import same_bits

PACKAGE_ROOT = Path(demandlab.__file__).resolve().parents[1]


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


def test_integrate_is_the_one_row_case_of_segmented_gl():
    # a kink at 1 and the steep root near 0 leave the value set by the
    # tolerance, so another rule gives other bits; breakpoints outside
    # (a, b) and repeated ones change nothing
    f = lambda x: np.abs(x - 1.0) * np.sqrt(x + 0.01)
    got = q.integrate(f, 0.0, 2.0, tol=1e-8,
                      breakpoints=(1.0, 1.0, -1.0, 2.0, 7.0))
    want, _ = q.segmented_gl(0.0, 2.0, np.array([[1.0]]),
                             lambda nodes, rows: f(nodes), tol=1e-8)
    assert type(got) is float
    assert got == want[0]
    assert q.integrate(f, 1.0, 1.0, tol=1e-12) == 0.0
    with pytest.raises(ValueError):
        q.integrate(f, 1.0, 0.5, tol=1e-12)


@pytest.mark.parametrize("f", [
    lambda x: np.full_like(x, np.nan),
    lambda x: np.where(x < 0.3, np.nan, x)], ids=["all_nan", "partly_nan"])
def test_integrate_raises_on_a_nan_integrand(f):
    # segmented_gl finishes a NaN row; integrate turns it into a failure
    with pytest.raises(QuadratureFailure, match="nan"):
        q.integrate(f, 0.0, 1.0, tol=1e-12)


def test_failure_maps_the_worst_interval_back_from_the_graded_variable():
    # grade 2 turns the end-point term |x - 0.5|^(-0.9) into t^(-0.8),
    # which no bisection resolves; the reported interval is in x, inside
    # [0.25, 1.5] and ending on the break at 0.5, not in the graded
    # variable's [0, 1]
    f = lambda x, rows: np.maximum(np.abs(x - 0.5), 1e-300) ** -0.9
    with pytest.raises(QuadratureFailure) as exc:
        q.segmented_gl(0.25, 1.5, np.array([[0.5]]), f, tol=1e-10,
                       grade=2)
    lo, hi = map(float, re.search(r"interval \[(.+?), (.+?)\]",
                                  str(exc.value)).groups())
    assert 0.25 <= lo < hi <= 1.5
    assert 0.5 in (lo, hi)
    assert exc.value.achieved > exc.value.requested


def _rows_of(f):
    """A row-indexed integrand from f(nodes, params) and one parameter
    per row."""
    def bind(params):
        return lambda nodes, rows: f(nodes, params[rows][:, None])
    return bind


def test_kronrod_pair_exact_to_degrees_31_and_19():
    # one pass over [-1, 1] (an infinite tolerance finishes every row):
    # K21 integrates x^d exactly up to d = 31 and G10 up to d = 19, so
    # the estimate |K21 - G10| vanishes up to 19 and not beyond
    degrees = np.arange(34)
    exact = np.where(degrees % 2 == 0, 2.0 / (degrees + 1.0), 0.0)
    got, est = q.segmented_gl(-1.0, 1.0, np.empty((34, 0)),
                              _rows_of(np.power)(degrees), tol=np.inf)
    kronrod_miss = np.abs(got - exact)
    assert np.all(kronrod_miss[:32] <= 1e-15)
    assert kronrod_miss[32] > 1e-12
    assert np.all(est[:20] <= 1e-15)
    assert np.all(est[20:32:2] > 1e-12)
    # the G10 nodes and weights are numpy's 10-point Gauss-Legendre rule
    x10, w10 = np.polynomial.legendre.leggauss(10)
    w_g = q._WK21 - q._WKG
    assert np.allclose(q._XK21[w_g != 0.0], x10, rtol=0.0, atol=1e-15)
    assert np.allclose(w_g[w_g != 0.0], w10, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("degree", [0, 1, 2, 5, 12, 31, 61])
def test_exact_rule_takes_one_pass_of_half_the_degree_plus_one_nodes(
        monkeypatch, degree):
    # every segment of every row gets degree // 2 + 1 nodes in a single
    # pass, exact for x^d up to the degree; the estimate is the round-off
    # floor.  Blocks of a few intervals spread the pass over several calls
    monkeypatch.setattr(q, "INTERVAL_BLOCK", 2)
    widths, seen = [], []
    powers = np.arange(degree + 1)

    def f(nodes, rows):
        widths.append(nodes.shape[1])
        seen.append(rows)
        return nodes ** powers[rows][:, None]

    breaks = np.tile([-0.5, 0.25, 0.6], (powers.size, 1))
    got, est = q.segmented_gl(-1.0, 1.0, breaks, f, tol=0.0, degree=degree)
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1.0), 0.0)
    # one pass: each row's four segments reach the integrand once
    assert np.array_equal(np.sort(np.concatenate(seen)),
                          np.repeat(powers, 4))
    assert set(widths) == {degree // 2 + 1}
    assert np.all(np.abs(got - exact) <= 1e-15)
    size = np.array([q.segmented_gl(-1.0, 1.0, breaks[:1],
                                    lambda x, rows: np.abs(x ** p),
                                    tol=0.0, degree=degree)[0][0]
                     for p in powers])
    assert same_bits(est, q.ROUNDOFF * size)


def test_gauss_legendre_rule_is_rounded_from_the_exact_one():
    # 31 (1 - t)^30 piles its mass against t = 0, where the weights are
    # small; NumPy's leggauss weights, formed from the rounded nodes,
    # integrate it with 31 nodes to 4e-14
    x, w = q._gauss_legendre(31)
    t = 0.5 + 0.5 * x
    assert abs(0.5 * np.dot(w, 31.0 * (1.0 - t) ** 30) - 1.0) <= 1e-15
    x_np, w_np = np.polynomial.legendre.leggauss(31)
    assert np.allclose(x, x_np, rtol=0.0, atol=2e-16)
    assert np.allclose(w, w_np, rtol=1e-12, atol=0.0)
    assert np.array_equal(x, -x[::-1]) and same_bits(w, w[::-1])
    assert q._gauss_legendre(31) is q._gauss_legendre(31)  # cached
    assert [q._gauss_legendre(n)[1].sum() for n in (1, 2, 3)] == [2.0] * 3


def test_importing_the_package_makes_no_rule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, demandlab; from demandlab import quadrature; "
         "print(quadrature._gauss_legendre.cache_info().currsize, "
         "'decimal' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)})
    assert proc.stdout.split() == ["0", "False"]


def test_exact_rule_takes_no_graded_variable():
    with pytest.raises(ValueError):
        q.segmented_gl(0.0, 1.0, np.empty((1, 0)), lambda x, rows: x,
                       tol=1e-10, grade=2, degree=3)


@pytest.mark.parametrize("tol", [np.inf, 1e-4, 1e-8, 1e-10])
def test_estimate_bounds_the_error_of_rough_integrands(tol):
    # sqrt(x - a) has an unbounded derivative at the end point a, and
    # |x - c| a kink at c that no break marks.  For c = pi / 4 at 1e-12,
    # |K21 - G10| alone came to 1.6e-13 against an error of 3.6e-13
    a = np.array([0.0, 0.3, 0.9])
    root, root_est = q.segmented_gl(
        0.0, 2.0, a[:, None], _rows_of(
            lambda x, a: np.sqrt(np.maximum(x - a, 0.0)))(a), tol=tol)
    root_exact = 2.0 / 3.0 * (2.0 - a) ** 1.5
    c = np.array([0.1, 0.7, 1.0 / 3.0, np.pi / 4.0])
    kink, kink_est = q.segmented_gl(
        0.0, 2.0, np.empty((4, 0)),
        _rows_of(lambda x, c: np.abs(x - c))(c), tol=tol)
    kink_exact = (c ** 2 + (2.0 - c) ** 2) / 2.0
    for got, est, exact in ((root, root_est, root_exact),
                            (kink, kink_est, kink_exact)):
        assert np.all(np.abs(got - exact) <= est)
        assert np.all(est <= tol)


def test_kink_between_the_outermost_node_and_the_end_goes_unseen():
    # no rule sees what falls between its nodes: on [0, 2] the outermost
    # node is 1.99566, so a kink at 1.998 leaves every value on one line,
    # both rules integrate c - x exactly, and the row finishes in one pass
    # off by (2 - c)^2.  This is why every known kink is a break
    c = 1.998
    got, est = q.segmented_gl(0.0, 2.0, np.empty((1, 0)),
                              lambda x, rows: np.abs(x - c), tol=1e-10)
    exact = (c ** 2 + (2.0 - c) ** 2) / 2.0
    assert est[0] <= 1e-15
    assert abs(got[0] - exact) == pytest.approx((2.0 - c) ** 2, rel=1e-6)
    split, split_est = q.segmented_gl(0.0, 2.0, np.array([[c]]),
                                      lambda x, rows: np.abs(x - c),
                                      tol=1e-10)
    assert abs(split[0] - exact) <= split_est[0] + 1e-15


def test_segmented_gl_raises_at_the_cap_with_achieved_error():
    # a unit step at 1/3, where no break is: each pass halves the
    # estimate of the interval holding it, so 1e-12 is out of reach
    step = lambda x, rows: (x >= 1.0 / 3.0).astype(float)
    with pytest.raises(QuadratureFailure) as exc:
        q.segmented_gl(0.0, 1.0, np.empty((2, 0)), step, tol=1e-12)
    assert exc.value.requested == 1e-12
    assert 1e-12 < exc.value.achieved < 1e-4
    assert "2 rows" in str(exc.value)


def test_rows_without_segments_keep_the_callers_numbering():
    # rows 0 and 2 have lo == hi and take no part in the passes; the
    # others keep their own row number in the integrand, in a per-row
    # tolerance and in a QuadratureFailure.  Row 1 has a break at its
    # step, row 3 does not, so only a loose tolerance lets row 3 finish
    c = np.array([0.2, 0.5, 0.7, 1.0 / 3.0])
    lo, hi = np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0])
    breaks = np.array([[0.2], [0.5], [0.7], [0.5]])
    seen = []

    def step(nodes, rows):
        seen.extend(rows.tolist())
        return (nodes >= c[rows][:, None]).astype(float)

    got, est = q.segmented_gl(lo, hi, breaks, step,
                              tol=np.array([1e-12, 1e-12, 1e-12, 1.0]))
    assert set(seen) == {1, 3}
    assert got[[0, 1, 2]].tolist() == [0.0, 0.5, 0.0]
    assert est[0] == est[2] == 0.0 and est[3] > 1e-12
    with pytest.raises(QuadratureFailure) as exc:
        q.segmented_gl(lo, hi, breaks, step, tol=1e-12)
    assert exc.value.row == 3


def test_segmented_gl_caps_the_pending_intervals_of_a_row(monkeypatch):
    # a seeded noisy integrand never converges, so every interval splits
    # each pass; the row count doubles until the cap stops it, well
    # before MAX_LEVELS, and no pass holds more than the cap per row (a
    # block as large as the cap allows makes each pass one integrand call)
    monkeypatch.setattr(q, "INTERVAL_BLOCK", q.MAX_PENDING * 3)
    rng = np.random.default_rng(7)
    lines = []

    def noise(nodes, rows):
        lines.append(rows.size)
        return rng.random(nodes.shape)

    with pytest.raises(QuadratureFailure, match="intervals in one row"):
        q.segmented_gl(0.0, 1.0, np.empty((3, 0)), noise, tol=1e-10)
    assert max(lines) <= q.MAX_PENDING * 3
    assert len(lines) <= q.MAX_PENDING.bit_length() < q.MAX_LEVELS


def test_segmented_gl_is_exact_across_kinks():
    # per-row |x - c| has a kink at c; a break there makes each piece a
    # polynomial the K21 rule integrates exactly, in one pass
    c = np.array([0.5, 1.0, 1.5])
    passes = []

    def f(nodes, rows):
        passes.append(rows.size)
        return np.abs(nodes - c[rows][:, None])

    got, est = q.segmented_gl(0.0, 2.0, c[:, None], f, tol=1e-14)
    want = (c ** 2 + (2.0 - c) ** 2) / 2.0
    assert np.allclose(got, want, rtol=1e-15)
    assert np.all(est <= 1e-15)
    assert passes == [6]


def test_segmented_gl_drops_zero_width_panels_keeping_row_sums():
    # breaks clipped to either end point, repeated, or outside the range
    # give the bits of the same row with only its distinct inner breaks
    lo, hi = 0.5, 1.5
    breaks = np.array([[0.2, 0.9, 0.9, 2.0],
                       [0.7, 1.1, 1.1, 0.8],
                       [1.5, 1.5, 0.5, 0.5],
                       [-1.0, 0.6, 3.0, 1.2]])
    distinct = [[0.9], [0.7, 0.8, 1.1], [], [0.6, 1.2]]
    widths = []

    def f(nodes, rows):
        widths.append(nodes[:, -1] - nodes[:, 0])
        return np.exp(-nodes) * np.abs(nodes - 0.9) + np.sin(3.0 * nodes)

    got, est = q.segmented_gl(lo, hi, breaks, f, tol=1e-12)
    assert np.all(np.concatenate(widths) > 0.0)
    for row, inner in enumerate(distinct):
        alone = q.segmented_gl(lo, hi, np.array([inner]).reshape(1, -1), f,
                               tol=1e-12)
        assert got[row] == alone[0][0] and est[row] == alone[1][0]


def test_each_row_keeps_its_bits_whatever_the_other_rows(monkeypatch):
    # rows that need many passes (a kink at an unmarked point) and rows
    # done in one share a call; every row gives the bits of its own call,
    # also when the intervals go to the integrand in blocks of 3, and a
    # NaN row is finished at once without spoiling the others
    c = np.array([0.05, np.pi / 7.0, 2.0, np.nan, 1.0 / 3.0, -1.0])
    breaks = np.column_stack((c, c + 0.25))
    f = _rows_of(lambda x, c: np.abs(x - c) + np.cos(x))(c)
    got, est = q.segmented_gl(0.0, 1.0, breaks, f, tol=1e-11)
    assert np.isnan(got[3]) and np.isnan(est[3])
    monkeypatch.setattr(q, "INTERVAL_BLOCK", 3)
    blocked = q.segmented_gl(0.0, 1.0, breaks, f, tol=1e-11)
    assert np.array_equal(blocked[0], got, equal_nan=True)
    assert np.array_equal(blocked[1], est, equal_nan=True)
    for row in np.flatnonzero(~np.isnan(c)):
        one = _rows_of(lambda x, c: np.abs(x - c) + np.cos(x))(c[[row]])
        alone = q.segmented_gl(0.0, 1.0, breaks[[row]], one, tol=1e-11)
        assert got[row] == alone[0][0] and est[row] == alone[1][0]
        assert est[row] <= 1e-11


@pytest.mark.parametrize("rule", [{}, {"grade": 2}, {"degree": 4}],
                         ids=["adaptive", "graded", "exact"])
def test_per_row_bounds_equal_scalar_bounds(rule):
    # bounds given as one value per row keep every bit of the same
    # scalar bounds, whichever rule runs
    c = np.array([0.05, np.pi / 7.0, 2.0, 1.0 / 3.0, -1.0])
    breaks = np.column_stack((c, c + 0.25))
    f = _rows_of(lambda x, c: np.abs(x - c) + x ** 4)(c)
    want = q.segmented_gl(0.25, 1.0, breaks, f, tol=1e-11, **rule)
    got = q.segmented_gl(np.full(c.size, 0.25), np.full(c.size, 1.0),
                         breaks, f, tol=1e-11, **rule)
    assert same_bits(got, want)


@pytest.mark.parametrize("rule", [{}, {"grade": 2}, {"degree": 1}],
                         ids=["adaptive", "graded", "exact"])
def test_an_integrand_may_return_or_overwrite_its_nodes(rule):
    # segmented_gl takes |f| into the node matrix once the integrand has
    # returned, so an integrand that returns that matrix, or writes its
    # values into it and returns a view, gives the integral of x, and the
    # values and estimates of one that returns a copy.  The rows cross 0,
    # where |x| is not x
    lo = np.array([-1.5, -2.0, 0.25, -0.125])
    hi = np.array([0.5, -0.5, 0.75, 3.0])
    breaks = np.array([[-0.25], [-1.0], [0.5], [0.0]])

    def itself(nodes, rows):
        return nodes

    def into(nodes, rows):
        np.multiply(nodes, 1.0, out=nodes)
        return nodes[:, ::-1][:, ::-1]

    want = q.segmented_gl(lo, hi, breaks, lambda nodes, rows: nodes.copy(),
                          tol=1e-13, **rule)
    np.testing.assert_allclose(want[0], 0.5 * (hi * hi - lo * lo),
                               rtol=1e-15, atol=1e-16)
    for integrand in (itself, into):
        assert same_bits(
            q.segmented_gl(lo, hi, breaks, integrand, tol=1e-13, **rule),
            want)


def test_per_row_bounds_integrate_each_row_over_its_own_range():
    # an empty row (lo == hi) has no segment, calls no integrand and
    # returns 0 with estimate 0; NaN bounds make a NaN row, as a NaN
    # break does; the other rows keep the bits of their own calls
    lo = np.array([0.0, 0.4, 0.7, np.nan, 0.2, 0.1])
    hi = np.array([1.0, 0.4, 0.9, 0.8, np.nan, 0.6])
    breaks = np.full((lo.size, 1), 0.5)
    seen = []

    def f(nodes, rows):
        seen.append(rows.copy())
        return np.cos(nodes) + np.abs(nodes - 0.3)

    got, est = q.segmented_gl(lo, hi, breaks, f, tol=1e-12)
    assert 1 not in np.concatenate(seen)
    assert got[1] == 0.0 and est[1] == 0.0
    nan_break = q.segmented_gl(0.1, 0.8, np.array([[np.nan]]), f, tol=1e-12)
    assert np.all(np.isnan(nan_break))
    assert np.all(np.isnan(got[3:5])) and np.all(np.isnan(est[3:5]))
    for row in (0, 2, 5):
        alone = q.segmented_gl(lo[row], hi[row], breaks[[row]], f,
                               tol=1e-12)
        assert got[row] == alone[0][0] and est[row] == alone[1][0]
    assert got[2] == pytest.approx(np.sin(0.9) - np.sin(0.7) + 0.1,
                                   abs=1e-14)


@pytest.mark.parametrize("s, grade", [(0.5, 2), (0.7, 3), (1.2, 2)])
def test_grade_smooths_end_point_terms(s, grade):
    # x^(s - 1) at the end 0 and |x - c|^(s - 1) at a break c: bisection
    # alone misses 1e-10 after MAX_LEVELS passes; graded, the terms
    # become t^(grade s - 1), a power series or C^1, and each row keeps
    # the bits of its own call
    c = np.array([0.0, 0.3, 1.0 / 3.0])
    f = _rows_of(lambda x, c: np.abs(x - c) ** (s - 1.0))(c)
    with pytest.raises(QuadratureFailure):
        q.segmented_gl(0.0, 1.0, c[:, None], f, tol=1e-10)
    got, est = q.segmented_gl(0.0, 1.0, c[:, None], f, tol=1e-10,
                              grade=grade)
    exact = (c ** s + (1.0 - c) ** s) / s
    assert np.all(np.abs(got - exact) <= est + 1e-14)
    assert np.all(est <= 1e-10)
    for row in range(c.size):
        one = _rows_of(lambda x, c: np.abs(x - c) ** (s - 1.0))(c[[row]])
        alone = q.segmented_gl(0.0, 1.0, c[[row], None], one, tol=1e-10,
                               grade=grade)
        assert got[row] == alone[0][0] and est[row] == alone[1][0]


def test_graded_nodes_stay_inside_their_segment():
    # on a segment two ulps wide the graded nodes would round onto its
    # ends, where an end-point term is infinite; they take the one float
    # inside instead
    lo = 1.0
    hi = np.nextafter(np.nextafter(lo, 2.0), 2.0)
    seen = []

    def f(nodes, rows):
        seen.append(nodes.copy())
        return np.ones_like(nodes)

    got, _ = q.segmented_gl(lo, hi, np.empty((1, 0)), f, tol=1e-10, grade=4)
    assert np.all(np.concatenate(seen) == np.nextafter(lo, 2.0))
    assert got[0] == pytest.approx(hi - lo, rel=1e-12)


@pytest.mark.parametrize("lo", [0.5, 1.0, 0.75, 2.0 / 3.0])
@pytest.mark.parametrize("degree", [None, 3])
def test_nodes_stay_inside_a_segment_one_ulp_wide(lo, degree):
    # (a + half) + half x rounds below a = 0.5 or 1.0 on a segment one
    # ulp wide; the nodes are clipped into [a, b], so an integrand that is
    # infinite outside its interval is never read there
    hi = np.nextafter(lo, 2.0)
    seen = []

    def f(nodes, rows):
        seen.append(nodes.copy())
        return np.ones_like(nodes)

    got, _ = q.segmented_gl(lo, hi, np.empty((1, 0)), f, tol=1e-10,
                            degree=degree)
    nodes = np.concatenate(seen)
    assert np.all((nodes >= lo) & (nodes <= hi))
    assert got[0] == pytest.approx(hi - lo, rel=1e-12)


def test_nodes_rounded_onto_an_end_put_their_interval_in_doubt():
    # a break one ulp above the end 0.5 of a term |x - 0.5|^(-1/2) leaves
    # a segment with no float inside, so its nodes sit on the end, where
    # the term reads 1e150 as a clipped beta density does.  The row
    # fails instead of returning that; a bounded integrand loses at most
    # an ulp of mass there and passes
    lo = 0.5
    breaks = np.array([[np.nextafter(lo, 1.0)]])
    rough = lambda x, rows: np.maximum(x - lo, 1e-300) ** -0.5
    with pytest.raises(QuadratureFailure):
        q.segmented_gl(lo, 1.5, breaks, rough, tol=1e-10, grade=2)
    got, est = q.segmented_gl(lo, 1.5, breaks, lambda x, rows: np.cos(x),
                              tol=1e-10, grade=2)
    assert got[0] == pytest.approx(np.sin(1.5) - np.sin(lo), abs=1e-14)
    assert est[0] <= 1e-10


def test_row_tolerance_stops_at_round_off():
    # at a scale of 1e12 an absolute 1e-10 lies below round-off: the row
    # is held to ROUNDOFF times its absolute integral instead of failing
    got, est = q.segmented_gl(0.0, 1.0, np.empty((1, 0)),
                              lambda x, rows: 1e12 * np.cos(x), tol=1e-10)
    assert got[0] == pytest.approx(1e12 * np.sin(1.0), rel=1e-14)
    assert 1e-10 < est[0] <= q.ROUNDOFF * 1e12 * np.sin(1.0)


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


def _bisect_every_pass(psi, a, b, rows):
    """The bisection of solve_crossings run for all BISECTIONS passes."""
    fa = psi(a, rows)
    for _ in range(q.BISECTIONS):
        m = 0.5 * (a + b)
        fm = psi(m, rows)
        left = fa * fm <= 0.0
        a, b, fa = (np.where(left, a, m), np.where(left, m, b),
                    np.where(left, fa, fm))
    return 0.5 * (a + b)


def test_solve_crossings_bisects_only_bracketed_cells():
    # many rows, most rootless: the scan costs about COARSE evaluations
    # per halving of the row range, and only bracketed cells are bisected,
    # until a pass changes nothing
    c = np.concatenate((np.full(200, -9.0), np.linspace(-0.3, 0.3, 40),
                        np.full(160, 3.0)))
    sizes = []

    def psi(r, rows):
        sizes.append(np.broadcast(r, rows).size)
        return _cubic(r) + c[rows]

    n_rows = c.size
    found = q.solve_crossings(psi, 0.0, 4.0, n_rows)
    pairs = 3 * 40
    halvings = int(n_rows).bit_length()
    scan, bisect = sizes[:halvings], sizes[halvings:]
    assert sum(scan) <= q.COARSE * int(np.ceil(np.log2(n_rows + 1)))
    assert bisect == [pairs] * len(bisect)
    assert len(bisect) <= q.BISECTIONS + 1
    # the same brackets as a scan of every row at every point
    grid = np.linspace(0.0, 4.0, q.COARSE)
    sgn = np.where(_cubic(grid)[None, :] + c[:, None] >= 0.0, 1.0, -1.0)
    flips = (sgn[:, :-1] * sgn[:, 1:] < 0.0).sum(axis=1)
    assert np.array_equal((found < 4.0).sum(axis=1), flips)
    for row in np.flatnonzero(flips):
        assert np.allclose(found[row, :3], _cubic_roots(c[row], 0.0, 4.0),
                           rtol=0.0, atol=1e-12)
    # stopping early keeps the roots of every pass, bit for bit
    rows, cells = np.nonzero(sgn[:, :-1] * sgn[:, 1:] < 0.0)
    full = _bisect_every_pass(lambda r, rows: _cubic(r) + c[rows],
                              grid[cells], grid[cells + 1], rows)
    assert np.array_equal(found[found < 4.0], full)


def test_solve_crossings_of_groups_equal_separate_calls():
    # row groups that each rise in the row but not across groups (here
    # with different levels and slopes) give the roots of one call per
    # group, bit for bit: one group with no root, one of a single row
    groups = [np.linspace(-0.3, 0.3, 7), np.array([9.0, 12.0]),
              np.array([0.1]), np.linspace(-0.2, 0.25, 5)]
    scale = np.concatenate([np.full(g.size, 1.0 + k)
                            for k, g in enumerate(groups)])
    c = np.concatenate(groups)
    starts = np.cumsum([0] + [g.size for g in groups[:-1]])

    def psi(r, rows):
        return scale[rows] * _cubic(r) + c[rows]

    found = q.solve_crossings(psi, 0.0, 4.0, c.size, starts)
    assert found.shape == (c.size, 3)
    for start, g in zip(starts, groups):
        sub = lambda r, rows: psi(r, rows + start)
        alone = q.solve_crossings(sub, 0.0, 4.0, g.size)
        width = alone.shape[1]
        block = found[start:start + g.size]
        assert np.array_equal(block[:, :width], alone)
        assert np.all(block[:, width:] == 4.0)
    assert np.all(found[7:9] == 4.0)

def _coef(roots, lead=1.0):
    """Coefficients, lowest power first, of lead * prod (t - root)."""
    return (lead * np.polynomial.polynomial.polyfromroots(roots))


def test_poly_roots_of_quadratics_in_closed_form():
    coef = np.array([_coef([0.25, 0.75]), _coef([0.5, 0.5]), [1.0, 0.0, 1.0],
                     [-0.5, 2.0, 0.0], [1.0, 0.0, 0.0], _coef([-1.0, 0.3]),
                     [np.nan, 1.0, 1.0]])
    found = q.poly_roots(coef, np.ones(coef.shape[0]))
    assert found.shape == (7, 2)
    assert np.allclose(found[0], [0.25, 0.75], rtol=0.0, atol=1e-15)
    assert np.array_equal(found[1], [0.5, 0.5])  # a double root counts twice
    assert np.all(np.isnan(found[2]))  # no real root
    assert found[3, 0] == 0.25 and np.isnan(found[3, 1])  # linear
    assert np.all(np.isnan(found[4]))  # a nonzero constant
    assert found[5, 0] == pytest.approx(0.3, abs=1e-15)  # -1 lies outside
    assert np.isnan(found[5, 1]) and np.all(np.isnan(found[6]))


def test_poly_roots_of_the_stable_formula_keep_small_roots():
    # t^2 - 1e8 t + 1 has roots near 1e-8 and 1e8; the textbook formula
    # loses the small one to cancellation
    found = q.poly_roots(np.array([[1.0, -1e8, 1.0]]), np.array([1e9]))
    assert found[0, 0] == pytest.approx(1e-8, rel=1e-15)
    assert found[0, 1] == pytest.approx(1e8, rel=1e-15)


@pytest.mark.parametrize("roots, atol", [
    ([0.1, 0.4, 0.9], 1e-15), ([0.2, 0.5, 0.6, 0.8, 0.95], 1e-13),
    # roots 1e-7 apart move by about 1e-16 / 1e-7 with the rounding of
    # the coefficients themselves
    ([0.05, 0.3, 0.3000001], 1e-10)])
def test_poly_roots_of_higher_degrees_bracket_between_turns(roots, atol):
    # the derivative's roots cut [0, 1] into monotone pieces, each
    # bisected; a root outside [0, 1] is not reported
    coef = np.array([_coef(roots, -2.0), _coef([*roots[:-1], 1.5], 3.0)])
    found = q.poly_roots(coef, np.ones(2))
    assert found.shape == (2, len(roots))
    assert np.allclose(found[0], roots, rtol=0.0, atol=atol)
    assert np.allclose(found[1, :-1], roots[:-1], rtol=0.0, atol=atol)
    assert np.isnan(found[1, -1])


def test_poly_roots_of_a_row_ignore_the_other_rows():
    rng = np.random.default_rng(4)
    coef = rng.normal(size=(50, 6))
    width = rng.uniform(0.5, 3.0, 50)
    found = q.poly_roots(coef, width)
    for row in (0, 17, 49):
        assert same_bits(q.poly_roots(coef[row:row + 1], width[row:row + 1]),
                         found[row:row + 1])
    for row, roots in enumerate(found):
        roots = roots[~np.isnan(roots)]
        assert np.all((roots >= 0.0) & (roots <= width[row]))
        assert np.all(np.diff(roots) >= 0.0)
        want = np.polynomial.polynomial.polyroots(coef[row])
        want = np.sort(want[np.abs(want.imag) < 1e-9].real)
        want = want[(want >= 0.0) & (want <= width[row])]
        assert np.allclose(roots, want, rtol=0.0, atol=1e-9)

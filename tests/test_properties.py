"""Randomized invariants: monotonicity, unit freedom, complementarity."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demandlab as dl
from demandlab import identification as ident
from demandlab import populations as pops
from demandlab.errors import DemandLabError
from demandlab.marginals import MarginalSpec
from demandlab import quadrature
from helpers import (bisection_roots, box_bounds, closed_form_roots,
                     column_kernel, conditional_forms, full_range_profile,
                     live_offsets, same_bits, seed_ratio)

bounded = {"allow_nan": False, "allow_infinity": False}


@st.composite
def named_product_populations(draw):
    """A product population and the name of its ratio law's
    ``RatioMarginalSpec`` constructor."""
    r_lo = draw(st.floats(0.1, 3.0, **bounded))
    r_hi = r_lo + draw(st.floats(0.2, 3.0, **bounded))
    vm_lo = draw(st.floats(0.2, 2.0, **bounded))
    vm_hi = vm_lo + draw(st.floats(0.2, 2.0, **bounded))
    name = "triangular" if draw(st.booleans()) else "uniform"
    maker = getattr(pops.RatioMarginalSpec, name)
    return name, pops.ProductPopulation(maker(r_lo, r_hi,
                                              vm_hi=vm_hi * 1.01),
                                        MarginalSpec.uniform(vm_lo, vm_hi))


def product_populations():
    return named_product_populations().map(lambda named: named[1])


@settings(max_examples=40, deadline=None)
@given(product_populations(), st.floats(0.05, 6.0, **bounded),
       st.floats(0.01, 3.0, **bounded))
def test_demand_never_increases_in_price(pop, p, step):
    assert dl.demand_at(pop, p) >= dl.demand_at(pop, p + step) - 1e-12


@settings(max_examples=25, deadline=None)
@given(named_product_populations(), st.floats(0.05, 6.0, **bounded),
       st.floats(0.1, 10.0, **bounded))
def test_demand_is_invariant_to_money_units(named, p, c):
    # rescaling the currency divides ratios and prices by c and
    # multiplies money values by c; buying behavior cannot change
    name, pop = named
    sup = pop.ratio.support
    maker = getattr(pops.RatioMarginalSpec, name)
    scaled = pops.ProductPopulation(
        maker(sup.r_lo / c, sup.r_hi / c, vm_hi=c * sup.vm_hi),
        MarginalSpec.uniform(c * pop.vm.lo, c * pop.vm.hi))
    assert abs(dl.demand_at(scaled, p / c) - dl.demand_at(pop, p)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(product_populations())
def test_inversion_complements_the_curve(pop):
    curve = dl.demand_curve(pop, np.linspace(0.05, 7.0, 97))
    table = dl.invert_demand(curve)
    np.testing.assert_allclose(table.G + curve.values, 1.0, atol=1e-15)
    assert np.all(np.diff(table.G) >= -1e-15)


@settings(max_examples=25, deadline=None)
@given(product_populations(), st.floats(0.0, 6.0, **bounded),
       st.floats(1.0, 3.0, **bounded))
def test_surface_keeps_the_kernel_bits(pop, p, widen):
    # saturated rows are computed once per column without moving a bit
    sup = pop.support
    half = widen * max(pop.vk_upper, p * sup.vm_hi)
    xq = np.linspace(-half, half, 97)
    surf = dl.quality_demand_surface(pop, xq, np.array([p]))
    values, error = column_kernel(pop, p, xq)
    assert same_bits(surf.values[:, 0], np.clip(values, 0.0, 1.0))
    assert surf.quadrature_errors[0] == error


@st.composite
def polynomial_products(draw):
    """A product population whose money value is uniform or an integer-
    shape beta, on a support whose lower end lies 0 to 4 widths above 0,
    over a uniform, triangular or tabulated ratio law."""
    width = draw(st.floats(0.2, 2.0, **bounded))
    lo = width * draw(st.just(0.0) | st.floats(0.0, 4.0, **bounded))
    shapes = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    vm = (MarginalSpec.uniform(lo, lo + width) if shapes == (1, 1)
          else MarginalSpec.scaled_beta(*shapes, lo, lo + width))
    r_lo = draw(st.floats(0.1, 2.0, **bounded))
    r_hi = r_lo + draw(st.floats(0.2, 2.0, **bounded))
    kind = draw(st.sampled_from(["uniform", "triangular", "tabulated"]))
    if kind == "tabulated":
        g = np.array(draw(st.lists(st.floats(0.1, 2.0, **bounded),
                                   min_size=2, max_size=9)))
        r = np.linspace(r_lo, r_hi, g.size)
        ratio = pops.RatioMarginalSpec.tabulated(r, g / np.trapezoid(g, r))
    else:
        ratio = getattr(pops.RatioMarginalSpec, kind)(r_lo, r_hi)
    return pops.ProductPopulation(ratio, vm)


@settings(max_examples=80, deadline=None)
@given(polynomial_products(),
       st.lists(st.tuples(st.floats(0.0, 1.0, **bounded),
                          st.floats(-0.1, 1.1, **bounded)),
                min_size=1, max_size=30))
# a row whose round-off floor sends it to the adaptive route
@example(pops.ProductPopulation(
    pops.RatioMarginalSpec.triangular(2.0, 3.0),
    MarginalSpec.scaled_beta(2.0, 4.0, 1.0, 2.0)), [(0.0, 0.5)])
def test_closed_form_product_rows_match_the_reference(pop, rows):
    # prices from 0 to 1.5 r_hi, offsets across the support box's
    # saturation bounds: every row, closed form or (where its round-off
    # floor exceeds SURFACE_TOL) adaptive, agrees with the full-range
    # reference over the ratio within 1e-12 plus the reference's
    # estimate, or within its own floor where that is larger: a closed
    # row near the switch, with vm.lo a width or more from 0, can pass
    # 1e-12, but over 16k such rows no difference reached 10 % of the
    # row's floor.  Its estimate covers the difference up to the
    # reference's round-off, which the reference's estimate leaves out
    # where its integrand is a polynomial: it integrates a triangular
    # density on [0.5, 0.7] to 1 + 5 ulp with an estimate of 9e-17
    assert pop._vm_poly is not None
    p = np.array([1.5 * pop.ratio.r_hi * a for a, _ in rows])
    xq = []
    for price, (_, t) in zip(p.tolist(), rows):
        nobody, everybody = box_bounds(pop, price)
        xq.append(nobody + t * (everybody - nobody))
    xq = np.array(xq)
    got, est = pop._quality_profile(p, xq)
    want, want_est = full_range_profile(pop, p, xq)
    diff = np.abs(got - want)
    assert np.all(diff <= np.fmax(1e-12, est) + want_est)
    assert np.all(diff <= quadrature.ROUNDOFF + est + want_est)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0, **bounded), min_size=1,
                max_size=60))
def test_isotonic_projection_properties(ys):
    y = np.asarray(ys)
    z = dl.identification.pava(y)
    assert np.all(np.diff(z) >= 0.0)
    assert abs(z.mean() - y.mean()) <= 1e-9 * max(1.0, abs(y.mean()))
    # projecting a second time changes nothing
    np.testing.assert_array_equal(dl.identification.pava(z), z)


def outcome(run):
    """What ``run()`` returns, or the type and message it raises."""
    try:
        return run()
    except DemandLabError as exc:
        return type(exc), str(exc)


@st.composite
def dented_surfaces(draw):
    """A surface of 1 to 6 prices on 16 to 16,385 quality points, and the
    columns dented by up to 5e-10 where they are flat at the top.

    Column j rises linearly from t0[j] to 1 - t1[j] around its centre,
    where t0 falls and t1 and the centre rise with the price, so demand
    falls with the price; a dent is a strict drop whose slice PAVA must
    pool, and the undented columns mostly need no pooling.
    """
    n = draw(st.integers(16, 16385))
    k = draw(st.integers(1, 6))
    levels = st.sampled_from([0.0, 1e-12, 1e-7, 1e-4, 1e-2])
    t0 = sorted(draw(st.lists(levels, min_size=k, max_size=k)),
                reverse=True)
    t1 = sorted(draw(st.lists(levels, min_size=k, max_size=k)))
    centre = np.sort(draw(st.lists(st.floats(-0.5, 0.5, **bounded),
                                   min_size=k, max_size=k)))
    width = draw(st.floats(0.01, 0.5, **bounded))
    xq = np.linspace(-1.0, 1.0, n)
    rise = np.clip((xq[:, None] - centre) / width + 0.5, 0.0, 1.0)
    values = (1.0 - rise) * np.array(t0) + rise * (1.0 - np.array(t1))
    dented = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    for j in np.flatnonzero(dented):
        flat = np.flatnonzero(xq >= centre[j] + 0.5 * width)[:-1]
        i = flat[draw(st.integers(0, flat.size - 1))]
        values[i + 1, j] = values[i, j] - draw(st.floats(1e-13, 5e-10))
    prices = np.cumsum(draw(st.lists(st.floats(0.1, 1.0, **bounded),
                                     min_size=k, max_size=k)))
    return dl.QualityDemandSurface(xq, prices, values), dented


@settings(max_examples=60, deadline=None)
@given(dented_surfaces(), st.sampled_from([1e-12, 1e-6, 1e-3, 0.5]))
def test_surface_slices_are_the_one_column_slices(surface_dents, bound):
    # the batched stage gives each column the bits of its one-column
    # read, and raises the first price's TailMassExceeded as a loop over
    # the prices does
    surface, dented = surface_dents
    got = outcome(lambda: ident.surface_slices(surface, bound))
    want = outcome(lambda: [ident.slice_from_surface(surface, p, bound)
                            for p in surface.price_grid])
    if isinstance(want, tuple):
        assert got == want
        return
    for j, (a, b, dent) in enumerate(zip(got, want, dented)):
        assert a.p == b.p
        assert same_bits(a.w_grid, b.w_grid)
        assert same_bits(a.cdf, b.cdf)
        assert same_bits([a.tail_mass, a.repair], [b.tail_mass, b.repair])
        # and the rule written out on the 1-d column
        raw = 1.0 - surface.values[::-1, j]
        cdf = np.clip(ident.pava(raw), 0.0, 1.0)
        assert same_bits(a.w_grid, -surface.quality_grid[::-1])
        assert same_bits(a.cdf, cdf)
        assert same_bits([a.tail_mass, a.repair],
                         [cdf[0] + (1.0 - cdf[-1]),
                          np.max(np.abs(cdf - raw))])
        if dent:
            assert a.repair > 0.0


def loop_slice_moments(sdist, n):
    """E[W**m], m = 1..n, of one slice, by the rule written out on its
    1-d arrays, order by order."""
    w, f = sdist.w_grid, sdist.cdf
    steps = np.diff(w)
    h = steps[0]
    out = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, n + 1):
            if np.max(np.abs(steps - h)) <= 1e-9 * abs(h):
                integral = float(ident._integrate_uniform(w ** (m - 1) * f,
                                                          h))
                out[m - 1] = w[-1] ** m - m * integral
            else:
                wp = w ** (m + 1)
                cell = (wp[1:] - wp[:-1]) / ((m + 1) * steps)
                out[m - 1] = (w[0] ** m * f[0]
                              + float(np.sum(np.diff(f) * cell))
                              + w[-1] ** m * (1.0 - f[-1]))
    return out


@st.composite
def slices_on_two_grids(draw):
    """1 to 6 slices on two grids of 16 to 16,385 points, uniform or not,
    at scales where E[W**m] overflows or underflows from some order m;
    a slice may carry a NaN.  The second grid may equal the first in a
    distinct array."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e-30, 1e30, 1e-80, 1e80,
                                  1e-160, 1e160]))

    def grid():
        n = draw(st.integers(16, 16385))
        lo = draw(st.floats(-2.0, 1.0, **bounded))
        hi = lo + draw(st.floats(0.5, 3.0, **bounded))
        if draw(st.booleans()):
            return scale * np.linspace(lo, hi, n)
        inner = np.sort(rng.uniform(lo, hi, n - 2))
        return scale * np.unique(np.concatenate(([lo], inner, [hi])))

    first = grid()
    second = first.copy() if draw(st.booleans()) else grid()
    slices = []
    for i in range(draw(st.integers(1, 6))):
        w = second if draw(st.booleans()) else first
        cdf = np.sort(rng.uniform(0.0, 1.0, w.size))
        if rng.random() < 0.1:
            cdf[rng.integers(w.size)] = np.nan
        slices.append(ident.SliceDistribution(0.5 + i, w, cdf, 0.0, 0.0))
    return slices


def one_slice(scale):
    """A linear cdf on a uniform grid of |W| up to 2 * scale."""
    return [ident.SliceDistribution(0.5, scale * np.linspace(-1.0, 2.0, 4097),
                                    np.linspace(0.0, 1.0, 4097), 0.0, 0.0)]


@settings(max_examples=100, deadline=None)
@given(slices_on_two_grids(), st.integers(1, 6))
@example(one_slice(1e-80), 4)  # E[W**4] underflows
@example(one_slice(1e80), 4)  # E[W**4] overflows
def test_slice_moment_rows_are_the_one_slice_moments(slices, n):
    # each row has the bits of its slice on its own and of the rule
    # written out on 1-d arrays, and the batched stage refuses the first
    # slice, and in it the first order, that a loop over the slices does
    got = outcome(lambda: ident.slice_moment_rows(slices, n))
    want = outcome(lambda: np.vstack([ident.slice_moments(s, n)
                                      for s in slices]))
    if isinstance(want, tuple):
        assert got == want
        return
    assert same_bits(got, want)
    assert same_bits(got, np.vstack([loop_slice_moments(s, n)
                                     for s in slices]))


@settings(max_examples=30, deadline=None)
@given(st.floats(-6.0, 300.0, **bounded))
def test_conditional_moments_hold_for_every_sigma(log_sigma):
    # the table is formed from E[U**i] of U = Z / a0 in [-1, 1], so no
    # term grows with the sigma multiplier
    pop = pops.make_low_population(seed_ratio(), 0.5,
                                   sigma_multiplier=10.0 ** log_sigma)
    table = pops.moments(pop, 4)
    assert all(np.isfinite(v) for v in table.entries.values())
    assert abs(table[(0, 1)] - pop._mean_vm()) <= 1e-11
    even = np.array([pop._noise.moment(i) for i in range(0, 17, 2)])
    assert np.all((even >= 0.0) & (even <= 1.0))
    assert np.all(np.diff(even) <= 0.0)


CONDITIONAL_FORMS = conditional_forms()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(CONDITIONAL_FORMS)),
       st.lists(st.tuples(st.floats(0.0, 1.0, **bounded),
                          st.floats(-0.1, 1.1, **bounded),
                          st.integers(0, 9)), min_size=1, max_size=40))
@example("custom_h", [(0.9869817002381105, 0.0, 1)])  # a touch at r_hi
# on its everybody-buys bound less an ulp, a row's root lies within an
# ulp above r_lo, and the bisection's midpoint rounds onto r_lo
@example("conditional_high", [(0.75, 0.9999999999999999, 1)])
def test_crossing_roots_match_the_bisection(name, rows):
    # prices from r_lo / 2 to 2 r_hi, offsets across the saturation
    # bounds and a few NaN offsets: where both finders count the same
    # roots they agree to 1e-13 relative.  The bisection only sees a root
    # where its coarse scan changes sign, so it misses the two roots of
    # one scan cell and a touch (a row on its saturation bound touches
    # zero at an end); in a cell where the counts differ, the closed form
    # finds more, and each of its roots there is a zero of the crossing
    # function to rounding.  The closed form reports roots in
    # (r_lo, r_hi], as a root on r_lo splits no segment, so a bisection
    # root that rounds onto r_lo is dropped too
    pop = CONDITIONAL_FORMS[name]
    r_lo, r_hi = pop.ratio.r_lo, pop.ratio.r_hi
    p = np.array([0.5 * r_lo + a * (2.0 * r_hi - 0.5 * r_lo)
                  for a, _, _ in rows])
    xq = []
    for price, (_, u, k) in zip(p.tolist(), rows):
        nobody, everybody = live_offsets(pop, price)
        xq.append(np.nan if k == 0 else nobody + u * (everybody - nobody))
    xq = np.array(xq)
    grid = np.linspace(r_lo, r_hi, quadrature.COARSE)

    def cell(roots):  # the coarse scan cell of each root
        return np.clip(np.searchsorted(grid, roots, "right") - 1, 0,
                       grid.size - 2)

    for sign, new, old in zip((1.0, -1.0), closed_form_roots(pop, p, xq),
                              bisection_roots(pop, p, xq)):
        assert np.all(np.isnan(new[np.isnan(xq)]))
        for price, x, a, b in zip(p, xq, new, old):
            a, b = a[~np.isnan(a)], b[~np.isnan(b) & (b > r_lo)]
            if a.size == b.size:
                assert np.all(np.abs(a - b) <= 1e-13 * np.fmax(1.0,
                                                                np.abs(b)))
                continue
            count_a = np.bincount(cell(a), minlength=grid.size)
            count_b = np.bincount(cell(b), minlength=grid.size)
            assert np.all(count_a >= count_b)
            r = a[(count_a != count_b)[cell(a)]]
            m, eps = pop._law(r)[1:]
            edge = (m + sign * eps) * (r - price)
            assert np.all(np.abs(edge + x) <= 1e-12 * (np.abs(edge) + abs(x)))

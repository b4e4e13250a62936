"""Shared builders for the test suite: one population per family."""

import random

import numpy as np

from demandlab import populations as pops
from demandlab.marginals import MarginalSpec, PwLinearTable

# Closed-form anchors for the Uniform[1, 2] ratio seed (density g = 1,
# width L = 1): the low family tolerates offsets up to g_lo * L**2 = 1,
# the high family up to (sqrt(L**2 + 1/(4 g_lo**2)) - L) / 2.
LOW_BOUND_U12 = 1.0
HIGH_BOUND_U12 = 0.5 * (np.sqrt(1.25) - 1.0)  # 0.05901699437494745...

# Money-value means of the two stock demo populations: the low family
# with delta = 0.5 has E[vm] = int_1^2 (r - 0.5) dr = 1; the high family
# with delta = 0.04 has E[vm] = 2 (sqrt(1.04) - sqrt(0.04)).
LOW_MEAN_VM = 1.0
HIGH_MEAN_VM = 2.0 * (np.sqrt(1.04) - 0.2)


def seed_ratio(vm_hi: float = 100.0) -> pops.RatioMarginalSpec:
    return pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=vm_hi)


def kinked_ratio_low() -> pops.RatioConditionalPopulation:
    """Low family over a ratio density with one interior knot, at 1.2."""
    ratio = pops.RatioMarginalSpec.tabulated([0.5, 1.2, 2.0],
                                             [0.5, 0.9, 0.375])
    return pops.make_low_population(ratio, delta=0.5)


def zigzag_ratio_low() -> pops.RatioConditionalPopulation:
    """Low family over a ratio density with seven interior knots that
    alternate up and down, at half its largest admissible offset; its
    band edges cross a quality row more than four times."""
    r = np.linspace(0.5, 2.0, 9)
    g = 1.0 + 0.15 * (np.arange(9) % 2)
    ratio = pops.RatioMarginalSpec.tabulated(r, g / np.trapezoid(g, r))
    return pops.make_low_population(ratio,
                                    delta=0.5 * pops._low_delta_bound(ratio))


def kinked_h_custom() -> pops.RatioConditionalPopulation:
    """Custom family over a uniform ratio whose h has a knot at 1.0."""
    h = PwLinearTable.raw(np.array([0.5, 1.0, 2.0]),
                          np.array([0.4, 1.0, 0.6]))
    return pops.RatioConditionalPopulation(
        pops.RatioMarginalSpec.uniform(0.5, 2.0),
        pops.ConditionalSpec("custom", h_table=h))


def sine_table_low(knots: int) -> pops.RatioConditionalPopulation:
    """Low family over a ratio density 1 + 0.3 sin(3 r) tabulated at
    ``knots`` equispaced points of [0.5, 2], at half its largest
    admissible offset."""
    r = np.linspace(0.5, 2.0, knots)
    g = 1.0 + 0.3 * np.sin(3.0 * r)
    ratio = pops.RatioMarginalSpec.tabulated(r, g / np.trapezoid(g, r))
    return pops.make_low_population(ratio,
                                    delta=0.5 * pops._low_delta_bound(ratio))


def tent_ratio() -> pops.RatioMarginalSpec:
    """A tent-shaped tabulated ratio density on [1, 2], peaking at 1.5;
    positive at both ends, which the conditional construction needs."""
    return pops.RatioMarginalSpec.tabulated([1.0, 1.5, 2.0], [0.6, 1.4, 0.6])


def fixed_eps_high(ratio, delta) -> pops.RatioConditionalPopulation:
    """High family with a fixed truncation half-width, half the least
    conditional mean on 1,025 equispaced points of the ratio range."""
    pop = pops.make_high_population(ratio, delta)
    grid = np.linspace(ratio.r_lo, ratio.r_hi, 1025)
    eps = 0.5 * float(np.min(pop._law(grid)[1]))
    return pops.make_high_population(ratio, delta, epsilon_kind="fixed",
                                     epsilon_value=eps)


def flat_h_custom() -> pops.RatioConditionalPopulation:
    """Custom family over a uniform ratio whose h is flat on [1, 1.5]."""
    h = PwLinearTable.raw(np.array([0.5, 1.0, 1.5, 2.0]),
                          np.array([0.6, 1.0, 1.0, 0.7]))
    return pops.RatioConditionalPopulation(
        pops.RatioMarginalSpec.uniform(0.5, 2.0),
        pops.ConditionalSpec("custom", h_table=h))


def beta_independent() -> pops.IndependentPopulation:
    return pops.IndependentPopulation(
        MarginalSpec.scaled_beta(2.0, 3.0, lo=0.0, hi=1.0),
        MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5))


def population_zoo() -> dict:
    """One instance of every constructible population family."""
    ratio3 = pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0)
    return {
        "point_mass": pops.PointMassPopulation(vk=2.0, vm=1.0),
        "product": pops.ProductPopulation(
            ratio3, MarginalSpec.scaled_beta(2.0, 2.0, lo=0.5, hi=1.5)),
        "independent": beta_independent(),
        "conditional_low": pops.make_low_population(seed_ratio(), delta=0.5),
        "conditional_high": pops.make_high_population(seed_ratio(),
                                                      delta=0.04),
        "mixture": pops.MixturePopulation((
            (0.4, pops.ProductPopulation(ratio3,
                                         MarginalSpec.uniform(0.5, 1.5))),
            (0.6, pops.PointMassPopulation(vk=2.0, vm=1.0)))),
    }


def continuous_zoo() -> dict:
    """Families whose ratio law carries no atoms (smooth demand)."""
    zoo = population_zoo()
    zoo.pop("point_mass")
    zoo.pop("mixture")
    zoo["mixture"] = pops.MixturePopulation((
        (0.3, pops.ProductPopulation(
            pops.RatioMarginalSpec.uniform(1.0, 2.0, vm_hi=3.0),
            MarginalSpec.uniform(0.5, 1.5))),
        (0.7, pops.ProductPopulation(
            pops.RatioMarginalSpec.triangular(0.8, 2.2, vm_hi=3.0),
            MarginalSpec.uniform(0.5, 1.5)))))
    return zoo


def surface_zoo() -> dict:
    """Every surface kernel path: the families above, point masses,
    point-mass marginals of ``independent``, tables, a custom h, graded
    beta shapes, a wide conditional and mixtures.  The conditional forms
    give every degree of crossing polynomial on a cell: linear (a flat
    custom h), quadratic (low and custom families, and the high family
    with eps = m / 2 on a constant density), cubic (the high family on a
    sloping density, or with a fixed eps on a constant one) and quintic
    (the high family with a fixed eps on a sloping density)."""
    zoo = population_zoo()
    zoo["continuous_mixture"] = continuous_zoo()["mixture"]
    zoo.update({
        "kinked_table": kinked_ratio_low(),
        "zigzag_table": zigzag_ratio_low(),
        "custom_h": kinked_h_custom(),
        "sine_table": sine_table_low(12),
        "tent_high": pops.make_high_population(tent_ratio(), 0.05),
        "fixed_high": fixed_eps_high(seed_ratio(), 0.04),
        "fixed_high_table": fixed_eps_high(tent_ratio(), 0.05),
        "flat_h_custom": flat_h_custom(),
        "wide_conditional": pops.make_low_population(
            seed_ratio(), 0.5, sigma_multiplier=1e4),
        "point_mass_vk": pops.IndependentPopulation(
            MarginalSpec.point_mass(0.8), MarginalSpec.uniform(0.5, 1.5)),
        "point_mass_vm": pops.IndependentPopulation(
            MarginalSpec.uniform(0.0, 1.0), MarginalSpec.point_mass(1.2)),
        "product_table": pops.ProductPopulation(
            pops.RatioMarginalSpec.tabulated(
                [0.5, 1.0, 2.0], np.array([0.5, 1.0, 0.4]) / 1.075),
            MarginalSpec.scaled_beta(1.5, 2.5, 0.0, 2.0)),
        "mixture_with_conditional": pops.MixturePopulation((
            (0.3, pops.PointMassPopulation(vk=1.0, vm=2.0)),
            (0.3, beta_independent()),
            (0.4, kinked_ratio_low()))),
    })
    for a in (0.5, 1.2, 2.5):
        zoo[f"graded_beta{a}"] = pops.IndependentPopulation(
            MarginalSpec.scaled_beta(2.0, 3.0, 0.0, 1.0),
            MarginalSpec.scaled_beta(a, 2.0, 0.5, 1.5))
    return zoo


def benchmark_populations(seed: int) -> dict:
    """The populations of the benchmark's two identify workloads at
    ``seed``, drawn as ``perfbench/bench_inputs.py`` draws them: the twins
    on a uniform ratio on [1, 2] with vm_hi 100, and the smooth forms with
    integer beta shapes and their even mixture."""
    rng = random.Random(f"identify_conditional:{seed}")
    ratio = seed_ratio()
    out = {"low": pops.make_low_population(ratio, rng.uniform(0.46, 0.55)),
           "high": pops.make_high_population(ratio,
                                             rng.uniform(0.035, 0.045))}
    rng = random.Random(f"identify_smooth:{seed}")
    vk = (rng.choice((2, 3)), rng.choice((3, 4)))
    vm_ind = (rng.choice((2, 3)), rng.choice((2, 3)))
    vm_prod = (rng.choice((2, 3)), rng.choice((2, 3)))
    out["independent"] = pops.IndependentPopulation(
        MarginalSpec.scaled_beta(*vk, 0.0, 1.0),
        MarginalSpec.scaled_beta(*vm_ind, 0.5, 1.5))
    out["product"] = pops.ProductPopulation(
        pops.RatioMarginalSpec.uniform(1.0, 2.0),
        MarginalSpec.scaled_beta(*vm_prod, 0.5, 1.5))
    out["mixture"] = pops.MixturePopulation(
        ((0.5, out["independent"]), (0.5, out["product"])))
    return out


def takes_closed_product(pop) -> bool:
    """Whether a product population, or a product component of a
    mixture, has a polynomial money-value density, so that its kernel
    integrates live rows in closed form over the money value."""
    parts = (pop.components if isinstance(pop, pops.MixturePopulation)
             else ((1.0, pop),))
    return any(isinstance(part, pops.ProductPopulation)
               and part.vm.degree is not None for _, part in parts)


def column_kernel(pop, p, xq):
    """One scalar-price kernel call on every row of the column at ``p``:
    its values and worst estimate.  A mixture's are the weighted sums of
    its components', in component order, as its surface column's are."""
    if isinstance(pop, pops.MixturePopulation):
        values, error = 0.0, 0.0
        for w, part in pop.components:
            v, e = column_kernel(part, p, xq)
            values = values + w * v
            error = error + w * e
        return values, error
    values, errors = pop._quality_profile(float(p), xq)
    return values, float(np.max(errors, initial=0.0))


def box_bounds(pop, p: float):
    """Quality offsets below which nobody buys and above which everybody
    buys at price p >= 0, from the support box alone: with vk >= 0 and
    0 < vm <= vm_hi, max(-vk_upper, -vm_hi max(r_hi - p, 0)) and
    min(p vm_hi, vm_hi max(p - r_lo, 0))."""
    sup = pop.support
    return (max(-pop.vk_upper, -sup.vm_hi * max(sup.r_hi - p, 0.0)),
            min(p * sup.vm_hi, sup.vm_hi * max(p - sup.r_lo, 0.0)))


def live_offsets(pop, p):
    """The offsets between which a row at price ``p`` (a scalar or an
    array) can cross the band of a ratio_conditional population: -max
    and -min of W = vm (r - p) over the law.  Nobody buys below the
    first and everybody above the second.  On a cell [r0, r1] of the
    ``_cells`` grid the band edges (1 -/+ a) m -/+ b, for the half-width
    rule eps = a m + b, are monotone, so vm lies between their least and
    most end values lo and hi there, and W is at most hi (r1 - p), or
    lo (r1 - p) where r1 < p, and at least hi (r0 - p), or lo (r0 - p)
    where r0 > p."""
    r, m = pop._cells[0], pop._cells[3]
    a, b = pop._half_width
    low_edge, high_edge = (1.0 - a) * m - b, (1.0 + a) * m + b
    lo = np.minimum(low_edge[:-1], low_edge[1:])
    hi = np.maximum(high_edge[:-1], high_edge[1:])
    p = np.asarray(p, dtype=float)[..., None]
    below, above = r[:-1] - p, r[1:] - p
    top = np.max(np.where(above >= 0.0, hi, lo) * above, axis=-1)
    bottom = np.min(np.where(below <= 0.0, hi, lo) * below, axis=-1)
    return -top, -bottom


def worker_names(run) -> list:
    """The pool's threads among the drainers of one run (see the
    ``drainers`` fixture)."""
    return [name for name in run if name.startswith("demandlab-worker")]


def same_bits(a, b) -> bool:
    """Equal arrays of floats, bit for bit (NaN equals NaN; 0.0 differs
    from -0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _edge_roots(pop, p, xq, solve):
    """Per band edge of a ratio_conditional population, the crossing
    roots that ``solve(sign, p, xq, starts)`` returns for the rows sorted
    by price, then by offset: an (n, k) matrix in the order of the rows
    ``p``, ``xq``, each row's roots ascending and padded with NaN."""
    p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                np.asarray(xq, dtype=float))
    order = np.lexsort((xq, p))
    ps, xs = p[order], xq[order]
    starts = np.flatnonzero(np.r_[True, ps[1:] != ps[:-1]])
    out = []
    for sign in (1.0, -1.0):
        found = solve(sign, ps, xs, starts)
        found = np.sort(np.where(found < pop.ratio.r_hi, found, np.nan),
                        axis=1)
        out.append(np.empty_like(found))
        out[-1][order] = found
    return out


def closed_form_roots(pop, p, xq):
    """The crossing roots of ``_crossing_roots``, per band edge."""
    return _edge_roots(pop, p, xq, pop._crossing_roots)


def bisection_roots(pop, p, xq):
    """The crossing roots that ``quadrature.solve_crossings`` brackets on
    its coarse scan, per band edge: the reference root finder."""
    def solve(sign, ps, xs, starts):
        def psi(r, rows):
            m, eps = pop._law(r)[1:]
            return (m + sign * eps) * (r - ps[rows]) + xs[rows]
        return pops.quadrature.solve_crossings(psi, pop.ratio.r_lo,
                                               pop.ratio.r_hi, xs.size,
                                               starts)
    return _edge_roots(pop, p, xq, solve)


def conditional_forms() -> dict:
    """The ratio_conditional populations of ``surface_zoo()``."""
    return {name: pop for name, pop in surface_zoo().items()
            if isinstance(pop, pops.RatioConditionalPopulation)}


def conditional_reference(pop, p, xq):
    """A ratio_conditional row integrated over the ratio r on the whole
    support, split at p, at its crossing roots and at the knots: the
    integrand g(r) P(buy | r), where the row buys when vm (r - p) + xq
    >= 0, so when vm >= -xq / (r - p) above p and vm <= -xq / (r - p)
    below it.  The kernel integrates over the threshold -xq / (r - p)
    instead, and takes the saturated mass outside its hulls in closed
    form."""
    p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                np.asarray(xq, dtype=float))
    r_lo, r_hi = pop.ratio.r_lo, pop.ratio.r_hi
    roots = [np.where(np.isnan(R), r_hi, R)
             for R in closed_form_roots(pop, p, xq)]
    breaks = np.concatenate(
        (*roots, np.clip(p, r_lo, r_hi)[:, None],
         np.broadcast_to(pop._knots, (xq.size, pop._knots.size))), axis=1)
    noise = pop._noise  # vm = m + eps U given r, U symmetric

    def integrand(nodes, rows):
        g, m, eps = pop._law(nodes)
        c = nodes - p[rows][:, None]
        x = xq[rows][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (-x / np.where(c != 0.0, c, 1.0) - m) / eps
        above, below = noise.cdf(-u), noise.cdf(u)
        s = np.where(c > 0.0, above,
                     np.where(c < 0.0, below, (x >= 0.0).astype(float)))
        return g * s

    return pops.quadrature.segmented_gl(r_lo, r_hi, breaks, integrand,
                                        tol=pops.SURFACE_TOL)


def full_range_profile(pop, p, xq):
    """A population's quality kernel with every row integrated over its
    whole range, ratio support or vm support, split where the row's
    inner cdf starts or stops moving: the reference for the kernels'
    live ranges, whose saturated parts take closed-form mass.  A priced
    row of a point-mass vk is vm's cdf at (vk + xq) / p; other closed
    forms (point masses, a free price, a point-mass vm) are the kernel's
    own."""
    p, xq = np.broadcast_arrays(np.asarray(p, dtype=float),
                                np.asarray(xq, dtype=float))
    quad = pops.quadrature.segmented_gl
    if isinstance(pop, pops.MixturePopulation):
        values, errors = 0.0, 0.0
        for w, part in pop.components:
            v, e = full_range_profile(part, p, xq)
            values, errors = values + w * v, errors + w * e
        return values, errors
    if isinstance(pop, pops.RatioConditionalPopulation):
        return conditional_reference(pop, p, xq)
    if isinstance(pop, pops.ProductPopulation):
        r_lo, r_hi = pop.ratio.r_lo, pop.ratio.r_hi
        knots = pop.ratio.law.knots[1:-1]
        cols = [np.clip(p, r_lo, r_hi)[:, None],
                np.broadcast_to(knots, (xq.size, knots.size))]
        with np.errstate(over="ignore"):  # a tiny vm.lo: the break clips
            cols += [(p - xq / edge)[:, None]
                     for edge in (pop.vm.lo, pop.vm.hi) if edge > 0.0]

        def integrand(nodes, rows):
            x = xq[rows][:, None]
            c = nodes - p[rows][:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(c != 0.0, -x / np.where(c != 0.0, c, 1.0), 0.0)
            f_at_t = np.asarray(pop.vm.cdf(t))
            s = np.where(c > 0.0, 1.0 - f_at_t,
                         np.where(c < 0.0, f_at_t, (x >= 0.0).astype(float)))
            return pop.ratio.pdf(nodes) * s

        return quad(r_lo, r_hi, np.concatenate(cols, axis=1), integrand,
                    tol=pops.SURFACE_TOL,
                    grade=pops._grade(pop.vm.end_shape + 1.0))
    values, errors = pop._quality_profile(p, xq)
    if isinstance(pop, pops.IndependentPopulation) and pop.vk.is_degenerate:
        priced = p != 0.0
        values[priced] = pop.vm.cdf((pop.vk.value + xq[priced]) / p[priced])
        errors[priced] = 0.0
    elif (isinstance(pop, pops.IndependentPopulation)
            and not pop.vm.is_degenerate):
        priced = p != 0.0
        ps, xs = p[priced], xq[priced]

        def integrand(nodes, rows):
            sk = 1.0 - np.asarray(pop.vk.cdf(ps[rows][:, None] * nodes
                                             - xs[rows][:, None]))
            return pop.vm.pdf(nodes) * sk

        values[priced], errors[priced] = quad(
            pop.vm.lo, pop.vm.hi,
            np.column_stack(((pop.vk.lo + xs) / ps, (pop.vk.hi + xs) / ps)),
            integrand, tol=pops.SURFACE_TOL,
            grade=pops._grade(pop.vm.end_shape, pop.vk.end_shape + 1.0),
            degree=pop._degree(1))
    return values, errors

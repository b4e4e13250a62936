"""Quadrature of a family of row integrands, and of one integrand.

The helpers work on a family of integrands that differ only through a
row parameter, splitting each row's interval at known kinks or at kinks
located in closed form.  They are the workhorses behind quality-demand
surfaces.  ``poly_roots`` finds the real roots of one low-degree
polynomial per row on an interval: a ``ratio_conditional`` surface's
band edges cross a row's price line at such roots on each cell of its
law.  ``solve_crossings``, a coarse scan and bisection of any row-indexed
function, is the tests' reference for those roots and has no caller in
the package.  For the integrals, whatever their row count,
``segmented_gl`` is the one driver.  Its bounds are shared or one pair
per row, so a kernel row integrates only the range where its integrand
has no closed form.  It flattens every row's positive-width segments
into one list of (row, interval) pairs and hands
them to the integrand in blocks of at most ``INTERVAL_BLOCK`` * 21
nodes: a surface puts the rows of all its prices into one call, and
small blocks keep the integrand's node-sized temporaries at a few
hundred kB however many rows the call holds.  An integrand may
overwrite its node matrix, or return it, but must not keep it: once the
integrand has returned, the pass reuses the matrix for |integrand|
unless the values share its memory.  The blocks of a pass run
in order on the calling thread, whatever the CPU count: between its
special-function calls an integrand is short NumPy operations that
hold Python's global interpreter lock, and on 2 CPUs a worker pool
made the benchmark's passes no faster.  Each interval gets the
nested Gauss-Kronrod pair G10/K21 of QUADPACK (Piessens et al. 1983):
21 integrand values give its integral and, from |K21 - G10|, its error
estimate.  A row is finished once its summed estimate meets the absolute
tolerance; otherwise only its intervals above their share of the
remaining budget are bisected, so the node count follows each row's own
error.  A row whose absolute integral is so large that the tolerance
lies below its round-off is held to its round-off instead.  An integrand
that the caller knows to be a polynomial of degree d between its breaks
(densities and cdfs of uniform and integer-shape beta laws) takes an
exact rule instead: one pass of the (d // 2 + 1)-node Gauss-Legendre
rule on every segment, with each row's round-off floor as its estimate.
It uses the same segments, blocks and row-order sums, and its
nodes are computed on first use for each node count.  With
``grade`` m > 1 each segment is first mapped onto [0, 1] by
u = a + (b - a) I_t(m, m), whose Jacobian vanishes to order m - 1 at
both ends: an end-point term |u - a|^(s - 1) becomes t^(m s - 1), which
the rule resolves when m s is an integer or at least 2.  Each row's
value and estimate depend on its own breaks and integrand values only,
never on the other rows of the call.  ``integrate`` is
the one-row case for a single vectorized integrand f(x).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureFailure


# QUADPACK qk21: the positive Kronrod abscissae, the last one 0, with
# their K21 weights; the G10 nodes are every second abscissa from the
# second, with the weights _WG10.
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208292222815, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG10 = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# The 21 nodes in ascending order with their K21 weights, and K21 - G10
# as weights on the same nodes.
_XK21 = np.concatenate((-_XK_HALF[:-1], _XK_HALF[::-1]))
_WK21 = np.concatenate((_WK_HALF[:-1], _WK_HALF[::-1]))
_WG_HALF = np.zeros(11)
_WG_HALF[1::2] = _WG10
_WKG = _WK21 - np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))

# segmented_gl: bisection passes before a row that misses its tolerance
# fails, and the most intervals a row may have pending after a pass.
# Over the test suite and the benchmark workloads no row that met its
# tolerance had more than 6 pending after a pass, or more than 43
# segments before the first.
MAX_LEVELS = 20
MAX_PENDING = 1024
# solve_crossings: coarse scan points and bisection steps per bracketed
# cell; poly_roots takes at most BISECTIONS steps on a monotone piece.
COARSE = 513
BISECTIONS = 64
# segmented_gl: G10/K21 intervals per integrand call, which bounds the
# size of the node arrays whatever the number of rows (see the module
# docstring); a block of the exact rule holds as many nodes.
INTERVAL_BLOCK = 2 ** 10
# segmented_gl: a row's tolerance is at least this many ulps of its
# absolute integral (QUADPACK qk21's round-off level).
ROUNDOFF = 50.0 * np.finfo(float).eps


@functools.cache
def _gauss_legendre(n: int):
    """The n Gauss-Legendre nodes on [-1, 1], ascending, and their
    weights, computed on first use for each n.

    Newton's method on the Legendre polynomial P_n runs in 40-digit
    decimal arithmetic from the asymptotic guess cos(pi (i - 1/4) /
    (n + 1/2)); each node x and its weight 2 (1 - x^2) / (n P_{n-1}(x))^2
    is then rounded to a float.  A weight formed in floating point from
    the rounded node would be off by up to hundreds of ulps near the ends
    (NumPy's ``leggauss`` integrates 31 (1 - t)^30 over [0, 1] with 31
    nodes to 4e-14), and the weight of an end node is where a density
    piled against a support end puts its mass.
    """
    import decimal  # only the first call of each n needs it
    with decimal.localcontext(decimal.Context(prec=40)):
        def legendre(x):  # P_{n-1}(x) and P_n(x) by their recurrence
            p0, p1 = decimal.Decimal(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            return p0, p1

        nodes, weights = [], []  # the positive nodes, descending
        for i in range(1, n // 2 + 1):
            x = decimal.Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
            for _ in range(20):
                p0, p1 = legendre(x)
                step = p1 * (1 - x * x) / (n * (p0 - x * p1))
                x -= step
                if abs(step) < decimal.Decimal("1e-36"):
                    break
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * legendre(x)[0]) ** 2))
        middle = ([float(2 / (n * legendre(decimal.Decimal(0))[0]) ** 2)]
                  if n % 2 else [])
    x, w = np.array(nodes), np.array(weights)
    return (np.concatenate((-x, [0.0] if n % 2 else [], x[::-1])),
            np.concatenate((w, middle, w[::-1])))


def integrate(f, a: float, b: float, *, tol: float, breakpoints=()) -> float:
    """Integrate a vectorized integrand ``f(x)`` over [a, b] to the
    absolute tolerance ``tol``: the one-row case of :func:`segmented_gl`,
    split at the ``breakpoints`` inside (a, b) where ``f`` is known to be
    non-smooth.  A value that is not finite raises
    :class:`QuadratureFailure`.
    """
    if b == a:
        return 0.0
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    breaks = np.array([[p for p in breakpoints if a < p < b]], dtype=float)
    values, errors = segmented_gl(a, b, breaks, lambda nodes, rows: f(nodes),
                                  tol=tol)
    if not np.isfinite(values[0]):
        raise QuadratureFailure(
            f"integral over [{float(a)!r}, {float(b)!r}] is {values[0]}",
            achieved=float(errors[0]), requested=tol)
    return float(values[0])


def solve_crossings(psi, lo: float, hi: float, n_rows: int,
                    starts=(0,)) -> np.ndarray:
    """Locate sign changes of a row-indexed function by bisection.

    The reference root finder of the tests: the package finds its
    crossing roots with :func:`poly_roots`, and calls this nowhere.

    ``psi(r, rows)`` evaluates rows ``rows`` at abscissae ``r`` and
    returns values of their broadcast shape, so a part shared by all
    rows is computed once per abscissa.  Each row is an independent
    one-dimensional root problem (the row index selects, e.g., one
    (price, quality offset) pair).

    ``starts`` holds the first row of each group of consecutive rows, in
    ascending order; by default all rows form one group.  Precondition:
    at every abscissa ``psi`` is nondecreasing in the row index within a
    group, as ``f(r) + c[rows]`` is for sorted ``c`` (``fl(a + x)`` is
    monotone in x, so this holds exactly in floating point); a NaN value
    counts as nonnegative, so rows that give NaN go last in their group.
    Then a group's rows with ``psi >= 0`` at a scan point are a suffix,
    found by binary search, and the coarse scan of ``COARSE`` points
    costs ``COARSE * ceil(log2(n + 1))`` evaluations per group of n rows,
    made for all groups in the same ``psi`` calls.  The rows between the
    suffix starts of two neighbouring scan points are exactly those whose
    sign flips in that cell; only these (row, cell) pairs are bisected,
    at most ``BISECTIONS`` times each.  The bisection stops early once a
    pass changes no pair: ``psi`` is deterministic, so every later pass
    would change nothing either.

    Returns an (n_rows, k) matrix of each row's roots in ascending
    order, padded with ``hi``, where k is the most roots any row has
    (0 when no row has one).  Roots are only located where the coarse
    scan sees a sign flip, which is adequate for the piecewise-monotone
    crossing functions used here.  A row's roots depend on its own
    values of ``psi`` only, never on the other rows or groups.
    """
    grid = np.linspace(lo, hi, COARSE)
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.append(starts[1:], n_rows)
    # binary search at every group and scan point for split[g, j], the
    # first row of group g with psi(grid[j], row) >= 0 or NaN (the end of
    # the group if none)
    split = np.repeat(starts[:, None], COARSE, axis=1)
    top = np.repeat(ends[:, None], COARSE, axis=1)
    for _ in range(int(np.max(ends - starts, initial=0)).bit_length()):
        mid = (split + top) // 2
        up = ~(psi(grid, np.minimum(mid, n_rows - 1)) < 0.0)
        open_ = split < top
        top = np.where(open_ & up, mid, top)
        split = np.where(open_ & ~up, mid + 1, split)
    # cell j of a group brackets the rows from the lower of its two
    # splits up to the higher one
    start = np.minimum(split[:, :-1], split[:, 1:]).ravel()
    count = np.abs(np.diff(split, axis=1)).ravel()
    cells = np.repeat(np.tile(np.arange(COARSE - 1), starts.size), count)
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
        state = (np.where(left, a, m), np.where(left, m, b),
                 np.where(left, fa, fm))
        if all(np.array_equal(new.view(np.int64), old.view(np.int64))
               for new, old in zip(state, (a, b, fa))):
            break
        a, b, fa = state
    roots[rows, slot] = 0.5 * (a + b)
    return roots


def _horner(coef, x):
    """The polynomials with coefficients ``coef[0], coef[1], ...`` (lowest
    power first, each broadcasting against ``x``) at ``x``."""
    out = coef[-1] * x
    for c in coef[-2:0:-1]:
        out += c
        out *= x
    out += coef[0]
    return out


def poly_roots(coef: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Real roots in [0, width] of one polynomial per row.

    ``coef`` is (n, d + 1) with d >= 2, lowest power first, and
    ``width`` is (n,).  Returns an (n, d) matrix of each row's roots in
    ascending order, padded with NaN.  At d = 2 they come in closed form
    from the stable quadratic formula: with
    q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2 the roots are q / a and c / q,
    or -c / b when a = 0, and a double root counts twice; a root too
    large for a float lies outside [0, width].  Above degree 2 the real
    roots of the derivative, found by this same routine, cut [0, width]
    into pieces on which the polynomial is monotone.  Each piece whose
    ends differ in sign (zero counting as nonnegative) holds one root.
    Its bracket starts as the piece and takes safeguarded Newton steps,
    with Horner's rule for the polynomial and its derivative: each step
    is pushed 2^-50 relative past the point it aims at, so that near the
    root it lands on the far side and both ends of the bracket close in,
    and a step that leaves the bracket bisects it instead.  It stops on
    a bracket of adjacent floats or an exact zero, after at most
    ``BISECTIONS`` steps, and the root is the bracket's midpoint.  A
    row's roots depend on its own coefficients only.
    """
    n, d = coef.shape[0], coef.shape[1] - 1
    width = np.asarray(width, dtype=float)
    if d == 2:
        c0, c1, c2 = coef.T
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0),
                                         c1))
            one = np.where(c2 != 0.0, q / c2, -c0 / c1)
            two = np.where(c2 == 0.0, np.nan,
                           np.where(q != 0.0, c0 / q, one))
        roots = np.column_stack((one, two))
        roots[~((roots >= 0.0) & (roots <= width[:, None]))] = np.nan
        return np.sort(roots, axis=1)
    slope = coef[:, 1:] * np.arange(1, d + 1)
    crit = poly_roots(slope, width)
    ends = np.column_stack((np.zeros(n),
                            np.where(np.isnan(crit), width[:, None], crit),
                            width))
    neg = _horner(coef.T[:, :, None], ends) < 0.0
    row, piece = np.nonzero(neg[:, :-1] != neg[:, 1:])
    a, b = ends[row, piece], ends[row, piece + 1]
    sign_a, line, slope = neg[row, piece], coef[row].T, slope[row].T
    x, moved = 0.5 * (a + b), b - a
    found, pending = np.empty(row.size), np.arange(row.size)
    for _ in range(BISECTIONS):
        f = _horner(line, x)
        left = (f < 0.0) != sign_a  # the root lies in (a, x]
        zero = f == 0.0
        a, b = np.where(left & ~zero, a, x), np.where(left | zero, x, b)
        mid = 0.5 * (a + b)
        open_ = (mid > a) & (mid < b)
        # a closed bracket keeps its ends; once half the brackets are
        # closed, later steps take the open ones only
        if 2 * np.count_nonzero(open_) <= open_.size:
            found[pending[~open_]] = mid[~open_]
            pending, a, b, mid, x, f, moved, sign_a, line, slope = (
                v[..., open_] for v in (pending, a, b, mid, x, f, moved,
                                        sign_a, line, slope))
            if not pending.size:
                break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = f / _horner(slope, x)
            newton = x - step
            newton -= np.copysign(2.0 ** -50 * np.abs(newton), step)
        # a step that leaves the bracket, or that does not halve the last
        # move, as near a double root, bisects
        take = (newton > a) & (newton < b) & (np.abs(step) <= 0.5 * moved)
        moved = np.abs(np.where(take, newton, mid) - x)
        x = np.where(take, newton, mid)
    found[pending] = 0.5 * (a + b)
    roots = np.full((n, d), np.nan)
    # pieces come sorted by row, then by position
    roots[row, np.arange(row.size) - np.searchsorted(row, row)] = found
    return roots


def _estimate(f, half, kronrod):
    """Error estimate of G10/K21 on intervals of half-width ``half``.

    |K21 - G10| alone can fall below the true error on an interval that
    holds a kink it does not resolve, where both rules err alike.
    QUADPACK's qk21 therefore rescales it with the integrand's mean
    deviation resasc = int |f - mean| to
    resasc * min(1, (200 |K21 - G10| / resasc)^1.5), which is resasc
    itself on such an interval.  The rescaling also shrinks small
    estimates, so the larger of the two is taken: the estimate is never
    below |K21 - G10|.
    """
    diff = np.abs(half * np.einsum("ij,j->i", f, _WKG))
    mean = (0.5 * kronrod / half)[:, None]
    asc = half * np.einsum("ij,j->i", np.abs(f - mean), _WK21)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = asc * np.fmin(1.0, (200.0 * diff / asc) ** 1.5)
    return np.fmax(diff, scaled)


def _graded_map(t, a, b, m: int):
    """Nodes u = a + (b - a) I_t(m, m) of the parameters ``t`` on each
    line's segment [a, b].  The regularized incomplete beta I_t(m, m) is
    a polynomial for integer m; each end is measured from its own side,
    so u keeps its relative accuracy near both a and b."""
    s = np.minimum(t, 1.0 - t)
    phi = sum(math.comb(2 * m - 1, j) * s ** j * (1.0 - s) ** (2 * m - 1 - j)
              for j in range(m, 2 * m))
    a, b = a[:, None], b[:, None]
    return np.where(t <= 0.5, a + (b - a) * phi, b - (b - a) * phi)


def _graded(t, a, b, m: int):
    """The nodes of :func:`_graded_map`, the Jacobian du/dt, and which
    lines had a node round onto an end.  A node that rounds onto an end
    is moved to the next float inside, or left on the end when there is
    none."""
    u = _graded_map(t, a, b, m)
    a, b = a[:, None], b[:, None]
    blind = np.any((u <= a) | (u >= b), axis=1)
    u = np.clip(u, np.nextafter(a, b), np.nextafter(b, a))
    scale = math.factorial(2 * m - 1) / math.factorial(m - 1) ** 2
    return u, (b - a) * scale * (t * (1.0 - t)) ** (m - 1), blind


def segmented_gl(lo, hi, breaks: np.ndarray, integrand, *, tol: float,
                 grade: int = 1, degree: int | None = None):
    """Integrate one integrand per row over [lo, hi], split at its breaks.

    ``lo`` and ``hi`` are scalars or arrays with one value per row.
    ``breaks`` is (n_rows, k); entries outside a row's (lo, hi) are
    clipped to its nearest endpoint, and zero-width segments are dropped,
    so a row with lo == hi has no segment, makes no integrand call and
    returns 0 with estimate 0.  A NaN bound, like a NaN break, gives its
    row a NaN value and estimate.
    ``integrand(nodes, rows)`` gets an (m, 21) node matrix, one interval
    per line, and the row index of each line, and returns the (m, 21)
    integrand values.  It may overwrite ``nodes`` or return it, but must
    not keep it: after the call the node matrix holds |integrand| for the
    round-off size, unless the values share its memory.  Each pass applies
    G10/K21 to every pending interval.  A row whose summed estimate is at
    most its tolerance, the larger of ``tol`` (absolute; a scalar, or an
    array with one value per row) and ``ROUNDOFF`` times the integral of
    |integrand| over the row, is finished; a NaN estimate finishes its
    row too, since refining cannot mend it.  In the
    other rows each interval whose estimate exceeds the row's remaining
    budget over its pending interval count is bisected, and the rest are
    kept.  A row still short after ``MAX_LEVELS`` bisection passes raises
    :class:`QuadratureFailure` with the worst such row's index, estimate
    and tolerance; its message names that row's interval with the
    largest estimate.
    ``grade`` > 1 integrates each segment in the graded variable of the
    module docstring, for integrands with algebraic end-point terms at
    ``lo``, ``hi`` or the breaks.

    ``degree`` d, for an integrand that is a polynomial of degree at
    most d between its breaks, takes instead one pass of the
    Gauss-Legendre rule of d // 2 + 1 nodes, exact for it, on every
    segment (the node matrix has that many columns); each row's estimate
    is its round-off floor, ``ROUNDOFF`` times the integral of
    |integrand|, and ``tol`` is not consulted.

    Returns per-row integrals and their error estimates.
    """
    if degree is None:
        x, w = _XK21, _WK21
    elif grade > 1:
        raise ValueError("an exact rule takes no graded variable")
    else:
        x, w = _gauss_legendre(degree // 2 + 1)
    # a block holds at most INTERVAL_BLOCK * 21 nodes whatever the rule
    span = INTERVAL_BLOCK * _XK21.size // x.size
    n_rows = breaks.shape[0]
    lo, hi = (np.broadcast_to(np.asarray(end, dtype=float)[..., None],
                              (n_rows, 1)) for end in (lo, hi))
    edges = np.concatenate(
        (lo, np.sort(np.clip(breaks, lo, hi), axis=1), hi), axis=1)
    # pairs are kept sorted by row and, within a row, by position, so a
    # row sums its intervals in the same order whatever the other rows do.
    # The passes sum over the rows that have segments, renumbered 0, 1,
    # ... in order (``used`` maps them back); the end scatters their sums
    ncol = edges.shape[1] - 1
    flat = np.flatnonzero(np.diff(edges, axis=1) != 0.0)  # NaN is kept
    if ncol > 1:
        row = flat // ncol
        first = np.ones(row.size, dtype=bool)
        np.not_equal(row[1:], row[:-1], out=first[1:])
        used, rows = row[first], np.cumsum(first) - 1
    else:  # a row has at most one segment
        row = used = flat
        rows = np.arange(flat.size)
    # a segment's left end sits one place per earlier row further on in
    # the flat edges
    left = flat + row
    a, b = edges.ravel()[left], edges.ravel()[left + 1]
    tol = np.asarray(tol)[used] if np.ndim(tol) else tol
    if grade > 1:
        # intervals run over [0, 1] in the graded variable of their segment
        seg_a, seg_b = a, b
        a, b = np.zeros(rows.size), np.ones(rows.size)
    values = np.zeros(used.size)
    errors = np.zeros(used.size)
    sizes = np.zeros(used.size)  # integral of |integrand| over kept intervals
    for level in range(MAX_LEVELS + 1):
        k, e, size = (np.empty(rows.size), np.empty(rows.size),
                      np.empty(rows.size))

        for start in range(0, rows.size, span):
            part = slice(start, start + span)
            half = 0.5 * (b[part] - a[part])
            # formed a node column at a time, each a pass over the block's
            # lines, then copied to one interval per line: at the 4 or 5
            # columns of an exact rule, half the time of forming it line by
            # line
            nodes = np.multiply.outer(x, half)
            nodes += a[part] + half
            nodes = nodes.T.copy()
            # a node can round outside an interval a few ulps wide; the
            # nodes of a line ascend, so its first and last tell
            off = (nodes[:, 0] < a[part]) | (nodes[:, -1] > b[part])
            if off.any():
                nodes[off] = np.clip(nodes[off], a[part][off, None],
                                     b[part][off, None])
            if grade > 1:
                nodes, jac, blind = _graded(nodes, seg_a[part], seg_b[part],
                                            grade)
                f = integrand(nodes, used[rows[part]]) * jac
            else:
                f = integrand(nodes, used[rows[part]])
            k[part] = half * np.einsum("ij,j->i", f, w)
            # |f| goes into the node matrix unless f is (in) that matrix
            size[part] = half * np.einsum("ij,j->i", np.abs(
                f, out=None if np.may_share_memory(f, nodes) else nodes), w)
            if degree is not None:
                continue
            e[part] = _estimate(f, half, k[part])
            if grade > 1:
                # a node rounded onto an end saw the integrand at the
                # wrong place, so all of the interval's mass is in doubt
                e[part] = np.where(blind, np.fmax(e[part], size[part]),
                                   e[part])
        if degree is not None:  # every row is finished
            values = np.bincount(rows, k, used.size)
            errors = ROUNDOFF * np.bincount(rows, size, used.size)
            break
        total = errors + np.bincount(rows, e, used.size)
        row_tol = np.fmax(tol, ROUNDOFF * (
            sizes + np.bincount(rows, size, used.size)))
        short = total[rows] > row_tol[rows]
        split = short & (e > (row_tol - errors)[rows]
                         / np.bincount(rows, minlength=used.size)[rows])
        keep = ~split
        values += np.bincount(rows[keep], k[keep], used.size)
        errors += np.bincount(rows[keep], e[keep], used.size)
        sizes += np.bincount(rows[keep], size[keep], used.size)
        if not split.any():
            break
        pending = 2 * np.bincount(rows[split]).max()
        if level == MAX_LEVELS or pending > MAX_PENDING:
            bad = np.unique(rows[short])
            row = bad[np.argmax(total[bad])]
            i = np.argmax(np.where(rows == row, e, -np.inf))
            ends = np.array([[a[i], b[i]]])
            if grade > 1:
                ends = _graded_map(ends, seg_a[[i]], seg_b[[i]], grade)
            lo_i, hi_i = ends[0].tolist()
            cap = (f" (the next would leave {pending} > {MAX_PENDING} "
                   f"intervals in one row)" if pending > MAX_PENDING else "")
            raise QuadratureFailure(
                f"{bad.size} rows missed tolerance after {level} bisection "
                f"passes{cap}; the worst has err {total[row]:.3e} > "
                f"{row_tol[row]:.3e} and its worst interval "
                f"[{lo_i!r}, {hi_i!r}]",
                achieved=float(total[row]), requested=float(row_tol[row]),
                row=int(used[row]))
        rows, a, b = rows[split], a[split], b[split]
        mid = 0.5 * (a + b)
        rows = np.repeat(rows, 2)
        a, b = (np.column_stack((a, mid)).ravel(),
                np.column_stack((mid, b)).ravel())
        if grade > 1:
            seg_a = np.repeat(seg_a[split], 2)
            seg_b = np.repeat(seg_b[split], 2)
    return np.bincount(used, values, n_rows), np.bincount(used, errors, n_rows)

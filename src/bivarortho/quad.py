"""Quadrature and summation engines.

Gauss rules for the continuous radial measures (nodes the eigenvalues of
the Jacobi matrix of the closed-form recurrence, weights the Christoffel
numbers from the np.longdouble monic rows at them), longdouble
q-lattice sums with certified tail bounds (each lattice direction an array
of points and closed-form weights, walked in chunks under one stop rule),
block-diagonal Gram assembly for the bivariate families (one radial Gram
per circle-harmonic index, V W V^T as one np.dot of the rows V at a rule's
points: the Gauss nodes, with the monic rows of the rule times their
leading coefficients, or the lattice points the walk keeps, its stop rule
read on the diagonal terms, with the rows evaluated by the recurrence on
the q-Laguerre lattice and for wall and little q-Jacobi by the terminating
Newton form at the points q^k, divided by the square roots of the block's
norms and the block scaled back), the Gram summary shared with the
Askey–Wilson checks, and zero-circle monotonicity checks, whose zeros are
refined by Brent's bracketed root finder on the recurrence values.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import radial
from .qcalc import qpochhammer


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes, positive weights, the highest polynomial degree
    integrated exactly, and the monic rows p_0..p_{npts-1} at the nodes in
    np.longdouble, which the weights are formed from."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    monic: np.ndarray


def golub_welsch(fam, alpha, npts):
    """Gauss rule for the measure x^alpha dnu of a continuous radial family,
    from one closed-form recurrence (A, B) of order npts.

    Nodes are the eigenvalues of its Jacobi matrix (numpy.linalg.eigvalsh,
    the route of radial.radial_zeros).  Weights are the Christoffel numbers
    w_i = 1 / sum_{k<npts} p_k(x_i)^2 / h_k, with h_k = mass B_1 ... B_k the
    squared norms of the monic p_k, summed from the np.longdouble monic rows
    at the nodes (Golub and Welsch 1969; Gautschi 2004, Orthogonal
    Polynomials: Computation and Approximation, 3.1.1).  Unlike the squared
    first components of the eigenvectors, they keep their relative accuracy
    at the tiny weights of the largest nodes.  Exact for polynomials of
    degree <= 2*npts - 1.
    """
    if npts < 1:
        raise ValueError("need at least one quadrature point")
    if fam.is_q():
        raise ValueError("q-lattice measures are summed, not quadratured")
    A, B = radial.recurrence(fam, alpha, npts)
    nodes = np.linalg.eigvalsh(radial.jacobi_matrix(A, B))
    monic = radial.monic_values(A, B, nodes)
    B[0] = radial.measure_mass(fam, alpha)  # so that cumprod(B) is h
    weights = 1.0 / (monic ** 2 / np.cumprod(B)[:, None]).sum(axis=0)
    return QuadratureRule(nodes, weights, 2 * npts - 1, monic)


# relative stop target of q_lattice_sum, just under the longdouble epsilon
LATTICE_TAIL_TOL = 1e-19
# points of a lattice direction in its first integrand call; each further
# call takes twice as many as the last, at most LATTICE_MAX_CHUNK, which
# bounds the memory of one call (for a cap-15 Gram block, 16 longdouble
# rows: 256 kB)
LATTICE_CHUNK = 64
LATTICE_MAX_CHUNK = 1024
LATTICE_MAX_POINTS = 100000
# floor of the running sum in the stop test, at the working precision
_LONGDOUBLE_TINY = np.finfo(np.longdouble).tiny
# smallest normal float: a diagonal product under it has lost digits
_FLOAT_TINY = np.finfo(float).tiny
# relative bracket tolerance and step limit of _brent, as in scipy's brentq,
# and the absolute bracket tolerance bisection_zeros gives it
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_XTOL = 1e-13
_BRENT_MAXITER = 100


def _accumulate(op, first, steps):
    """first, first op steps[0], (first op steps[0]) op steps[1], ... in
    np.longdouble: the running products and quotients of a lattice walk."""
    return op.accumulate(np.concatenate(([first], steps)).astype(np.longdouble))


@lru_cache(maxsize=64)
def _lattice_head(a, q):
    """(a; q)_inf, a factor of the first weight of a lattice direction; it
    depends on the family only, so every block of a Gram shares it."""
    return qpochhammer(a, q)


def _lattice_directions(fam, a):
    """The directions of the q-lattice of x^alpha dnu, a = alpha + beta, as
    tuples (points_weights, tail factor, first stop index, lattice index
    of point k).  points_weights(n) gives the first n points and their
    weights (Koekoek-Lesky-Swarttouw 2010 14.12, 14.20, 14.21), each from
    the running product of its per-step factors."""
    q = np.longdouble(fam.q)
    if fam.kind == "wall" or fam.kind == "qjacobi":
        if a + 1 <= 0:
            raise ValueError("unilateral lattice needs alpha + 1 > 0")
        lower0 = _lattice_head(q ** (fam.gamma + 1), q) if fam.kind == "qjacobi" else 1.0

        def unilateral(n):
            # x = q^k, weight q^{(a+1)k} (q^{k+1}; q)_inf / (q^{gamma+k+1}; q)_inf
            k = np.arange(1, n)
            x = radial.lattice_points(q, n)
            qa = _accumulate(np.multiply, 1.0, np.full(n - 1, q ** (a + 1)))
            upper = _accumulate(np.divide, _lattice_head(q, q), 1.0 - q ** k)
            lower = 1.0
            if fam.kind == "qjacobi":
                lower = _accumulate(np.divide, lower0, 1.0 - q ** (fam.gamma + k))
            return x, qa * upper / lower

        # the weight decays at least geometrically with ratio q^{a+1} and
        # the integrand is bounded on (0, 1], so the dropped tail is below
        # |term| / (1 - q^{a+1})
        return [(unilateral, 1.0 / (1.0 - q ** (a + 1)), 1, lambda k: k)]
    if fam.kind == "qlaguerre":
        c = np.longdouble(fam.c)
        denom0 = _lattice_head(-c, q)  # (-c; q)_inf

        def upward(n):
            # x = c q^k -> 0, mass ~ x^{a+1}:
            # (-c q^{k+1}; q)_inf = (-c q^k; q)_inf / (1 + c q^k)
            x = _accumulate(np.multiply, c, np.full(n - 1, q))
            denom = _accumulate(np.divide, denom0, 1.0 + x[:-1])
            return x, np.power(x, a + 1) / denom

        def downward(n):
            # x = c q^{-k-1} -> infinity, where the (-x; q)_inf growth wins:
            # (-c q^{-k-1}; q)_inf = (1 + c q^{-k-1}) (-c q^{-k}; q)_inf
            x = _accumulate(np.divide, c, np.full(n, q))[1:]
            denom = _accumulate(np.multiply, denom0, 1.0 + x)[1:]
            return x, np.power(x, a + 1) / denom

        return [(upward, 1.0 / (1.0 - q ** (a + 1)), 6, lambda k: k),
                (downward, 1.0, 3, lambda k: -k - 1)]
    raise ValueError(f"not a q-lattice family: {fam.kind!r}")


def _lattice_walk(fam, alpha, integrand, summand):
    """Walk the directions of the q-lattice of x^alpha dnu in chunks under
    the stop rule of q_lattice_sum, which is stated there.

    integrand(x) is called once per chunk of points; summand(f) of its
    value f is weighted by the points and summed, and the stop rule reads
    those terms and their running sum.  Returns (total, kept): the sum, and
    per chunk in lattice order the triple (x, w, f) of the points and
    weights up to the direction's stop point and f as the integrand gave it
    (the first len(x) entries of its leading axis belong to them).
    """
    total = np.longdouble(0.0)
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for points_weights, tail, k0, index in _lattice_directions(fam, alpha + fam.beta):
            x = w = ()
            start, chunk = 0, LATTICE_CHUNK
            while True:
                n = min(start + chunk, LATTICE_MAX_POINTS)
                if n > len(x):
                    # rebuilding at least twice as many keeps the cost linear
                    x, w = points_weights(min(max(n, 2 * len(x)), LATTICE_MAX_POINTS))
                f = np.asarray(integrand(x[start:n]))
                s = summand(f)
                terms = w[start:n].reshape((-1,) + (1,) * (s.ndim - 1)) * s
                size = np.abs(terms).reshape(len(terms), -1).max(axis=1)
                terms[0] += total
                totals = np.cumsum(terms, axis=0)
                reach = np.abs(totals).reshape(len(totals), -1).max(axis=1)
                reach = np.maximum(reach, _LONGDOUBLE_TINY)
                k = np.arange(start, n)
                stop = (k >= k0) & (size * tail <= LATTICE_TAIL_TOL * reach)
                bad = ~(size < np.inf)
                hits = np.flatnonzero(stop | bad)
                if hits.size:
                    i = hits[0]
                    if bad[i]:
                        raise RuntimeError(
                            f"q-lattice sum: non-finite term at lattice index {index(k[i])}"
                        )
                    total = totals[i]
                    kept.append((x[start:start + i + 1], w[start:start + i + 1], f))
                    break
                total = totals[-1]
                kept.append((x[start:n], w[start:n], f))
                if n == LATTICE_MAX_POINTS:
                    raise RuntimeError(f"q-lattice sum did not converge in {n} points")
                start, chunk = n, min(2 * chunk, LATTICE_MAX_CHUNK)
    return total, kept


def q_lattice_sum(fam, alpha, integrand):
    """Sum integrand(x) against the discrete q-lattice measure of a q
    radial family with exponent x^alpha absorbed into the weight.

    The integrand is called with a 1-D np.longdouble array of lattice
    points and returns an array whose leading axis runs over them, or a
    value that broadcasts against them (a constant); the sum is taken
    entrywise, in np.longdouble.  Unilateral lattices (wall, qjacobi) run
    over x = q^k, k >= 0; the bilateral lattice (qlaguerre) runs over
    x = c q^k, first k >= 0 and then k <= -1, where the (-x; q)_infinity
    denominator decays faster than any polynomial grows.  Every direction
    stops at its first point k >= k0 whose largest |term| times the
    direction's tail factor is at most LATTICE_TAIL_TOL times the largest
    |entry| of the sum so far; a NaN or infinite term at or before that
    point raises, naming its lattice index.  Each direction takes its
    points in chunks: LATTICE_CHUNK in the first integrand call, twice as
    many in each further call up to LATTICE_MAX_CHUNK, and at most
    LATTICE_MAX_POINTS in all.
    """
    return _lattice_walk(fam, alpha, integrand, lambda f: f)[0]


def radial_gram(fam, alpha, nmax, scale=None, norms=None):
    """Gram block V W V^T of phi_0..phi_nmax(x; alpha) against x^alpha dnu,
    one np.dot of the rows V at a rule's points, times its weights W, with
    V^T.

    For the continuous families the rows of V (times ``scale[k]`` when
    given) are the monic rows of golub_welsch(fam, alpha, nmax + 1), which
    is exact to degree 2 nmax + 1, times their leading coefficients: one
    recurrence gives the nodes, the weights and the block.  For the q
    families the points and weights are those the lattice walk of
    q_lattice_sum keeps, and the rows are evaluated in np.longdouble one
    chunk of points at a time, by radial.phi_rows, except for wall and
    qjacobi: there radial.lattice_rows gives them, divided by the square
    roots of ``norms`` (radial.norms when not given), and the block is
    scaled back.  The walk stops on the diagonal terms w v_k^2: every
    partial sum of a positively weighted Gram is positive semidefinite, so
    its largest entry is on the diagonal, and the largest |term| of a point
    is w max_k v_k^2.  In the orthonormal scale every diagonal entry is near
    1, so the stop rule, relative to the largest entry, holds for the
    smallest norm of the block too.
    """
    root = None
    if not fam.is_q():
        rule = golub_welsch(fam, alpha, nmax + 1)
        vals = radial.leading_coeffs(fam, alpha, nmax, scale)[:, None] * rule.monic
        weights = rule.weights
    else:
        if fam.kind in ("wall", "qjacobi"):
            norms = radial.norms(fam, alpha, nmax) if norms is None else norms
            root = np.sqrt(np.asarray(norms, dtype=np.longdouble))
            factors = (1 if scale is None else np.asarray(scale)) / root
            rows = radial.lattice_rows(fam, alpha, nmax, factors)
        else:
            rows = radial.phi_rows(fam, alpha, nmax, scale)
        _, kept = _lattice_walk(fam, alpha, lambda x: rows(x).T, np.square)
        vals = np.concatenate([f[:len(x)] for x, _, f in kept]).T
        weights = np.concatenate([w for _, w, _ in kept])
    # np.dot, unlike matmul, has a fast loop for np.longdouble
    block = np.dot(vals * weights, vals.T)
    if root is not None:
        block = root[:, None] * block * root
    return block.astype(float)


class GramEntries(Mapping):
    """Read-only {(idx1, idx2): value} view of a block-diagonal Gram.

    A pair inside one block reads that block's matrix; a pair across blocks
    is an exact 0.0; a key off the index set raises KeyError.  Keys iterate
    over every pair of ``indices`` in order, row index first.
    """

    def __init__(self, indices, blocks):
        self._indices = indices
        self._blocks = blocks
        self._where = {
            idx: (b, p) for b, (idxs, _, _) in enumerate(blocks) for p, idx in enumerate(idxs)
        }

    def __getitem__(self, key):
        try:
            idx1, idx2 = key
            b1, p1 = self._where[idx1]
            b2, p2 = self._where[idx2]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if b1 != b2:
            return 0.0
        return float(self._blocks[b1][1][p1, p2])

    def __iter__(self):
        return ((idx1, idx2) for idx1 in self._indices for idx2 in self._indices)

    def __len__(self):
        return len(self._indices) ** 2


@dataclass(eq=False)
class GramResult:
    """Gram matrix of a bivariate family over its planar measure, kept as
    the diagonal blocks it was computed from.

    Each block is a triple (indices, G, ref): the block's index list, its
    matrix and its closed-form diagonal vector.  ``indices`` lists every
    block index in sorted order; ``entries`` is a read-only mapping view of
    all index pairs (GramEntries) and ``diag_ref`` maps each index to its
    closed-form diagonal value.  ``max_offdiag`` is normalized by the
    geometric mean of the adjacent diagonals.  ``theta_nodes`` is the node
    count of the theta rule of an Askey-Wilson Gram, None for any other.
    """

    indices: list
    blocks: list
    diag_ref: dict
    max_offdiag: float
    max_diag_relerr: float
    passed: bool
    notes: str = ""
    theta_nodes: int = None

    @cached_property
    def entries(self):
        return GramEntries(self.indices, self.blocks)


def summarize(blocks, offdiag_tol, diag_rel_tol, notes="", theta_nodes=None):
    """GramResult of the blocks (indices, G, ref) with the largest
    normalized off-diagonal |G_ij| / sqrt|G_ii G_jj| and the largest
    relative diagonal error |G_ii - ref_i| / |ref_i|; passed when both are
    under their tolerances.  ``notes`` and ``theta_nodes`` pass through to
    the result.

    Entries across blocks are exact zeros and cannot raise the maximum;
    nor can an exact zero inside a block.  A NaN anywhere propagates to its
    maximum and fails the Gram; a nonzero off-diagonal over a zero diagonal
    reads inf.  A product G_ii G_jj outside the normal float range, which
    would read an overflowed pair as 0 or an underflowed one as inf, is
    taken as sqrt|G_ii| sqrt|G_jj| instead.
    """
    diag_ref = dict(sorted(
        (idx, float(r)) for idxs, _, ref in blocks for idx, r in zip(idxs, ref)
    ))
    indices = list(diag_ref)
    offs, rels = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # one range test for the whole Gram: rounding is monotone, so when
        # the extreme |G_ii| square into the range every product does
        size = np.abs(np.concatenate([np.empty(0)] + [np.diagonal(g) for _, g, _ in blocks]))
        lo, hi = np.min(size, initial=np.inf), np.max(size, initial=0.0)
        in_range = lo * lo >= _FLOAT_TINY and hi * hi < np.inf
        for _, g, ref in blocks:
            d = np.diagonal(g)
            rels.append(np.max(np.abs(d - ref) / np.abs(ref)))
            prod = np.abs(np.multiply.outer(d, d))
            scale = np.sqrt(prod)
            # the pair mask only for a block with a product out of range
            if not (in_range or prod.min() >= _FLOAT_TINY and prod.max() < np.inf):
                out = ~((prod >= _FLOAT_TINY) & (prod < np.inf))
                root = np.sqrt(np.abs(d))
                scale[out] = np.multiply.outer(root, root)[out]
            ratio = np.abs(g) / scale
            ratio[g == 0.0] = 0.0
            np.fill_diagonal(ratio, 0.0)
            offs.append(np.max(ratio))
    # np.max, unlike the builtin max, propagates a NaN
    max_off = float(np.max(offs, initial=0.0))
    max_rel = float(np.max(rels, initial=0.0))
    passed = max_off < offdiag_tol and max_rel < diag_rel_tol
    return GramResult(indices, blocks, diag_ref, max_off, max_rel, passed, notes, theta_nodes)


def gram(fam, degree_cap, offdiag_tol=1e-9, diag_rel_tol=1e-8):
    """Assemble the Gram matrix of a bivariate family up to a degree cap and
    compare with the closed-form diagonal.

    The circle average pairs f_{m,n} only with members of the same
    harmonic index m - n, so the matrix is block diagonal: the blocks of
    index a and -a, members f_{a+k,k} and f_{k,a+k} for k <= cap - |a|,
    share the radial Gram of phi_0..phi_{cap-|a|}(x; |a|) against
    x^|a| dnu, and every entry across blocks is an exact zero.
    """
    from . import bivariate  # deferred to avoid import cycle

    if degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    rad = bivariate.radial_of(fam)
    norm_const = math.pi if fam.tag in ("Z", "H") else 1.0
    blocks = []
    for a in range(degree_cap + 1):
        nmax = degree_cap - a
        scale = bivariate.harmonic_scale(fam, nmax)
        zref = radial.norms(rad, a, nmax)
        g = norm_const * radial_gram(rad, a, nmax, scale, zref)
        if scale is not None:
            zref = [z * s ** 2 for z, s in zip(zref, scale)]
        ref = np.array([norm_const * z for z in zref])
        blocks.append(([(a + k, k) for k in range(nmax + 1)], g, ref))
        if a > 0:
            blocks.append(([(k, a + k) for k in range(nmax + 1)], g, ref))
    return summarize(blocks, offdiag_tol, diag_rel_tol)


def _same_sign(fa, fb):
    """True when fa and fb are both positive or both negative; a sign test,
    because their product can underflow."""
    return (fa > 0 and fb > 0) or (fa < 0 and fb < 0)


def _brent(f, xpre, xcur, fpre, fcur, xtol):
    """Root of f in the bracket [xpre, xcur], given fpre = f(xpre) and
    fcur = f(xcur) of opposite signs (bisection_zeros checks them with
    _same_sign), by Brent's method (Brent 1973, Algorithms for Minimization
    without Derivatives, ch. 4).

    Step for step the C routine behind scipy.optimize.brentq: inverse
    quadratic or secant steps while they shrink fast enough, bisection
    otherwise, until half the bracket is below (xtol + _BRENT_RTOL |x|) / 2.
    Raises RuntimeError on a NaN value or after _BRENT_MAXITER steps.
    """
    if math.isnan(fpre) or math.isnan(fcur):
        raise RuntimeError("Brent's method: NaN value at a bracket end")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise RuntimeError(f"Brent's method: NaN value at x = {xcur!r}")
    raise RuntimeError(f"Brent's method did not converge in {_BRENT_MAXITER} steps")


def bisection_zeros(fam, n, alpha):
    """Refine the zeros of phi_n by Brent's bracketed root finding on sign
    changes of its recurrence value (radial.phi_rows), to the absolute
    bracket tolerance _BRENT_XTOL, independent of the eigensolver route.

    Each zero is bracketed by the midpoints between the eigensolver zeros
    or, failing that, by the eigensolver value +- 1e-6 relative; a zero
    that neither brackets reads NaN.
    """
    if n == 0:
        return np.array([])
    approx = radial.radial_zeros(fam, n, alpha)
    rows = radial.phi_rows(fam, alpha, n)

    def f(x):
        return float(rows(x)[n])

    lo_edge = approx[0] - max(1.0, approx[0])
    hi_edge = approx[-1] + max(1.0, approx[-1])
    cuts = [lo_edge] + [(approx[i] + approx[i + 1]) / 2.0 for i in range(n - 1)] + [hi_edge]
    roots = []
    for i in range(n):
        a, b = cuts[i], cuts[i + 1]
        fa, fb = f(a), f(b)
        if _same_sign(fa, fb):
            # narrow to the approximate root until a sign change appears
            a = approx[i] - 1e-6 * max(1.0, abs(approx[i]))
            b = approx[i] + 1e-6 * max(1.0, abs(approx[i]))
            fa, fb = f(a), f(b)
            if _same_sign(fa, fb):
                roots.append(math.nan)
                continue
        roots.append(_brent(f, a, b, fa, fb, _BRENT_XTOL))
    return np.array(roots)


def zero_circle_monotonicity(rad, n, m_range):
    """Radii of the zero circles of f_{m,n} across a range of m.

    Returns (monotone, radii_table, max_dev): radii_table lists (m, radii)
    with the radii the square roots of the radial zeros at alpha = m - n;
    monotone is True iff every radius strictly increases with m; max_dev is
    the largest distance between the eigensolver zeros and their bisection
    refinement (bisection_zeros), inf when a zero could not be bracketed.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not m_range:
        raise ValueError("zero-circle check needs a nonempty range of m")
    radii_table = []
    max_dev = 0.0
    for m in m_range:
        if m < n:
            raise ValueError("zero-circle check needs m >= n")
        zeros = radial.radial_zeros(rad, n, m - n)
        ref = bisection_zeros(rad, n, m - n)
        # an unbracketed zero (NaN) deviates without bound; np.max, unlike
        # the builtin max, propagates any other NaN
        dev = np.where(np.isnan(ref), np.inf, np.abs(zeros - ref))
        max_dev = float(np.max(dev, initial=max_dev))
        radii_table.append((m, np.sqrt(zeros)))
    monotone = True
    for i in range(1, len(radii_table)):
        prev = radii_table[i - 1][1]
        cur = radii_table[i][1]
        if not np.all(cur > prev):
            monotone = False
    return monotone, radii_table, max_dev

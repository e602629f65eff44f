"""Quadrature and summation engines.

Gauss rules for the continuous radial measures (golub_welsch: nodes the
eigenvalues of the Jacobi matrix of the closed-form recurrence, weights
the Christoffel numbers from the np.longdouble monic rows at them),
longdouble q-lattice sums with certified tail bounds (q_lattice_sum: each
lattice direction an array of points and closed-form weights, walked in
chunks under one stop rule), the radial Gram blocks of a Gram in one
request (radial_grams: V W V^T as one np.dot of the rows V at a rule's
points, the Gauss nodes of each block, with the monic rows of the rule
times their leading coefficients, or for a q family the lattice points
shared by every block, walked once for all of them, each block keeping
the points up to its own stop point, read on its own diagonal terms, with
the rows of every block still walking from one radial.block_rows
evaluation per chunk), block-diagonal Gram assembly for the bivariate
families (gram: one radial block per circle-harmonic index, against the
closed-form norms of one radial.norms call), the Gram summary shared
with the Askey–Wilson checks (summarize), and zero-circle monotonicity
checks (zero_circle_monotonicity), whose zeros are refined by Brent's
bracketed root finder on the recurrence values (bisection_zeros).
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import radial
from .polycore import safe_power
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
# call takes twice as many as the last, at most LATTICE_MAX_CHUNK, and at
# most LATTICE_MAX_ENTRIES rows times points, which bounds the memory of one
# call (the rows of one cap-15 Gram block at LATTICE_MAX_CHUNK points in
# np.longdouble: 256 kB)
LATTICE_CHUNK = 64
LATTICE_MAX_CHUNK = 1024
LATTICE_MAX_ENTRIES = 16 * LATTICE_MAX_CHUNK
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


def _lattice_directions(fam, exponents):
    """The directions of the q-lattice of x^alpha dnu for every exponent
    a = alpha + beta of ``exponents``, as tuples (points_weights, tail
    factors, first stop index, lattice index of point k).  points_weights(n)
    gives the first n points, shared by every exponent, and their weights,
    one row per exponent (Koekoek-Lesky-Swarttouw 2010 14.12, 14.20, 14.21),
    each from the running product of its per-step factors; the tail
    factors hold one entry per exponent."""
    q = np.longdouble(fam.q)
    ratio = q ** (np.asarray(exponents, dtype=float) + 1)  # q^(a+1)
    if fam.kind == "wall" or fam.kind == "qjacobi":
        if any(a + 1 <= 0 for a in exponents):
            raise ValueError("unilateral lattice needs alpha + 1 > 0")
        lower0 = _lattice_head(q ** (fam.gamma + 1), q) if fam.kind == "qjacobi" else 1.0

        def unilateral(n):
            # x = q^k, weight q^{(a+1)k} (q^{k+1}; q)_inf / (q^{gamma+k+1}; q)_inf
            k = np.arange(1, n)
            x = radial.lattice_points(q, n)
            qa = np.ones((len(ratio), n), np.longdouble)
            qa[:, 1:] = ratio[:, None]
            np.multiply.accumulate(qa, axis=1, out=qa)
            upper = _accumulate(np.divide, _lattice_head(q, q), 1.0 - q ** k)
            lower = 1.0
            if fam.kind == "qjacobi":
                lower = _accumulate(np.divide, lower0, 1.0 - q ** (fam.gamma + k))
            return x, qa * upper / lower

        # the weight decays at least geometrically with ratio q^{a+1} and
        # the integrand is bounded on (0, 1], so the dropped tail is below
        # |term| / (1 - q^{a+1})
        return [(unilateral, 1.0 / (1.0 - ratio), 1, lambda k: k)]
    if fam.kind == "qlaguerre":
        c = np.longdouble(fam.c)
        denom0 = _lattice_head(-c, q)  # (-c; q)_inf

        def weights(x, denom):
            # x^{a+1}, one np.power per exponent: a scalar exponent takes
            # the same route as a one-exponent walk
            w = np.empty((len(exponents), len(x)), np.longdouble)
            for row, a in zip(w, exponents):
                np.power(x, a + 1, out=row)
            return w / denom

        def upward(n):
            # x = c q^k -> 0, mass ~ x^{a+1}:
            # (-c q^{k+1}; q)_inf = (-c q^k; q)_inf / (1 + c q^k)
            x = _accumulate(np.multiply, c, np.full(n - 1, q))
            return x, weights(x, _accumulate(np.divide, denom0, 1.0 + x[:-1]))

        def downward(n):
            # x = c q^{-k-1} -> infinity, where the (-x; q)_inf growth wins:
            # (-c q^{-k-1}; q)_inf = (1 + c q^{-k-1}) (-c q^{-k}; q)_inf
            x = _accumulate(np.divide, c, np.full(n, q))[1:]
            return x, weights(x, _accumulate(np.multiply, denom0, 1.0 + x)[1:])

        return [(upward, 1.0 / (1.0 - ratio), 6, lambda k: k),
                (downward, np.ones(len(ratio)), 3, lambda k: -k - 1)]
    raise ValueError(f"not a q-lattice family: {fam.kind!r}")


def _lattice_walk(fam, alphas, integrand, summand, widths=None):
    """Walk the directions of the q-lattice of x^alpha dnu for every alpha
    of ``alphas`` at once, one block per alpha: chunks of points shared by
    the blocks, each block stopped by the stop rule of q_lattice_sum, which
    is stated there, on its own terms.

    integrand(x, live) is called once per chunk of points with the boolean
    mask of the blocks still walking; it returns their values stacked
    along the leading axis, widths[b] rows for block b (one block of any
    width when ``widths`` is None), and one column per point, at most
    LATTICE_MAX_ENTRIES values once the widths are known.  summand(f) of
    the values, a new np.longdouble array, which the walk overwrites, is
    weighted by each block's weights and summed; block b's stop rule reads
    its own rows of those terms and of their running sums, with its own
    tail factor, and a non-finite term of its own at or before its stop
    point raises.  A stopped block is not evaluated again in the
    direction.  Returns (totals, kept), per block: the sums of its rows,
    and per chunk in lattice order the triple (x, w, f) of the points and
    weights up to its stop point and its rows of the integrand at them.
    The sums run along each row in lattice order, chunk after chunk, so
    every block's sums and kept points are those of its walk alone.
    """
    count = len(alphas)
    widths = None if widths is None else np.asarray(widths)
    total = None  # running sums of the rows of every block
    kept = [[] for _ in range(count)]
    exponents = [alpha + fam.beta for alpha in alphas]
    with np.errstate(over="ignore", invalid="ignore"):
        for points_weights, tails, k0, index in _lattice_directions(fam, exponents):
            live = np.ones(count, bool)
            x = w = ()
            start, chunk = 0, LATTICE_CHUNK
            while True:
                step = chunk
                if widths is not None:
                    step = min(chunk, max(1, LATTICE_MAX_ENTRIES // int(widths[live].sum())))
                n = min(start + step, LATTICE_MAX_POINTS)
                if n > len(x):
                    # rebuilding at least twice as many keeps the cost linear
                    x, w = points_weights(min(max(n, 2 * len(x)), LATTICE_MAX_POINTS))
                f = integrand(x[start:n], live)
                if widths is None:
                    widths = np.array([len(f)])
                if total is None:
                    total = np.zeros(widths.sum(), np.longdouble)
                rows = widths[live]
                first = np.cumsum(rows) - rows  # the first row of each live block
                mine = np.repeat(live, widths)  # the rows of the live blocks
                terms = summand(f)
                terms *= np.repeat(w[live, start:n], rows, axis=0)
                # the largest |term| and |sum| of each live block at each point
                size = np.maximum.reduceat(np.abs(terms), first, axis=0)
                terms[:, 0] += total[mine]
                sums = np.cumsum(terms, axis=1, out=terms)
                reach = np.maximum.reduceat(np.abs(sums), first, axis=0)
                reach = np.maximum(reach, _LONGDOUBLE_TINY)
                k = np.arange(start, n)
                stop = (k >= k0) & (size * tails[live, None] <= LATTICE_TAIL_TOL * reach)
                bad = ~(size < np.inf)
                hit = stop | bad
                ends = np.full(len(rows), n - start - 1)  # the last kept point of each
                for j, (b, at, nrows) in enumerate(zip(np.flatnonzero(live), first, rows)):
                    hits = np.flatnonzero(hit[j])
                    if hits.size:
                        ends[j] = end = hits[0]
                        if bad[j, end]:
                            raise RuntimeError("q-lattice sum: non-finite term at lattice "
                                               f"index {index(start + end)}")
                        live[b] = False
                    kept[b].append((x[start:start + ends[j] + 1], w[b, start:start + ends[j] + 1],
                                    f[at:at + nrows, :ends[j] + 1]))
                total[mine] = sums[np.arange(len(sums)), np.repeat(ends, rows)]
                if not live.any():
                    break
                if n == LATTICE_MAX_POINTS:
                    raise RuntimeError(f"q-lattice sum did not converge in {n} points")
                start, chunk = n, min(2 * chunk, LATTICE_MAX_CHUNK)
    return np.split(total, np.cumsum(widths)[:-1]), kept


def q_lattice_sum(fam, alpha, integrand):
    """Sum integrand(x) against the discrete q-lattice measure of a q
    radial family with exponent x^alpha absorbed into the weight: the
    one-exponent case of the lattice walk.

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
    many in each further call up to LATTICE_MAX_CHUNK (and up to
    LATTICE_MAX_ENTRIES entries of the integrand's value), and at most
    LATTICE_MAX_POINTS in all.
    """
    shape = []

    def columns(x, live):
        f = np.asarray(integrand(x))
        f = np.broadcast_to(f, x.shape + f.shape[1:])
        shape[:] = [f.shape[1:]]
        return f.reshape(len(x), -1).T

    totals, _ = _lattice_walk(fam, [alpha], columns, lambda f: f.astype(np.longdouble))
    return totals[0].reshape(shape[0])[()]


def radial_grams(fam, alphas, nmaxes, scales, norms):
    """Gram blocks V W V^T of phi_0..phi_nmaxes[b](x; alphas[b]) against
    x^alphas[b] dnu, one per block b: for each, one np.dot of the rows V
    at a rule's points, times its weights W, with V^T.  ``scales[b]``
    multiplies the rows of a continuous block unless it is None (no q
    family has a harmonic scale, and the q branch does not read it);
    ``norms[b]`` holds the closed-form norms of block b, which only wall
    and qjacobi read.

    For the continuous families the rows of V are the monic rows of
    golub_welsch(fam, alpha, nmax + 1), which is exact to degree
    2 nmax + 1, times their leading coefficients: one recurrence per block
    gives its nodes, weights and block, since the nodes move with alpha.
    For the q families every block lies on the same lattice points, so one
    lattice walk serves them all: the rows of every block still walking
    come from one radial.block_rows evaluation per chunk of points, and
    each block keeps the points and weights of its own stop point, the
    stop rule read on its own diagonal terms w v_k^2.  Every partial sum of
    a positively weighted Gram is positive semidefinite, so its largest
    entry is on the diagonal, and the largest |term| of a point is
    w max_k v_k^2.  For wall and qjacobi the rows are divided by the square
    roots of the block's norms and the block is scaled back: in the
    orthonormal scale every diagonal entry is near 1, so the stop rule,
    relative to the largest entry, holds for the smallest norm of the block
    too; a row whose norm underflowed to 0 is left at 0.  Each block
    equals the walk of its block alone bit for bit.
    """
    if not fam.is_q():
        blocks = []
        for alpha, nmax, scale in zip(alphas, nmaxes, scales):
            rule = golub_welsch(fam, alpha, nmax + 1)
            vals = radial.leading_coeffs(fam, alpha, nmax, scale)[:, None] * rule.monic
            # np.dot, unlike matmul, has a fast loop for np.longdouble
            blocks.append(np.dot(vals * rule.weights, vals.T).astype(float))
        return blocks
    widths = np.asarray(nmaxes) + 1
    factors = root = None
    if fam.kind in ("wall", "qjacobi"):
        root = np.sqrt(np.concatenate(norms).astype(np.longdouble))
        with np.errstate(divide="ignore"):
            factors = 1 / root
        # a row whose norm underflowed to 0 sums to 0, a failed diagonal
        factors[root == 0.0] = 0.0
        root = np.split(root, np.cumsum(widths)[:-1])
    rows = radial.block_rows(fam, alphas, nmaxes, factors)
    _, kept = _lattice_walk(fam, alphas, rows, np.square, widths)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for b, chunks in enumerate(kept):
            _, weights, vals = chunks[0]
            if len(chunks) > 1:
                weights = np.concatenate([w for _, w, _ in chunks])
                vals = np.concatenate([f for _, _, f in chunks], axis=1)
            block = np.dot(vals * weights, vals.T)
            if root is not None:
                block = root[b][:, None] * block * root[b]
            blocks.append(block.astype(float))
    return blocks


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
    nor can an exact zero inside a block.  A block that repeats the G and
    ref of the block before it (gram's blocks of index a and -a share
    them) is measured once: the same values cannot change a maximum.  A
    NaN anywhere propagates to its maximum and fails the Gram; a nonzero
    off-diagonal over a zero diagonal reads inf.  A product G_ii G_jj
    outside the normal float range, which would read an overflowed pair as
    0 or an underflowed one as inf, is taken as sqrt|G_ii| sqrt|G_jj|
    instead.
    """
    diag_ref = dict(sorted(
        (idx, float(r)) for idxs, _, ref in blocks for idx, r in zip(idxs, ref)
    ))
    indices = list(diag_ref)
    distinct = [(g, ref) for i, (_, g, ref) in enumerate(blocks)
                if not (i and g is blocks[i - 1][1] and ref is blocks[i - 1][2])]
    offs, rels = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # one range test for the whole Gram: rounding is monotone, so when
        # the extreme |G_ii| square into the range every product does
        size = np.abs(np.concatenate([np.empty(0)] + [np.diagonal(g) for g, _ in distinct]))
        lo, hi = np.min(size, initial=np.inf), np.max(size, initial=0.0)
        in_range = lo * lo >= _FLOAT_TINY and hi * hi < np.inf
        for g, ref in distinct:
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
    x^|a| dnu, and every entry across blocks is an exact zero.  One
    radial_grams request forms every radial block: for a q family, one
    lattice walk.  The closed-form norms of all blocks come from one
    radial.norms call and serve both the diagonal reference and the wall
    and qjacobi row scaling.  When a norm or a Gram entry has left the
    float range, the failed result's notes name the first harmonic index
    and degree where it did.
    """
    from . import bivariate  # deferred to avoid import cycle

    if degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    rad = bivariate.radial_of(fam)
    norm_const = math.pi if fam.tag in ("Z", "H") else 1.0
    alphas = range(degree_cap + 1)
    nmaxes = [degree_cap - a for a in alphas]
    scales = [bivariate.harmonic_scale(fam, nmax) for nmax in nmaxes]
    zrefs = radial.norms(rad, alphas, nmaxes)
    blocks, refs, scaled = [], [], []
    # H's norms take the square of its harmonic scale, which leaves the
    # float range from degree 99 (99!^2), and its rows from about the same
    # degree: such an entry reads inf, without a raise or a warning
    with np.errstate(over="ignore", invalid="ignore"):
        grams = radial_grams(rad, alphas, nmaxes, scales, zrefs)
        for a, nmax, scale, zref, g in zip(alphas, nmaxes, scales, zrefs, grams):
            g = norm_const * g
            if scale is not None:
                zref = [z * safe_power(s, 2) for z, s in zip(zref, scale)]
            ref = norm_const * np.asarray(zref)
            refs.append(ref)
            scaled.append(g)
            blocks.append(([(a + k, k) for k in range(nmax + 1)], g, ref))
            if a > 0:
                blocks.append(([(k, a + k) for k in range(nmax + 1)], g, ref))
        result = summarize(blocks, offdiag_tol, diag_rel_tol)
    # a norm or diagonal entry out of range reads a non-finite error
    if not math.isfinite(result.max_diag_relerr):
        result.notes = _range_note(refs, scaled)
    return result


def _range_note(norms, grams):
    """The first harmonic index and degree whose closed-form norm (inf, or
    0 from underflow) or Gram row (an infinite entry) has left the float
    range, as a note; "" when none has."""
    for a, (z, g) in enumerate(zip(norms, grams)):
        z = np.asarray(z)
        wrong_norm = np.isinf(z) | (z == 0.0)
        out = np.flatnonzero(wrong_norm | np.isinf(g).any(axis=1))
        if out.size:
            k = out[0]
            if not wrong_norm[k]:
                what = "a Gram entry overflows the float range"
            elif z[k]:
                what = "the closed-form norm overflows the float range"
            else:
                what = "the closed-form norm underflows to 0"
            return f"harmonic index {a}, degree {k}: {what}"
    return ""


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

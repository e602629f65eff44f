"""Quadrature and summation engines.

Gauss rules for the continuous radial measures (gauss_rules, every block
of a Gram from one recurrence, one mass row and one monic walk per group
of blocks: nodes the eigenvalues of the Jacobi matrix of the closed-form
recurrence, weights the Christoffel numbers from the np.longdouble monic
rows at them; golub_welsch is its one-rule call), longdouble q-lattice
sums with certified tail bounds (q_lattice_sum), the radial Gram blocks
of a Gram in one request (radial_grams, one gauss_rules pass for a
continuous family, one lattice walk for all blocks of a q family), the
block-diagonal Gram of a
bivariate family (gram), the Gram summary shared with the Askey-Wilson
checks (summarize) and zero-circle monotonicity checks
(zero_circle_monotonicity, refined by Brent's method in bisection_zeros).

Every Gram block (indices, G, zeta) is in one orthonormal scale: its rows
divided by the square roots of the np.longdouble closed-form norms zeta,
G is the identity up to rounding, which summarize reads against 1.  The
raw entries sqrt(zeta_i) G_ij sqrt(zeta_j) are formed in raw_entries.
"""

import itertools
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
    """Gauss rule of order npts for the measure x^alpha dnu of a continuous
    radial family: the one-rule call of gauss_rules."""
    return next(gauss_rules(fam, [alpha], [npts]))


def gauss_rules(fam, alphas, npts):
    """Gauss rules for the measures x^alphas[b] dnu of a continuous radial
    family, rule b of order npts[b], yielded in block order from one pass,
    each equal to its one-rule call bit for bit.

    One closed-form recurrence (A, B) of order max(npts) serves every block
    (radial.recurrence).  The nodes of rule b are the eigenvalues of the
    Jacobi matrix of its first npts[b] terms (numpy.linalg.eigvalsh, the
    route of radial.radial_zeros), one call per block, since the orders
    differ.  Its weights are the Christoffel numbers w_i = 1 / sum_{k<npts}
    p_k(x_i)^2 / h_k, with h_k = mass B_1 ... B_k the squared norms of the
    monic p_k and the masses one radial.measure_mass row, summed from the
    np.longdouble monic rows at the nodes (Golub and Welsch 1969; Gautschi
    2004, Orthogonal Polynomials: Computation and Approximation, 3.1.1).
    Unlike the squared first components of the eigenvectors, they keep
    their relative accuracy at the tiny weights of the largest nodes.  Rule
    b is exact for polynomials of degree <= 2*npts[b] - 1.

    The monic rows come from one recurrence walk over the (block x node)
    grid of a group of consecutive blocks, each block leaving the walk past
    its own degree, and the weights from one sum over it.  A group takes
    blocks while its walk, its largest order times its node count, stays
    within LATTICE_MAX_ENTRIES; a larger block walks alone.  The rules of a
    group hold views of its rows, and the groups are walked as the rules
    are taken, so a caller that drops each rule in turn holds the rows of
    one group at a time.
    """
    npts = [int(n) for n in npts]
    if min(npts, default=1) < 1:
        raise ValueError("need at least one quadrature point")
    if fam.is_q():
        raise ValueError("q-lattice measures are summed, not quadratured")
    A, B = radial.recurrence(fam, alphas, max(npts, default=1))
    mass = radial.measure_mass(fam, alphas)
    for lo, hi in _groups(npts):
        yield from _group_rules(A[lo:hi], B[lo:hi], mass[lo:hi], npts[lo:hi])


def _groups(orders):
    """The runs lo:hi of consecutive blocks of the given orders taken
    together: each grows while its largest order times the sum of its
    orders stays within LATTICE_MAX_ENTRIES, and holds one block at least."""
    lo = 0
    while lo < len(orders):
        hi, top, width = lo + 1, orders[lo], orders[lo]
        while (hi < len(orders)
               and max(top, orders[hi]) * (width + orders[hi]) <= LATTICE_MAX_ENTRIES):
            top, width, hi = max(top, orders[hi]), width + orders[hi], hi + 1
        yield lo, hi
        lo = hi


def _group_rules(A, B, mass, npts):
    """The Gauss rules of gauss_rules for one group of blocks, block j of
    order npts[j] with the recurrence rows A[j], B[j] and the mass mass[j]."""
    top = max(npts)
    # the order-n Jacobi matrix of a block is the leading n x n part of its
    # order-top matrix
    J = radial.jacobi_matrix(A[:, :top], B[:, :top])
    nodes = [np.linalg.eigvalsh(J[j, :n, :n]) for j, n in enumerate(npts)]
    # the blocks by falling order, so that those still walking at step k
    # hold a prefix of the node columns
    order = sorted(range(len(npts)), key=lambda j: -npts[j])
    sizes = [npts[j] for j in order]
    ends = list(itertools.accumulate(sizes))
    x = np.concatenate([nodes[j] for j in order], dtype=np.longdouble)

    def columns(C):
        # one column per node of the (k x block) array C, k rows
        return np.repeat(C[:, order], sizes, axis=1)

    # x - A_k and B_k at every node, k < top - 1
    steps = x - columns(A[:, :top - 1].T)
    b = columns(B[:, :top - 1].T)
    # p_(k+1) = (x - A_k) p_k - B_k p_(k-1) at the nodes of the blocks
    # still walking; p_1 = (x - A_0) p_0, since B_0 p_(-1) is an exact 0
    monic = np.zeros((top, len(x)), np.longdouble)
    monic[0] = 1
    live = len(sizes)
    for k in range(top - 1):
        while sizes[live - 1] <= k + 1:
            live -= 1
        c = ends[live - 1]
        row = np.multiply(steps[k, :c], monic[k, :c], out=monic[k + 1, :c])
        if k:
            row -= b[k, :c] * monic[k - 1, :c]
    with np.errstate(divide="ignore", over="ignore"):
        # h_k = mass B_1 ... B_k; a mass past the range gives inf weights.
        # Past a block's own degree, where its rows are 0, h_k may leave
        # the range, and reads 1
        h = np.cumprod(np.concatenate((mass[:, None], B[:, 1:top]), axis=1), axis=1)
        if sizes[-1] < top:
            h[np.arange(top) >= np.array(npts)[:, None]] = 1.0
        # C-ordered terms, summed down each column in k order, as a
        # one-block rule sums them
        terms = monic ** 2
        terms /= columns(h.T)
        weights = 1.0 / terms.sum(axis=0)
    first = dict(zip(order, [end - n for end, n in zip(ends, sizes)]))
    for j, n in enumerate(npts):
        at = first[j]
        yield QuadratureRule(nodes[j], weights[at:at + n], 2 * n - 1, monic[:n, at:at + n])


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


def radial_grams(fam, alphas, nmaxes, factors):
    """Gram blocks V W V^T of phi_0..phi_nmaxes[b](x; alphas[b]) against
    x^alphas[b] dnu, one per block b, with row k of block b times
    ``factors[b][k]`` (gram passes 1 / sqrt(zeta_k), the orthonormal
    scale): for each, one np.dot of the rows V at a rule's points, times
    its weights W, with V^T.

    For the continuous families the rows of V are the monic rows of the
    rule of order nmax + 1, which is exact to degree 2 nmax + 1, times
    their leading coefficients and factors: one gauss_rules pass gives the
    rules of all blocks, whose nodes move with alpha, and one
    radial.leading_coeffs call the leading coefficients of all; each block
    is taken, and its rule dropped, before the next group of rules is
    walked.  For the q families every block lies on the same
    lattice points, so one lattice walk serves them all: the rows of every
    block still walking come from one radial.block_rows evaluation per
    chunk of points, and each block keeps the points and weights of its
    own stop point, the stop rule read on its own diagonal terms w v_k^2.
    A partial sum of a positively weighted Gram is positive semidefinite,
    so its largest entry is on the diagonal, near 1 in the orthonormal
    scale for every row, and the stop rule relative to it holds for all of
    them.  Each block equals the walk of its block alone bit for bit.
    """
    if not fam.is_q():
        lead = radial.leading_coeffs(fam, alphas, max(nmaxes))
        rules = gauss_rules(fam, alphas, [nmax + 1 for nmax in nmaxes])
        blocks = []
        for rule, row, nmax, f in zip(rules, lead, nmaxes, factors):
            vals = (row[:nmax + 1] * np.asarray(f, np.longdouble))[:, None] * rule.monic
            # np.dot, unlike matmul, has a fast loop for np.longdouble
            blocks.append(np.dot(vals * rule.weights, vals.T).astype(float))
        return blocks
    widths = np.asarray(nmaxes) + 1
    rows = radial.block_rows(fam, alphas, nmaxes, np.concatenate(factors))
    _, kept = _lattice_walk(fam, alphas, rows, np.square, widths)
    blocks = []
    for chunks in kept:
        _, weights, vals = chunks[0]
        if len(chunks) > 1:
            weights = np.concatenate([w for _, w, _ in chunks])
            vals = np.concatenate([f for _, _, f in chunks], axis=1)
        blocks.append(np.dot(vals * weights, vals.T).astype(float))
    return blocks


def raw_entries(g, zeta):
    """The Gram entries sqrt(zeta_i) G_ij sqrt(zeta_j) of one block
    (indices, G, zeta) in float, G in the orthonormal scale and zeta the
    closed-form norms; an entry past the float range reads inf."""
    root = np.sqrt(zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        return (root[:, None] * g * root).astype(float)


class GramEntries(Mapping):
    """Read-only {(idx1, idx2): value} view of a block-diagonal Gram.

    A pair inside one block reads that block's raw entry (raw_entries); a
    pair across blocks is an exact 0.0; a key off the index set raises
    KeyError.  Keys iterate over every pair of ``indices`` in order, row
    index first.
    """

    def __init__(self, indices, blocks):
        self._indices = indices
        self._raw = [raw_entries(g, zeta) for _, g, zeta in blocks]
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
        return float(self._raw[b1][p1, p2])

    def __iter__(self):
        return ((idx1, idx2) for idx1 in self._indices for idx2 in self._indices)

    def __len__(self):
        return len(self._indices) ** 2


@dataclass(eq=False)
class GramResult:
    """Gram matrix of a bivariate family over its planar measure, kept as
    the diagonal blocks it was computed from, in the orthonormal scale.

    Each block is a triple (indices, G, zeta): the block's index list, its
    matrix G_ij = <f_i, f_j> / sqrt(zeta_i zeta_j), the identity up to
    rounding at any size of the norms, and its closed-form norms zeta.
    ``indices`` lists every block index in sorted order; ``entries`` is a
    read-only mapping view of the raw entries <f_i, f_j> of all index pairs
    (GramEntries) and ``diag_ref`` maps each index to its norm, both in
    float.  ``max_offdiag`` is the largest |G_ij|, i != j, and
    ``max_diag_relerr`` the largest |G_ii - 1|.  ``theta_nodes`` is the
    node count of the theta rule of an Askey-Wilson Gram, None otherwise.
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
    """GramResult of the orthonormal blocks (indices, G, zeta) with the
    largest off-diagonal |G_ij| and the largest diagonal error |G_ii - 1|;
    passed when both are under their tolerances.  ``notes`` and
    ``theta_nodes`` pass through to the result; the indices of all blocks
    are distinct, and ``diag_ref`` holds them in sorted order.

    Entries across blocks are exact zeros and cannot raise the maximum.  A
    block that repeats the G of the block before it (gram's blocks of index
    a and -a share it) is measured once: the same values cannot change a
    maximum.  The off-diagonal entries of the measured blocks are read in
    one array pass per group of blocks, grouped as gauss_rules groups its
    walks, and the diagonal errors in one more.  A NaN anywhere propagates
    to its maximum and fails the Gram.
    """
    keys = [idx for idxs, _, _ in blocks for idx in idxs]
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        norms = np.concatenate([z for _, _, z in blocks] or [[]]).astype(float).tolist()
    diag_ref = {keys[i]: norms[i] for i in sorted(range(len(keys)), key=keys.__getitem__)}
    mats = [g for i, (_, g, _) in enumerate(blocks) if not (i and g is blocks[i - 1][1])]
    # np.max, unlike the builtin max, propagates a NaN
    max_rel = max_off = 0.0
    if mats:
        max_rel = np.max(np.abs(np.concatenate([g.diagonal() - 1.0 for g in mats])))
    for lo, hi in _groups([len(g) for g in mats]):
        off = np.abs(np.concatenate([g.ravel() for g in mats[lo:hi]]))
        at = 0
        for g in mats[lo:hi]:
            off[at:at + g.size:len(g) + 1] = 0.0  # its diagonal
            at += g.size
        max_off = np.max(off, initial=max_off)
    max_off, max_rel = float(max_off), float(max_rel)
    passed = max_off < offdiag_tol and max_rel < diag_rel_tol
    return GramResult(list(diag_ref), blocks, diag_ref, max_off, max_rel, passed, notes,
                      theta_nodes)


def gram(fam, degree_cap, offdiag_tol=1e-9, diag_rel_tol=1e-8):
    """Assemble the Gram matrix of a bivariate family up to a degree cap in
    the orthonormal scale and compare it with the identity.

    The circle average pairs f_{m,n} only with members of the same
    harmonic index m - n, so the matrix is block diagonal: the blocks of
    index a and -a, members f_{a+k,k} and f_{k,a+k} for k <= cap - |a|,
    share the radial Gram of phi_0..phi_{cap-|a|}(x; |a|) against
    x^|a| dnu, and every entry across blocks is an exact zero.  The norms
    of all blocks come from one radial.norms call, in np.longdouble:
    zeta_k, times pi for Z and H, and for H times s_k^2 of its harmonic
    scale s_k = (-1)^k k!.  One radial_grams request forms every radial
    block (for a q family, one lattice walk) with its rows times
    s_k / sqrt(s_k^2 zeta_k) (s_k = 1 but for H), the orthonormal scale; a
    row whose norm is 0 is left at 0, a failed diagonal.  When the Gram
    fails, its notes name the first harmonic index and degree whose norm
    or row has left the range, if one has.  A family parameter outside
    the range of its measure (bivariate.check_params), NaN and infinities
    included, raises ValueError before any work starts.
    """
    from . import bivariate  # deferred to avoid import cycle

    if degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    bivariate.check_params(fam)
    rad = bivariate.radial_of(fam)
    norm_const = math.pi if fam.tag in ("Z", "H") else 1.0
    alphas = range(degree_cap + 1)
    nmaxes = [degree_cap - a for a in alphas]
    scale = bivariate.harmonic_scale(fam, degree_cap)
    zetas = [z * scale[:len(z)] ** 2 for z in radial.norms(rad, alphas, nmaxes)]
    factors = [np.divide(scale[:len(z)], np.sqrt(z), out=np.zeros_like(z), where=z > 0.0)
               for z in zetas]
    # the Newton coefficients of wall and qjacobi, formed to the cap for
    # every block, leave the range past a block's own degree, which no row
    # reads, from WALL(0.5; 0.001) at cap 30; a row that does raises in the walk
    with np.errstate(over="ignore", invalid="ignore"):
        grams = radial_grams(rad, alphas, nmaxes, factors)
    blocks = []
    for a, nmax, zeta, g in zip(alphas, nmaxes, zetas, grams):
        zeta = norm_const * zeta
        blocks.append(([(a + k, k) for k in range(nmax + 1)], g, zeta))
        if a > 0:
            blocks.append(([(k, a + k) for k in range(nmax + 1)], g, zeta))
    result = summarize(blocks, offdiag_tol, diag_rel_tol)
    if not result.passed:
        result.notes = _range_note(zetas, grams)
    return result


def _range_note(norms, grams):
    """The first harmonic index and degree whose closed-form norm (inf, or
    0 from underflow) or Gram row (an infinite entry) has left the range,
    as a note; "" when none has."""
    for a, (z, g) in enumerate(zip(norms, grams)):
        wrong_norm = np.isinf(z) | (z == 0.0)
        out = np.flatnonzero(wrong_norm | np.isinf(g).any(axis=1))
        if out.size:
            k = out[0]
            if not wrong_norm[k]:
                what = "a Gram entry leaves the float range"
            elif z[k]:
                what = "the closed-form norm overflows the extended range"
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

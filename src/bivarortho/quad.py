"""Quadrature and summation engines.

Gauss rules for the continuous radial measures, relative to their masses
(gauss_rules, every block of a Gram from one recurrence and one
radial.monic_values walk per group of blocks, the one three-term walk:
nodes the eigenvalues of the Jacobi matrix of the closed-form recurrence,
weights the Christoffel numbers over the mass from the np.longdouble rows
at them; golub_welsch is its one-rule call, times the mass), longdouble
q-lattice sums with certified tail bounds (q_lattice_sum), the radial Gram
blocks of a Gram in one request (radial_grams, one gauss_rules pass for a
continuous family, one lattice walk for all blocks of a q family), the
block-diagonal Gram of a bivariate family (gram), the Gram summary shared
with the Askey-Wilson checks (summarize) and zero-circle monotonicity
checks (zero_circle_monotonicity: one array pass over its range of m, one
eigensolve of the stacked Jacobi matrices and one recurrence walk that
certifies every zero of every m by a sign change of p_n across an
interval around it).

Every Gram block (indices, G, zeta) is in one orthonormal scale: its rows
walked with the ratios (s_k / s_(k-1)) sqrt(zeta_(k-1) / zeta_k) of the
np.longdouble closed-form norms zeta inside the recurrence, so that G is
the identity up to rounding wherever the norms and the masses leave the
range, which summarize reads against 1.  The raw entries sqrt(zeta_i)
G_ij sqrt(zeta_j) are formed in raw_entries.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import qcalc, radial
from .qcalc import qpochhammer


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule: nodes, positive weights, the highest polynomial degree
    integrated exactly, and the rows at the nodes in np.longdouble that the
    weights are formed from: p_0..p_{npts-1} of the monic walk, or those of
    the walk with the ratios of gauss_rules."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int
    rows: np.ndarray


def golub_welsch(fam, alpha, npts):
    """Gauss rule of order npts for the measure x^alpha dnu of a continuous
    radial family: the one-rule call of gauss_rules, its weights times the
    mass (radial.measure_mass), inf where the mass leaves the range."""
    rule = next(gauss_rules(fam, [alpha], [npts]))
    return replace(rule, weights=rule.weights * radial.measure_mass(fam, alpha))


def gauss_rules(fam, alphas, npts, ratios=None):
    """Gauss rules for the measures x^alphas[b] dnu of a continuous radial
    family, relative to their masses, rule b of order npts[b], yielded in
    block order from one pass, each equal to its one-rule call bit for bit.

    One closed-form recurrence (A, B) of order max(npts) serves every block
    (radial.recurrence).  The nodes of rule b are the eigenvalues of the
    Jacobi matrix of its first npts[b] terms (numpy.linalg.eigvalsh, the
    route of radial.radial_zeros), one call per block, since the orders
    differ.  Its weights are the Christoffel numbers divided by the mass,
    w_i = 1 / sum_{k<npts} p_k(x_i)^2 / h_k with h_k = B_1 ... B_k the
    squared norms of the monic p_k over the mass, summed from the
    np.longdouble monic rows at the nodes (Golub and Welsch 1969; Gautschi
    2004, Orthogonal Polynomials: Computation and Approximation, 3.1.1).
    Unlike the squared first components of the eigenvectors, they keep
    their relative accuracy at the tiny weights of the largest nodes, and
    the mass, which leaves the np.longdouble range from Gamma(1755), never
    enters them.  Rule b is exact for polynomials of degree <=
    2*npts[b] - 1.  With ``ratios``, one np.longdouble row per block of
    length max(npts), the rows are those of the walk with the ratios of
    block b (radial.monic_values), p_k times r_0 ... r_k, and each term of
    the sum is divided by the squared scale too: by g_k = r_0^2 prod_(i<=k)
    r_i^2 B_i, the same weights up to rounding.

    The rows come from one radial.monic_values walk of a group of
    consecutive blocks, one entry per node with its block's recurrence,
    ratios and degree, and the weights from one sum over it.  A group takes
    blocks while its walk, its largest order times its node count, stays
    within qcalc.MAX_ENTRIES; a larger block walks alone.  The rules of a
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
    R = np.ones_like(A) if ratios is None else ratios
    for lo, hi in _groups(npts):
        yield from _group_rules(A[lo:hi], B[lo:hi], R[lo:hi], npts[lo:hi])


def _groups(orders):
    """The runs lo:hi of consecutive blocks of the given orders taken
    together: each grows while its largest order times the sum of its
    orders stays within qcalc.MAX_ENTRIES, and holds one block at least."""
    lo = 0
    while lo < len(orders):
        hi, top, width = lo + 1, orders[lo], orders[lo]
        while (hi < len(orders)
               and max(top, orders[hi]) * (width + orders[hi]) <= qcalc.MAX_ENTRIES):
            top, width, hi = max(top, orders[hi]), width + orders[hi], hi + 1
        yield lo, hi
        lo = hi


def _group_rules(A, B, R, npts):
    """The Gauss rules of gauss_rules for one group of blocks, block j of
    order npts[j] with the recurrence rows A[j], B[j] and the ratios R[j]
    (all 1 for the monic rows)."""
    top = max(npts)
    # the order-n Jacobi matrix of a block is the leading n x n part of its
    # order-top matrix
    J = radial.jacobi_matrix(A[:, :top], B[:, :top])
    nodes = [np.linalg.eigvalsh(J[j, :n, :n]) for j, n in enumerate(npts)]
    # one walk entry per node, with its block's recurrence and degree
    npts = np.array(npts)
    block = np.repeat(np.arange(len(npts)), npts)
    rows = radial.monic_values(A[block, :top], B[block, :top],
                               np.concatenate(nodes, dtype=np.longdouble), npts[block] - 1,
                               R[block, :top])
    with np.errstate(over="ignore"):
        # g_k = r_0^2 prod_(i<=k) r_i^2 B_i, B_1 ... B_k for the monic
        # rows, which may leave the range at a high order.  Past a block's
        # own degree, where its rows are 0, g_k reads 1
        g = np.cumprod(np.concatenate((R[:, :1] ** 2, B[:, 1:top] * R[:, 1:top] ** 2), axis=1),
                       axis=1)
        g[np.arange(top) >= npts[:, None]] = 1.0
        # C-ordered terms, summed down each column in k order, as a
        # one-block rule sums them
        terms = rows ** 2
        terms /= g[block].T
        weights = 1.0 / terms.sum(axis=0)
    at = 0
    for j, n in enumerate(npts.tolist()):
        yield QuadratureRule(nodes[j], weights[at:at + n], 2 * n - 1, rows[:n, at:at + n])
        at += n


# relative stop target of q_lattice_sum, just under the longdouble epsilon
LATTICE_TAIL_TOL = 1e-19
# points of a lattice direction in its first integrand call; each further
# call takes twice as many as the last, at most LATTICE_MAX_CHUNK, and at
# most qcalc.MAX_ENTRIES rows times points, which bounds the memory of one
# call (1 MB of np.longdouble)
LATTICE_CHUNK = 64
LATTICE_MAX_CHUNK = 1024
LATTICE_MAX_POINTS = 100000
# floor of the running sum in the stop test, at the working precision
_LONGDOUBLE_TINY = np.finfo(np.longdouble).tiny


def _accumulate(op, first, steps):
    """first, first op steps[0], (first op steps[0]) op steps[1], ... in
    np.longdouble: the running products and quotients of a lattice walk."""
    return op.accumulate(np.concatenate(([first], steps)).astype(np.longdouble))


@lru_cache(maxsize=64)
def _lattice_head(a, q):
    """(a; q)_inf, a factor of the first weight of a lattice direction; it
    depends on the family only, so every block of a Gram shares it."""
    return qpochhammer(a, q)


def _running_powers(heads, ratios, n):
    """heads[b] ratios[b]^k, k < n, one np.longdouble row per entry b: the
    running products heads[b], heads[b] ratios[b], ... of a lattice walk."""
    rows = np.empty((len(ratios), n), np.longdouble)
    rows[:, 0] = heads
    rows[:, 1:] = ratios[:, None]
    return np.multiply.accumulate(rows, axis=1, out=rows)


def _lattice_directions(fam, exponents):
    """The directions of the q-lattice of x^alpha dnu for every exponent
    a = alpha + beta of ``exponents``, as tuples (points_weights, tail
    factors, first stop index, lattice index of point k).  points_weights(n)
    gives the first n points, shared by every exponent, and their weights,
    one row per exponent (Koekoek-Lesky-Swarttouw 2010 14.12, 14.20, 14.21),
    each from the running product of its per-step factors; the tail
    factors hold one entry per exponent."""
    q = np.longdouble(fam.q)
    a1 = np.asarray(exponents, dtype=float) + 1
    ratio = q ** a1  # q^(a+1)
    if fam.kind == "wall" or fam.kind == "qjacobi":
        if np.any(a1 <= 0):
            raise ValueError("unilateral lattice needs alpha + 1 > 0")
        lower0 = _lattice_head(q ** (fam.gamma + 1), q) if fam.kind == "qjacobi" else 1.0

        def unilateral(n):
            # x = q^k, weight q^{(a+1)k} (q^{k+1}; q)_inf / (q^{gamma+k+1}; q)_inf
            k = np.arange(1, n)
            x = radial.lattice_points(q, n)
            upper = _accumulate(np.divide, _lattice_head(q, q), 1.0 - q ** k)
            lower = 1.0
            if fam.kind == "qjacobi":
                lower = _accumulate(np.divide, lower0, 1.0 - q ** (fam.gamma + k))
            return x, _running_powers(1.0, ratio, n) * upper / lower

        # the weight decays at least geometrically with ratio q^{a+1} and
        # the integrand is bounded on (0, 1], so the dropped tail is below
        # |term| / (1 - q^{a+1})
        return [(unilateral, 1.0 / (1.0 - ratio), 1, lambda k: k)]
    if fam.kind == "qlaguerre":
        c = np.longdouble(fam.c)
        denom0 = _lattice_head(-c, q)  # (-c; q)_inf
        # x^{a+1} = c^{a+1} q^{(a+1)k}, a running product like the
        # unilateral q^{(a+1)k}: one array pass over every exponent
        head = c ** a1

        def upward(n):
            # x = c q^k -> 0, mass ~ x^{a+1}:
            # (-c q^{k+1}; q)_inf = (-c q^k; q)_inf / (1 + c q^k)
            x = _accumulate(np.multiply, c, np.full(n - 1, q))
            return x, _running_powers(head, ratio, n) / _accumulate(np.divide, denom0, 1.0 + x[:-1])

        def downward(n):
            # x = c q^{-k-1} -> infinity, where the (-x; q)_inf growth wins:
            # (-c q^{-k-1}; q)_inf = (1 + c q^{-k-1}) (-c q^{-k}; q)_inf
            x = _accumulate(np.divide, c, np.full(n, q))[1:]
            return x, (_running_powers(head, q ** -a1, n + 1)[:, 1:]
                       / _accumulate(np.multiply, denom0, 1.0 + x)[1:])

        return [(upward, 1.0 / (1.0 - ratio), 6, lambda k: k),
                (downward, np.ones(len(ratio)), 3, lambda k: -k - 1)]
    raise ValueError(f"not a q-lattice family: {fam.kind!r}")


def _lattice_walk(fam, alphas, integrand, summand, widths=None, faults=None):
    """Walk the directions of the q-lattice of x^alpha dnu for every alpha
    of ``alphas`` at once, one block per alpha: chunks of points shared by
    the blocks, each block stopped by the stop rule of q_lattice_sum, which
    is stated there, on its own terms.

    integrand(x, live) is called once per chunk of points with the boolean
    mask of the blocks still walking; it returns their values stacked
    along the leading axis, widths[b] rows for block b (one block of any
    width when ``widths`` is None), and one column per point, at most
    qcalc.MAX_ENTRIES values once the widths are known.  summand(f) of
    the values, a new np.longdouble array, which the walk overwrites, is
    weighted by each block's weights and summed; block b's stop rule reads
    its own rows of those terms and of their running sums, with its own
    tail factor.  A non-finite term of its own at or before its stop
    point, or a weight there under the np.longdouble range (0 or
    subnormal, whose term the stop rule would read as converged), raises,
    or, when ``faults`` is a dict, stops the block in every direction and
    records what went wrong and its lattice index (as "non-finite term at
    lattice index k" or "weight underflows at lattice index k") under the
    block's position, the term and the points before it kept.  A stopped
    block is not evaluated again in the direction.  Returns (totals, kept),
    per block: the sums of its rows, and per chunk in lattice order the
    triple (x, w, f) of the points and weights up to its stop point and its
    rows of the integrand at them.
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
            live[list(faults or ())] = False
            x = w = ()
            start, chunk = 0, LATTICE_CHUNK
            while live.any():
                step = chunk
                if widths is not None:
                    step = min(chunk, max(1, qcalc.MAX_ENTRIES // int(widths[live].sum())))
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
                low = w[live, start:n] < _LONGDOUBLE_TINY
                hit = stop | bad | low
                ends = np.full(len(rows), n - start - 1)  # the last kept point of each
                for j, (b, at, nrows) in enumerate(zip(np.flatnonzero(live), first, rows)):
                    hits = np.flatnonzero(hit[j])
                    if hits.size:
                        ends[j] = end = hits[0]
                        if bad[j, end] or low[j, end]:
                            what = "non-finite term" if bad[j, end] else "weight underflows"
                            fault = f"{what} at lattice index {index(start + end)}"
                            if faults is None:
                                raise RuntimeError(f"q-lattice sum: {fault}")
                            faults[b] = fault
                        live[b] = False
                    kept[b].append((x[start:start + ends[j] + 1], w[b, start:start + ends[j] + 1],
                                    f[at:at + nrows, :ends[j] + 1]))
                total[mine] = sums[np.arange(len(sums)), np.repeat(ends, rows)]
                if live.any() and n == LATTICE_MAX_POINTS:
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
    point, or a weight there under the np.longdouble range, raises, naming
    its lattice index.  Each direction takes its
    points in chunks: LATTICE_CHUNK in the first integrand call, twice as
    many in each further call up to LATTICE_MAX_CHUNK (and up to
    qcalc.MAX_ENTRIES entries of the integrand's value), and at most
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


def radial_grams(fam, alphas, nmaxes, ratios, faults=None):
    """Gram blocks V W V^T of phi_0..phi_nmaxes[b](x; alphas[b]) against
    x^alphas[b] dnu, one per block b, with row k of block b times the
    running product of ratios[b, 0..k] (``ratios`` one np.longdouble row per
    block, of length max(nmaxes) + 1; gram passes the orthonormal scale):
    for each, one np.dot of the rows V at a rule's points, times its
    weights W, with V^T.

    For the continuous families W holds the Gauss weights relative to the
    mass, so the mass cancels from every block: one gauss_rules pass, of
    order nmax + 1, which is exact to degree 2 nmax + 1, gives the rules of
    all blocks, whose nodes move with alpha, and V their rows, walked with
    radial.lead_ratios times the ratios; each block is taken, and its rule
    dropped, before the next group of rules is walked.  For the q families
    W holds the lattice weights, whose sum is the mass, and every block
    lies on the same lattice points, so one lattice walk serves them all:
    the rows of every block still walking come from one radial.block_rows
    evaluation per chunk of points, and each block keeps the points and
    weights of its own stop point, the stop rule read on its own diagonal
    terms w v_k^2.
    A partial sum of a positively weighted Gram is positive semidefinite,
    so its largest entry is on the diagonal, near 1 in the orthonormal
    scale for every row, and the stop rule relative to it holds for all of
    them.  Each block equals the walk of its block alone bit for bit.  A
    non-finite term or an underflowed weight raises, or, when ``faults`` is
    a dict, stops its block, as in the lattice walk, whose faults the dict
    then holds.
    """
    if not fam.is_q():
        ratios = radial.lead_ratios(fam, alphas, max(nmaxes)) * ratios
        rules = gauss_rules(fam, alphas, [nmax + 1 for nmax in nmaxes], ratios)
        # np.dot, unlike matmul, has a fast loop for np.longdouble
        return [np.dot(rule.rows * rule.weights, rule.rows.T).astype(float) for rule in rules]
    widths = np.asarray(nmaxes) + 1
    rows = radial.block_rows(fam, alphas, nmaxes, ratios)
    _, kept = _lattice_walk(fam, alphas, rows, np.square, widths, faults)
    blocks = []
    for chunks in kept:
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
    block (for a q family, one lattice walk; for a continuous one, Gauss
    rules relative to the mass) in the orthonormal scale, its rows walked
    with the per-step ratios (s_k / s_(k-1)) sqrt(zeta_(k-1) / zeta_k) of
    the norms times s_k^2, taken from the closed-form steps of
    radial.norm_steps, formed once for the norms and the ratios, never by
    dividing two norms, so that the scale stays in range wherever the norms
    leave it; row 0 reads 1 / sqrt(zeta_0) on the lattice, whose weights
    sum to the mass, and 1 in the Gauss rules, where the mass cancels.  A non-finite lattice term,
    or a lattice weight under the np.longdouble range, stops its block and
    fails the Gram.  When the Gram fails, its notes name the first harmonic
    index whose lattice walk met either, what it met and its lattice
    index, and the count of such indices, and the
    first harmonic index and degree whose norm or row has left the range,
    if one has.  A family parameter outside the range of its measure
    (bivariate.check_params), NaN and infinities included, raises
    ValueError before any work starts.
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
    steps = radial.norm_steps(rad, alphas, degree_cap)
    norms = radial.norms(rad, alphas, nmaxes, steps)
    zetas = [z * scale[:len(z)] ** 2 for z in norms]
    h = bivariate.harmonic_ratios(fam, degree_cap)[1:]
    heads = [[1 / np.sqrt(z[0]) if rad.is_q() else 1.0] for z in norms]
    ratios = np.hstack((heads, h / np.sqrt(h * h * steps)))
    # the Newton coefficients of wall and qjacobi, formed to the cap for
    # every block, leave the range past a block's own degree, which no row
    # reads, from WALL(0.5; 0.001) at cap 30; a row that does stops its block
    faults = {}
    with np.errstate(over="ignore", invalid="ignore"):
        grams = radial_grams(rad, alphas, nmaxes, ratios, faults)
    blocks = []
    for a, nmax, zeta, g in zip(alphas, nmaxes, zetas, grams):
        zeta = norm_const * zeta
        blocks.append(([(a + k, k) for k in range(nmax + 1)], g, zeta))
        if a > 0:
            blocks.append(([(k, a + k) for k in range(nmax + 1)], g, zeta))
    result = summarize(blocks, offdiag_tol, diag_rel_tol)
    if faults:
        a = min(faults)
        result.passed, result.notes = False, (
            f"harmonic index {a}: {faults[a]} "
            f"({len(faults)} of {len(alphas)} harmonic indices stopped so)")
    if not result.passed:
        result.notes = "; ".join(filter(None, [result.notes, _range_note(zetas, grams)]))
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


# half-width of the interval that certifies an eigensolver zero, relative
# to the largest zero of its m: eigvalsh's absolute error scales with the
# norm of the Jacobi matrix, which is that largest zero
ZERO_HALF_WIDTH = 1e-12


def zero_circle_monotonicity(rad, n, m_range):
    """Radii of the zero circles of f_{m,n} across a range of m.

    Returns (monotone, radii_table, max_dev): radii_table lists (m, radii)
    with the radii the square roots of the radial zeros at alpha = m - n;
    monotone is True iff every radius strictly increases with m; max_dev is
    the largest half-width w of the intervals that certify the zeros of an
    m, inf when some zero of some m is not certified.  Degree n >= 1 is
    needed, m - n >= 0 for every m of a nonempty range; both are checked
    before any work.

    The zeros z_1 < ... < z_n of an m are the eigensolver's
    (radial.radial_zeros), and w = ZERO_HALF_WIDTH z_n.  They are certified
    when the monic p_n, whose sign differs from that of phi_n by the sign of
    c_0 alone, changes sign across every [z_i - w, z_i + w] (a sign test,
    since a product can underflow; a NaN value certifies nothing) and the n
    intervals are disjoint: p_n has exactly n real zeros, so each interval
    then holds one of them, within w of its eigensolver zero.

    One array pass over the range: one radial.radial_zeros call over the
    array of alpha stacks the Jacobi matrices of every m for one
    eigensolve, and one radial.monic_values walk values p_n at the 2n
    interval ends of every m.  A range whose walks, n + 1 rows at 2n points
    an m, would pass qcalc.MAX_ENTRIES is taken in groups of m that stay
    within it, as gauss_rules groups its blocks (_groups); every m reads
    the same numbers in any group.
    """
    if n < 1:
        # degree 0 has no zeros: a check of none would pass vacuously
        raise ValueError(f"n must be positive, got {n}")
    if not m_range:
        raise ValueError("zero-circle check needs a nonempty range of m")
    if min(m_range) < n:
        raise ValueError("zero-circle check needs m >= n")
    alphas = np.array(m_range) - n
    zeros, dev = [], []
    for lo, hi in _groups([2 * n] * len(alphas)):
        z = radial.radial_zeros(rad, n, alphas[lo:hi])
        w = ZERO_HALF_WIDTH * z[:, -1:]
        ends = np.concatenate((z - w, z + w), axis=1)
        p = radial.monic_values(*radial.recurrence(rad, alphas[lo:hi], n + 1), ends)[n]
        left, right = p[:, :n], p[:, n:]
        change = ((left < 0) & (right > 0)) | ((left > 0) & (right < 0))
        apart = ends[:, 1:n] > ends[:, n:-1]
        certified = change.all(axis=1) & apart.all(axis=1)
        zeros.append(z)
        dev.append(np.where(certified, w[:, 0], np.inf))
    max_dev = float(np.max(np.concatenate(dev)))
    radii = np.sqrt(np.concatenate(zeros))
    monotone = bool(np.all(radii[1:] > radii[:-1]))
    return monotone, list(zip(m_range, radii)), max_dev

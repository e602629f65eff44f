"""Radial orthogonal polynomial families phi_n(x; alpha).

Each family provides the exact expansion coefficients c_j(n, alpha) of

    phi_n(x; alpha) = sum_j c_j(n, alpha) x^(n-j),

orthogonal with respect to x^alpha dnu(x) for a measure dnu fixed by the
family parameters.  The ``alpha`` argument is always the circle-harmonic
construction parameter (m - n in the bivariate setting); the family's own
exponent parameters are added internally.

Families
--------
laguerre(beta)                phi_n = L_n^(alpha+beta),      dnu = x^beta e^-x dx
shifted_jacobi(beta, gamma)   phi_n = P_n^(alpha+gamma,beta)(1-2x),
                              dnu = x^gamma (1-x)^beta dx on (0,1)
q_laguerre(beta, q, c)        phi_n = L_n^(alpha+beta)(x; q), bilateral lattice c q^k
wall(beta, q)                 phi_n = p_n(x; q^(alpha+beta) | q), lattice q^k
little_q_jacobi(beta, gamma, q)  phi_n = p_n(x; q^(alpha+beta), q^gamma | q)

Every table is a row of coeff_rows, one array pass over any number of
(n, alpha) pairs; radial_coeffs is its one-row call.  Besides coefficient
tables the module provides the closed-form monic three-term recurrence of
each family (recurrence), the ratios c_0(k) / c_0(k - 1) of its leading
coefficients (lead_ratios) and monic_values, the one walk of every
three-term recurrence of the package, a batch of them at once, each
entry to its own degree, its rows scaled by per-step ratios taken inside
the recurrence, or monic without them.  On them rest phi_rows, the route
for numerics at nodes and sample points (the tables serve the exact
identity algebra), and the rows of all blocks of a q-family Gram in one
evaluation (block_rows: one walk on the bilateral q-Laguerre lattice, and
for wall and little q-Jacobi the terminating Newton form of their 2phi1
on the nodes of lattice_points).  The module also provides the norms
(norms, the one home of every family's closed form: np.longdouble rows,
one per alpha to its own degree, each a running product from its mass by
the closed-form steps of norm_steps, which a Gram's orthonormal ratios
read instead of dividing two norms; zeta reads one entry), the masses of
the continuous measures (measure_mass, one array pass over any number of
alpha, which norms takes in one call), and zeros as the eigenvalues of
the symmetric Jacobi matrix (jacobi_matrix, stacked for an array of
alpha; numpy.linalg.eigvalsh, one call over them in radial_zeros), the
path of the Gauss nodes too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .polycore import powers
from .qcalc import pochhammer, products, qproduct_terms

KINDS = frozenset(("laguerre", "jacobi", "qlaguerre", "wall", "qjacobi"))


@dataclass(frozen=True)
class RadialFamily:
    """Radial family selector, its kind checked and its hash formed once,
    when it is made; unpickling and copying make it again through the
    constructor (``__reduce__``), since a str hash differs between
    processes."""

    kind: str
    beta: float = 0.0
    gamma: float = 0.0
    q: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown radial family kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.beta, self.gamma, self.q, self.c)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.kind, self.beta, self.gamma, self.q, self.c)

    def is_q(self):
        return self.kind in ("qlaguerre", "wall", "qjacobi")


def laguerre(beta):
    return RadialFamily("laguerre", beta=beta)


def shifted_jacobi(beta, gamma):
    return RadialFamily("jacobi", beta=beta, gamma=gamma)


def q_laguerre(beta, q, c=1.0):
    return RadialFamily("qlaguerre", beta=beta, q=q, c=c)


def wall(beta, q):
    return RadialFamily("wall", beta=beta, q=q)


def little_q_jacobi(beta, gamma, q):
    return RadialFamily("qjacobi", beta=beta, gamma=gamma, q=q)


def _prefix_rows(bases, q, n):
    """(b; q)_0..(b; q)_n per entry b of ``bases``: qcalc.qpochhammer's running products."""
    steps = np.full((len(bases), n + 1), q)
    steps[:, 0] = bases
    steps[:, 1:] = 1.0 - np.multiply.accumulate(steps, axis=1)[:, :n]  # 1 - b q^i
    steps[:, 0] = 1.0
    return np.multiply.accumulate(steps, axis=1)


def _head(fam, t, n):
    """c_0 of a classical table by its one-table formula, t = alpha + beta +
    gamma; NaN where it leaves the float range."""
    try:
        if fam.kind == "laguerre":
            return (-1.0) ** n / math.factorial(n)
        return (-1.0) ** n * pochhammer(t + n + 1, n) / math.factorial(n)
    except OverflowError:
        return math.nan


def coeff_rows(fam, ns, alphas):
    """Exact coefficient rows c_j(n, alpha), j = 0..n, of x^(n-j) in phi_n
    for the 1-D arrays ``ns`` and ``alphas`` of (n, alpha) pairs: row p, of
    width max(ns) + 1, holds the table of (ns[p], alphas[p]), then zeros; a
    row with an entry outside the float range reads NaN.  One array pass
    over all pairs, in the float operations of the one-table formulas:
    classical rows are running products of term ratios from c_0 (laguerre,
    a = alpha + beta: c_0 = (-1)^n / n!, ratios -(n - j)(a + n - j) /
    (j + 1); jacobi, g = alpha + gamma, t = g + beta: c_0 = (-1)^n
    (t + n + 1)_n / n!, ratios -(n - j)(g + n - j) / ((j + 1)(t + 2n - j))).
    q rows share the term H (T; q)_(n-j) q^P(j) (-1)^(n-j) / ((q; q)_j
    (q; q)_(n-j) (q^(a+1); q)_(n-j)): qlaguerre H = (q^(a+1); q)_n, T = 0,
    P(j) = (a + n - j)(n - j); wall H = (q; q)_n, T = 0, P(j) = j(j - 1)/2
    - n(n - 1)/2; qjacobi as wall with T = q^(a + gamma + n + 1); its
    factors are prefix rows, one per distinct base, and Python's float
    powers of q (numpy's array power rounds apart)."""
    n, alpha = np.asarray(ns, dtype=int), np.asarray(alphas, dtype=float)
    if np.any(n < 0):
        raise ValueError("degree must be nonnegative")
    col, j = n[:, None], np.arange(n.max(initial=0) + 1)
    live = j <= col  # the entries of each row's own table
    with np.errstate(all="ignore"):
        if fam.kind == "laguerre" or fam.kind == "jacobi":
            i, t = j[:-1], alpha + fam.beta + fam.gamma
            head = np.array([_head(fam, *pair) for pair in zip(t.tolist(), n.tolist())], float)
            if fam.kind == "laguerre":
                g, den = alpha + fam.beta, i + 1.0
            else:
                g, den = alpha + fam.gamma, (i + 1.0) * ((t[:, None] + 2 * col) - i)
            ratios = -(col - i) * ((g[:, None] + col) - i) / den
            out = np.concatenate((head[:, None], ratios), axis=1)
            np.multiply.accumulate(out, axis=1, out=out)
        else:
            q, a, top = fam.q, alpha + fam.beta, len(j) - 1
            back = np.where(live, col - j, 0)  # n - j, 0 past the row
            qq = _prefix_rows(np.array([q]), q, top)[0]
            bases, which = np.unique(powers(q, a + 1), return_inverse=True)
            qa = _prefix_rows(bases, q, top)
            if fam.kind == "qlaguerre":
                out = qa[which, n][:, None]
                exps = ((a[:, None] + col) - j) * back
            else:
                out = qq[n][:, None]
                exps = np.where(live, j * (j - 1) / 2.0 - (col * (col - 1)) / 2.0, 0.0)
            if fam.kind == "qjacobi":
                tops, at = np.unique(powers(q, a + fam.gamma + n + 1), return_inverse=True)
                out = out * _prefix_rows(tops, q, top)[at[:, None], back]
            exps, at = np.unique(exps, return_inverse=True)
            out = (out * powers(q, exps)[at].reshape(back.shape) * np.where(back % 2, -1.0, 1.0)
                   / (qq[j] * qq[back] * qa[which[:, None], back]))
        out = np.where(live, out, 0.0)
        out[~np.isfinite(out).all(axis=1)] = np.nan
    return out


def radial_coeffs(fam, n, alpha):
    """Exact coefficients c_j(n, alpha), j = 0..n, of x^(n-j) in phi_n: the
    one row of coeff_rows; OverflowError where that row reads NaN."""
    row = coeff_rows(fam, [n], [alpha])[0]
    if np.isnan(row[0]):
        raise OverflowError(f"{fam.kind} table of degree {n} at alpha = {alpha} "
                            "leaves the float range")
    return row


def zeta(fam, n, alpha):
    """Squared norm of phi_n with respect to x^alpha dnu: one entry of norms.
    phi_0 = 1 for every family, so zeta_0 is the total mass of x^alpha dnu."""
    return norms(fam, [alpha], [n])[0][n]


def _col(v):
    return np.reshape(v, (-1, 1))


def norm_steps(fam, alphas, nmax):
    """The closed-form ratios zeta_n / zeta_(n-1), n = 1..nmax, of the
    squared norms of phi_n with respect to x^alphas[b] dnu, one np.longdouble
    row per block b: the steps of norms' running products, and of the
    orthonormal scale of a Gram, which never divides two norms.

    laguerre (a = alpha + beta): (a + n) / n.  jacobi (g = alpha + gamma,
    t = g + beta): (g + 1)(beta + 1) / (t + 3) at n = 1 (no 0/0 at t = -1),
    then (g + n)(beta + n)(t + 2n - 1) / (n (t + n)(t + 2n + 1)).  With
    a = alpha + beta: qlaguerre (1 - q^(a+n)) / ((1 - q^n) q); wall
    q^(a+1) (1 - q^n) / (1 - q^(a+n)); qjacobi (g = gamma, s = a + g + 1)
    wall's times (1 - q^(g+n)) / (1 - q^(s+2n)), and from n = 2 times
    (1 - q^(s+2n-2)) / (1 - q^(s+n-1)) (no 0/0 at s = 0, abq = 1).  The
    powers q^n are the running products of lattice_points."""
    n = np.arange(1, nmax + 1, dtype=np.longdouble)
    if fam.kind == "laguerre":
        return (_col(np.add(alphas, fam.beta)) + n) / n
    if fam.kind == "jacobi":
        b, g, m = fam.beta, _col(np.add(alphas, fam.gamma)), n[1:]
        t = g + b
        return np.concatenate(((g + n[:1]) * (b + n[:1]) / (t + 3.0), (g + m) * (b + m)
                               * (t + 2 * m - 1) / (m * (t + m) * (t + 2 * m + 1))), axis=1)
    q = np.longdouble(fam.q)
    qa = _col(q ** np.add(alphas, fam.beta))  # q^a
    pw = lattice_points(q, 2 * nmax + 1)  # pw[i] = q^i
    qn = pw[1:nmax + 1]
    if fam.kind == "qlaguerre":
        return (1.0 - qa * qn) / ((1.0 - qn) * q)
    steps = qa * q * (1.0 - qn) / (1.0 - qa * qn)
    if fam.kind == "qjacobi":
        qg = q ** fam.gamma
        qs = qa * qg * q
        steps *= (1.0 - qg * qn) / (1.0 - qs * pw[2:2 * nmax + 1:2])
        m = np.arange(2, nmax + 1)  # the degrees past 1
        steps[:, 1:] *= (1.0 - qs * pw[2 * m - 2]) / (1.0 - qs * pw[m - 1])
    return steps


def norms(fam, alphas, nmaxes, steps=None):
    """The squared norms zeta_0..zeta_nmaxes[b] of phi_n with respect to
    x^alphas[b] dnu for every block b, as a list of np.longdouble rows, each
    to its own degree: the one home of every family's closed form.  Each
    row is one running product from its mass zeta_0 by the steps
    zeta_n / zeta_(n-1) of norm_steps (``steps`` when the caller has formed
    norm_steps(fam, alphas, max(nmaxes)) already), all rows in one
    np.cumprod, so every entry equals that of the one-alpha call bit for
    bit; a norm outside the np.longdouble range reads inf or 0, without a
    warning.

    laguerre (a = alpha + beta): zeta_n = Gamma(a + n + 1) / n!.  jacobi
    (g = alpha + gamma, t = g + beta): zeta_n = Gamma(g + n + 1)
    Gamma(beta + n + 1) / (n! Gamma(t + n + 1) (t + 2n + 1)).  Their masses
    are one measure_mass call over every alpha.

    For the q families (a = alpha + beta, g = gamma, s = a + g + 1)

        qlaguerre: zeta_n = R (q^(a+1); q)_n / ((q; q)_n q^n),
        wall, qjacobi: zeta_n = R q^((a+1) n) (q; q)_n / (q^(a+1); q)_n
                 [qjacobi: * (q^(g+1); q)_n (q^(s+n); q)_n / (q^(s+1); q)_2n],

    where R = (q; q)_inf / (q^(a+1); q)_inf times, for qlaguerre,
    c^(a+1) (-c q^(a+1); q)_inf (-q^(-a) / c; q)_inf / ((-c; q)_inf
    (-q / c; q)_inf) and, for qjacobi, (q^(s+1); q)_inf / (q^(g+1); q)_inf.
    It is one product of factor ratios near 1, kept to the largest of
    qproduct_terms over the absolute values of its arguments, each row to
    its own count, in one qcalc.products pass, whose memory stays bounded
    however many factors q -> 1 takes; unlike the separate infinite
    products they neither underflow nor overflow as q -> 1 ((q; q)_inf is
    1e-714 at q = 0.999).
    """
    if fam.kind == "laguerre" or fam.kind == "jacobi":
        head = measure_mass(fam, alphas)
    else:
        a = np.add(alphas, fam.beta)
        q = np.longdouble(fam.q)
        qa = q ** a  # q^a
        up, down = [q], [qa * q]
        if fam.kind == "qlaguerre":
            c = np.longdouble(fam.c)
            up += [-c * qa * q, -1.0 / (qa * c)]
            down += [-c, -q / c]
        elif fam.kind == "qjacobi":
            qg = q ** fam.gamma
            up.append(qa * qg * q * q)
            down.append(qg * q)
        # qproduct_terms grows with |argument|: the largest one of a row
        # sets the count of its factors
        sizes = np.max(np.abs(np.broadcast_arrays(*up, *down)), axis=0)
        count = np.array([qproduct_terms(size, q) for size in sizes])
        pw = lattice_points(q, int(count.max()))  # pw[i] = q^i

        def ratios(k):
            ratio = 1.0
            for u, d in zip(up, down):
                ratio = ratio * ((1.0 - u * pw[k]) / (1.0 - d * pw[k]))
            return ratio

        with np.errstate(over="ignore"):
            head = products(ratios, count, np.longdouble)
            if fam.kind == "qlaguerre":
                head = head * c ** (a + 1)
    with np.errstate(over="ignore"):
        if steps is None:
            steps = norm_steps(fam, alphas, max(nmaxes))
        out = np.cumprod(np.concatenate((_col(head), steps), axis=1), axis=1)
    return [row[:n + 1] for row, n in zip(out, nmaxes)]


def _whole_part(x):
    """(f, N) with x = f + N, f in (0, 1] and N >= 0 an integer."""
    count = math.ceil(x) - 1
    return x - count, count


def _rising(start, count, shift=None):
    """prod_(i<count) (start + i), or prod_(i<count) (start + i) / (start + i
    + shift), in np.longdouble, for every entry of the sequences ``start``,
    ``count`` and ``shift`` of one length: one qcalc.products pass, so that
    each equals its one-entry product bit for bit and a large count costs
    time but no memory; inf past the range."""
    # np.longdouble rows, so that every factor is formed in it
    start = np.array(start, np.longdouble)
    if shift is not None:
        shift = np.array(shift, np.longdouble)

    def factors(k):
        grow = start + k
        if shift is not None:
            grow /= grow + shift
        return grow

    with np.errstate(over="ignore"):
        return products(factors, np.array(count, int), np.longdouble)


def measure_mass(fam, alpha):
    """Total mass of x^alpha dnu of a continuous family, in np.longdouble:
    zeta_0 of norms bit for bit.  With x = a + 1 (laguerre, a = alpha +
    beta) or g + 1 (jacobi, g = alpha + gamma) written f + N and beta + 1
    written e + M, f and e in (0, 1], it is the product Gamma(a + 1) =
    Gamma(f) prod_(i<N) (f + i), or B(g + 1, beta + 1) = B(f, e)
    prod_(i<N) (f + i) / (f + i + e) prod_(j<M) (e + j) / (x + e + j), so
    math.gamma meets no argument past 2.  ``alpha`` may be a 1-D array:
    one mass per entry, the running products of all in one pass (_rising),
    each equal to its one-alpha mass bit for bit."""
    if fam.kind != "laguerre" and fam.kind != "jacobi":
        raise ValueError(f"not a continuous family: {fam.kind!r}")
    shift = fam.beta if fam.kind == "laguerre" else fam.gamma
    x = [a + shift + 1.0 for a in np.ravel(alpha).tolist()]
    f, count = zip(*map(_whole_part, x)) if x else ((), ())
    head = np.array([math.gamma(v) for v in f])
    if fam.kind == "laguerre":
        mass = head * _rising(f, count)
    else:
        e, count_b = _whole_part(fam.beta + 1.0)
        head = head * math.gamma(e) / np.array([math.gamma(v + e) for v in f])
        es = [e] * len(f)
        mass = head * _rising(f, count, es) * _rising(es, [count_b] * len(f), x)
    return mass if np.ndim(alpha) else mass[0]


def recurrence(fam, alpha, npts):
    """Monic three-term recurrence x p_n = p_{n+1} + A_n p_n + B_n p_{n-1},
    n = 0..npts-1, of p_n = phi_n(x; alpha) / c_0(n, alpha).

    Closed forms from Koekoek, Lesky and Swarttouw (2010): Laguerre 9.12,
    Jacobi 9.8 (mapped by x = (1 - y) / 2), little q-Jacobi 14.12 (with
    a = q^(alpha+beta), b = q^gamma), little q-Laguerre 14.20 (b = 0) and
    q-Laguerre 14.21.  Returns (A, B) in np.longdouble with B_0 = 0; the
    removable 0/0 of the Jacobi forms at n = 0, 1 (alpha+beta+gamma = 0,
    -1) and of the little q-Jacobi forms at n = 0 (ab = 1 or abq = 1) are
    set from their cancelled limits.  ``alpha`` may be a 1-D array; A and
    B then hold one row per entry, each equal to its one-alpha recurrence
    bit for bit.
    """
    n = np.arange(npts, dtype=np.longdouble)
    # a float column for an array alpha; a one-entry axis, which the
    # products over n absorb, for a number
    alpha = np.asarray(alpha, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam.kind == "laguerre":
            a = alpha + fam.beta
            A = 2 * n + a + 1
            B = n * (n + a)
        elif fam.kind == "jacobi":
            g = alpha + fam.gamma
            b = fam.beta
            t = g + b
            s = 2 * n + t
            A = (1 - (b - g) * t / (s * (s + 2))) / 2
            B = n * (n + g) * (n + b) * (n + t) / (s * s * (s + 1) * (s - 1))
            A[..., 0] = ((1 - (b - g) / (t + 2)) / 2)[..., 0]
            # (t + 2) ** 2 by Python's float power entry by entry, as a
            # number alpha takes it: numpy squares, which can round apart
            square = np.reshape([x ** 2 for x in (t + 2).ravel().tolist()], t.shape)
            B[..., 1:2] = (1 + g) * (1 + b) / (square * (t + 3))
        else:
            q = np.longdouble(fam.q)
            qn = q ** n
            a = q ** (alpha + fam.beta).astype(np.longdouble)
            if fam.kind == "qlaguerre":
                A = ((1 - q * qn) + q * (1 - a * qn)) / (a * q * qn * qn)
                B = q * (1 - qn) * (1 - a * qn) / (a * a * qn ** 4)
            else:
                b = q ** np.longdouble(fam.gamma) if fam.kind == "qjacobi" else 0
                ab = a * b
                up = (qn * (1 - a * q * qn) * (1 - ab * q * qn)
                      / ((1 - ab * q * qn * qn) * (1 - ab * q * q * qn * qn)))
                down = (a * qn * (1 - qn) * (1 - b * qn)
                        / ((1 - ab * qn * qn) * (1 - ab * q * qn * qn)))
                up[..., 0] = ((1 - a * q) / (1 - ab * q * q))[..., 0]
                down[..., 0] = 0
                A = up + down
                B = np.concatenate((np.zeros_like(up[..., :1]), up[..., :-1] * down[..., 1:]),
                                   axis=-1)
    B[..., 0] = 0
    return A, B


def monic_values(A, B, x, degrees=None, ratios=None):
    """Rows p_0(x)..p_{K-1}(x) of the monic recurrence (A, B) at the points
    x, row k times the running product r_0 ... r_k of ``ratios`` (of the
    shape of A) when given, in np.longdouble, with K the length of the last
    axis of A and B: the one three-term walk of the package,

        phi_(k+1) = r_(k+1) [(x - A_k) phi_k - B_k r_k phi_(k-1)]

    from phi_0 = r_0, with phi_1 = r_1 (x - A_0) phi_0 (Gautschi 2004,
    Orthogonal Polynomials, 1.3: the orthonormal recurrence is one choice
    of ratios).  The ratios are taken inside the recurrence, so rows whose
    scale and monic values leave the range in opposite directions stay in
    it.  Without them (r = 1, whose products are exact) it is the monic
    walk p_(k+1) = (x - A_k) p_k - B_k p_(k-1) from p_0 = 1, bit for bit.

    A and B may hold one recurrence per entry (an alpha, say) on axes
    before the last, as recurrence gives them for an array of alpha.  The
    leading axes of x pair with those entry axes, each of length 1 for
    points shared by every entry or one per entry, and its further axes
    hold the points: row k is of shape shape(A)[:-1] + shape(x)[A.ndim -
    1:].  The grid of every entry at the points y is x = y[None].

    ``degrees``, one per entry along the first entry axis (which x then
    holds too), stops entry i at degree degrees[i] < K: it is not walked
    further, and its rows past that degree are 0.  The entries are walked
    by falling degree, so that those still walking at step k, of degree
    > k, are a prefix of them.  Every entry equals its own one-entry walk
    bit for bit, in the same float operations."""
    x = np.asarray(x, dtype=np.longdouble)
    B, R = (B, np.ones_like(A)) if ratios is None else (B * ratios, ratios)  # B_k r_k
    rows = np.zeros((A.shape[-1],) + A.shape[:-1] + x.shape[A.ndim - 1:], dtype=np.longdouble)
    if A.ndim > 1:
        # step k as one column per entry, which broadcasts over its points
        grid = A.shape[:-1] + (1,) * (x.ndim - A.ndim + 1)
        axes = (A.ndim - 1,) + tuple(range(A.ndim - 1))  # the step axis first
        A, B, R = (C.transpose(axes).reshape((-1,) + grid) for C in (A, B, R))
    if degrees is not None:
        degrees = np.asarray(degrees)
        unsorted = (degrees[1:] > degrees[:-1]).any()
        if unsorted:
            order = np.argsort(-degrees, kind="stable")
            A, B, R, degrees = A[:, order], B[:, order], R[:, order], degrees[order]
            if len(x) > 1:
                x = x[order]
    rows[0] = R[0]
    if degrees is None:
        # [()] turns a 0-d point into a numpy scalar, whose arithmetic is
        # several times cheaper than a 0-d array's; arrays pass unchanged
        x = x[()]
        prev, cur = 0, rows[0]
        for k in range(len(A) - 1):
            prev, cur = cur, ((x - A[k]) * cur - B[k] * prev) * R[k + 1]
            rows[k + 1] = cur
        return rows
    # live[k] entries, those of degree > k, walk step k, in the float
    # operations of the loop above, in place in their rows
    live = np.searchsorted(-degrees, -np.arange(degrees.max(initial=0)))
    for k, c in enumerate(live.tolist()):
        row = np.multiply(x[:c] - A[k, :c], rows[k, :c], out=rows[k + 1, :c])
        if k:
            row -= B[k, :c] * rows[k - 1, :c]
        row *= R[k + 1, :c]
    return np.take(rows, np.argsort(order), axis=1) if unsorted else rows


def lead_ratios(fam, alpha, nmax):
    """The ratios r_k = c_0(k, alpha) / c_0(k - 1, alpha), k = 1..nmax,
    after r_0 = c_0(0, alpha) = 1, in np.longdouble: the ratios with which
    monic_values walks phi_k = c_0(k) p_k.  Their running product c_0(k)
    leaves the range where the ratios do not (laguerre from k = 1755, the q
    families at small q), so it is never formed.  laguerre -1 / k; jacobi
    (t = alpha + beta + gamma) -(t + 2) at k = 1, no 0/0 at t = -1, then
    -(t + 2k)(t + 2k - 1) / (k (t + k)); with a = alpha + beta, qlaguerre
    -q^(a+2k-1) / (1 - q^k), wall -q^(1-k) / (1 - q^(a+k)), and qjacobi
    (s = a + gamma + 1) wall's times (1 - q^(s+2k-2)) (1 - q^(s+2k-1)) /
    (1 - q^(s+k-1)), at k = 1 -(1 - q^(s+1)) / (1 - q^(a+1)), no 0/0 at
    s = 0.  ``alpha`` may be a 1-D array: one row per entry, each its
    one-alpha row bit for bit."""
    k = np.arange(1, nmax + 1, dtype=np.longdouble)
    if fam.kind == "laguerre":
        steps = -1.0 / k
        if np.ndim(alpha):
            steps = np.broadcast_to(steps, np.shape(alpha) + k.shape)
    elif fam.kind == "jacobi":
        # a column for an array alpha; a one-entry axis, which the steps
        # over k absorb, for a number
        t = np.asarray(alpha, dtype=float)[..., None] + fam.beta + fam.gamma
        steps = np.concatenate((-(t + 2.0), -(t + 2 * k[1:]) * (t + 2 * k[1:] - 1)
                                / (k[1:] * (t + k[1:]))), axis=-1)[..., :nmax]
    else:
        q = np.longdouble(fam.q)
        a = np.asarray(np.add(alpha, fam.beta), dtype=np.longdouble)[..., None]
        if fam.kind == "qlaguerre":
            steps = -q ** (a + 2 * k - 1) / (1.0 - q ** k)
        else:
            steps = -q ** (1.0 - k) / (1.0 - q ** (a + k))
        if fam.kind == "qjacobi":
            s, m = a + fam.gamma + 1.0, k[1:]
            steps *= np.concatenate((1.0 - q ** (s + 1.0), (1.0 - q ** (s + 2 * m - 2))
                                     * (1.0 - q ** (s + 2 * m - 1)) / (1.0 - q ** (s + m - 1))),
                                    axis=-1)[..., :nmax]
    return np.concatenate((np.ones(steps.shape[:-1] + (1,), np.longdouble), steps), axis=-1)


def phi_rows(fam, alpha, nmax, degrees=None):
    """Evaluator of the rows phi_0..phi_nmax(x; alpha).

    Returns rows(x), k = 0..nmax, from one monic_values walk with the
    ratios of lead_ratios, in np.longdouble and of shape (nmax + 1,) +
    shape(x).  ``alpha`` may be a 1-D array: rows(x) then holds the rows of
    every alpha, of shape (len(alpha), nmax + 1) + shape(x), from one walk
    over the (alpha x point) grid, each equal to its one-alpha rows bit for
    bit; with ``degrees``, one per alpha, the rows of alpha[i] past
    degrees[i] are not walked and read 0.  The ratios and the recurrence
    are formed once, so a lattice sum can call rows chunk by chunk.  This
    is the one route to values at points; the tables serve the algebra.
    """
    ratios = lead_ratios(fam, alpha, nmax)
    A, B = recurrence(fam, alpha, nmax + 1)

    def rows(x):
        x = np.asarray(x)
        if ratios.ndim == 1:
            return monic_values(A, B, x, ratios=ratios)
        # the walk's k axis after alpha
        return np.moveaxis(monic_values(A, B, x[None], degrees, ratios), 0, 1)

    return rows


def lattice_points(q, n):
    """The first n points q^0, q^1, ... of the unilateral q-lattice in
    np.longdouble, each the running product of the last and q, so that a
    point and the equal Newton node of block_rows are one number."""
    steps = np.full(max(n - 1, 0), q, dtype=np.longdouble)
    return np.multiply.accumulate(np.concatenate(([np.longdouble(1.0)], steps)))[:n]


def _newton_coeffs(fam, alpha, nmax, ratios):
    """The coefficients of the wall and qjacobi rows in the terminating
    Newton form of their 2phi1 (Koekoek-Lesky-Swarttouw 2010, 14.12.1) on
    the nodes q^i of lattice_points, with a = q^(alpha+beta) and b = q^gamma
    (b = 0 for wall):

        phi_n(x) = P_n sum_{j<=n} T_{n,j} prod_{i<j} (x - q^i),
        T_{n,j} = prod_{i<j} (1 - q^(i-n)) (1 - ab q^(n+1+i))
                  / ((1 - b q^(i+1)) (1 - q^(i+1))) (-q^(-i) / a),
        P_n = (bq; q)_n / (aq; q)_n (-1)^n q^(n(n-1)/2) (aq)^n.

    The products P_n T_{n,j} for degrees n, j <= nmax at every entry of
    the 1-D array ``alpha``, of shape (len(alpha), nmax + 1, nmax + 1),
    with P_n times the running product of the entry's row of ``ratios`` to
    n.  T_{n,j} is one running product over i < j, and P_n one over i < n,
    its steps times the ratios, so the entries of degrees up to m are those
    of the same call at nmax = m."""
    q = np.longdouble(fam.q)
    a = q ** np.asarray(np.add(alpha, fam.beta), dtype=np.longdouble)[:, None]
    # one table of powers, pw[nmax + k] = q^k, so that q^(i-n) at i = n is
    # q ** 0, an exact 1, and T_{n,j} is an exact zero for j > n; powers
    # taken whole, not as running products, keep 1 - q^k accurate near q = 1
    pw = q ** np.arange(-nmax, 2 * nmax + 1)
    up = pw[nmax + 1:2 * nmax + 1]  # q^(i+1), i < nmax
    n = np.arange(nmax + 1)[:, None]
    i = np.arange(nmax)
    ratio = (1 - pw[nmax + i - n]) * (pw[nmax:0:-1] / (-a * (1 - up)))[:, None]
    steps = -a * up / (1 - a * up)
    if fam.kind == "qjacobi":
        b = q ** np.longdouble(fam.gamma)
        ratio *= (1 - (a * b)[:, None] * pw[nmax + 1 + n + i]) / (1 - b * up)
        steps *= 1 - b * up
    coef = np.ones((len(a), nmax + 1, nmax + 1), np.longdouble)
    np.cumprod(ratio, axis=2, out=coef[:, :, 1:])
    lead = np.cumprod(np.concatenate((ratios[:, :1], steps * ratios[:, 1:]), axis=1), axis=1)
    return coef * lead[:, :, None]


def block_rows(fam, alphas, nmaxes, ratios):
    """Evaluator of the rows of several blocks of a q family at once:
    block b is phi_0..phi_nmaxes[b](x; alphas[b]), row k times the running
    product of ratios[b, 0..k] (``ratios`` one np.longdouble row per block,
    of length max(nmaxes) + 1; gram passes the orthonormal scale).

    Returns rows(x, live): the rows of the blocks where the boolean mask
    ``live`` is True, stacked block after block, at the 1-D np.longdouble
    points x, in np.longdouble of shape (rows, len(x)).  Each row equals
    its one-block evaluation bit for bit.  For qlaguerre, one monic_values
    walk of the live blocks, each with its own A_k and B_k, its
    lead_ratios times its ratios, and stopped at its own degree, broadcast
    over the shared points.  For wall and qjacobi, the terminating Newton
    form of _newton_coeffs: one Newton basis prod_{i<j} (x - q^i), j up to
    the largest live degree, shared by every block, and one np.dot of the
    stacked coefficient rows with it.  A block's coefficients past its own
    degree n are exact zeros (T_{n,j} for j > n), whose products add
    nothing to the sums, which np.dot forms in index order.  The
    coefficients of all blocks are formed in one array pass.  At a lattice
    point x = q^k the node q^k is x itself, so every Newton term past
    j = min(n, k) is an exact zero.  For q up to 0.8 the rest cancel
    mildly, where the three-term recurrence at the same points loses up to
    70 digits; their cancellation grows as q -> 1, where the recurrence
    does better (WALL cap 3 at q = 0.999 reads max_offdiag 1.3e-9 from
    these rows).
    """
    nmaxes = np.asarray(nmaxes)
    top = int(nmaxes.max())
    block = np.repeat(np.arange(len(nmaxes)), nmaxes + 1)  # the block of each row
    degree = np.arange(len(block)) - np.repeat(np.cumsum(nmaxes + 1) - nmaxes - 1, nmaxes + 1)

    if fam.kind == "qlaguerre":
        A, B = recurrence(fam, alphas, top + 1)
        R = lead_ratios(fam, alphas, top) * ratios

        def rows(x, live):
            deg = int(nmaxes[live].max())
            walk = monic_values(A[live, :deg + 1], B[live, :deg + 1], x[None], nmaxes[live],
                                R[live, :deg + 1])
            mine = live[block]  # the rows of the live blocks
            # row (degree, block) of the (k x live block x point) walk
            return walk[degree[mine], (np.cumsum(live) - 1)[block[mine]]]

        return rows
    coef = _newton_coeffs(fam, alphas, top, ratios)[block, degree]
    nodes = lattice_points(np.longdouble(fam.q), top)[:, None]

    def rows(x, live):
        deg = int(nmaxes[live].max())
        newton = np.ones((deg + 1, len(x)), np.longdouble)
        np.cumprod(x[None, :] - nodes[:deg], axis=0, out=newton[1:])
        # np.dot, unlike matmul, has a fast loop for np.longdouble
        return np.dot(coef[live[block], :deg + 1], newton)

    return rows


def jacobi_matrix(A, B):
    """The symmetric Jacobi matrix of order n, the length of the last axis
    of A and B, of the monic recurrence (A, B) as a dense float array:
    diagonal A_k, subdiagonal sqrt(B_k), k >= 1, and a zero upper triangle,
    which numpy.linalg.eigvalsh does not read.  A and B may hold one
    recurrence per alpha on axes before the last, as recurrence gives them
    for an array of alpha: the matrices are then stacked on those axes.
    Raises ValueError when some B_k, k >= 1, is not positive: the measure
    is then not positive."""
    if np.any(B[..., 1:] <= 0):
        raise ValueError("nonpositive recurrence product; measure not positive")
    n = A.shape[-1]
    k = np.arange(n)
    J = np.zeros(A.shape + (n,))
    J[..., k, k] = A
    J[..., k[1:], k[:-1]] = np.sqrt(B[..., 1:])
    return J


def radial_zeros(fam, n, alpha):
    """Zeros of phi_n(x; alpha), ascending: the eigenvalues of its Jacobi
    matrix of order n by numpy.linalg.eigvalsh, the route of the Gauss
    nodes of quad.gauss_rules too.  ``alpha`` may be a 1-D array: one row
    of zeros per entry, from one eigvalsh call over the stacked matrices,
    each row equal to its one-alpha call bit for bit."""
    if n == 0:
        return np.empty(np.shape(alpha) + (0,))
    return np.linalg.eigvalsh(jacobi_matrix(*recurrence(fam, alpha, n)))

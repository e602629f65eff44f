"""Askey-Wilson polynomials, weights, closed-form norms, and numerical
verification of the coupled tensor biorthogonality systems.

Values at points come from the closed-form monic three-term recurrence of
Koekoek, Lesky and Swarttouw (2010) 14.1.5, evaluated by
radial.monic_values like every other numeric row of the package; the
terminating 4phi3 serves only as the test oracle.  All integrals are done
in theta over (0, pi) with Gauss-Legendre nodes so the 1/sqrt(1-x^2)
endpoint singularity cancels analytically against the Jacobian
sin(theta).  The node count is sized to the integrand by
_theta_node_count: a term from the Bernstein ellipse through the nearest
pole of a denominator h-factor, raised by the poles beside it, one for the
q of the weight numerator and one for the degree cap.  The constants were
fitted to the counts a Gram needs to agree with a 1024- to 6144-node rule
to its rounding floor, over |a| in [0.05, 0.999], q in [0.1, 0.99], caps 1
to 40 and one to four coincident poles.  Node values are arrays over that
theta rule: h_prod forms the product of the real factors
1 - 2 a q^k x + a^2 q^(2k) with the K of qcalc's certified tail rule, the
weight numerator is the one product |(e^(2 i theta); q)_inf|^2,
_node_rows forms all recurrence rows at once, and each Gram, 1D or
tensor, is one weighted matrix product (L * w) @ R.T of node-value rows,
compared with the closed-form norms of all its degrees from one array
pass (_norms).  The finite products (abcd q^(n-1); q)_n of a Gram are
formed once (_lead_products), for both its norms and the leading
coefficients of its rows.  A product that leaves the float range as
q -> 1 fails the Gram with notes that name it (_range_note).

Three tensor pairings are verified: the u/v and p/q systems (k-coupled
parameter shifts c1 q^(alpha k + beta), d1 q^(gamma k + delta) on the
first block) and the self-paired system whose members carry only the
e^(i theta) half of an h-factor.  Diagonal oracles are products of two
1D Askey-Wilson norms with the shifted parameters; two of the published
closed forms differ from that product (a stray q^k in the u/v norm and a
duplicated factor in the self-paired norm) and are exposed separately as
known discrepancies.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import radial
from .qcalc import qpochhammer, qproduct_terms
from .quad import summarize


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson parameter block; all of a, b, c, d in (-1, 1) and q in
    (0, 1), checked on construction."""

    a: float
    b: float
    c: float
    d: float
    q: float

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("a", "b", "c", "d"):
            if not abs(getattr(self, name)) < 1.0:
                raise ValueError(f"parameter {name} must satisfy |{name}| < 1")
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")

    def with_params(self, **kw):
        d = dict(a=self.a, b=self.b, c=self.c, d=self.d, q=self.q)
        d.update(kw)
        return AWParams(**d)


@dataclass(frozen=True)
class TensorParams:
    """Two parameter blocks plus the exponents coupling the k-index into
    the first block: c1 -> c1 q^(alpha k + beta), d1 -> d1 q^(gamma k + delta)."""

    block1: AWParams
    block2: AWParams
    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"coupling exponent {name} must be nonnegative")

    def shifted_c1(self, k):
        v = self.block1.c * self.block1.q ** (self.alpha * k + self.beta)
        if abs(v) >= 1.0:
            raise ValueError("shifted parameter c1 q^(alpha k + beta) leaves (-1, 1)")
        return v

    def shifted_d1(self, k):
        v = self.block1.d * self.block1.q ** (self.gamma * k + self.delta)
        if abs(v) >= 1.0:
            raise ValueError("shifted parameter d1 q^(gamma k + delta) leaves (-1, 1)")
        return v


def _check_nodes(x):
    """x as a float array of at least one dimension, checked to lie in [-1, 1]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    return xs


# entries of one array step of a q-product: its factors are taken this many
# entries at a time, which bounds the memory when q is near 1 and the
# product runs to thousands of factors
_QPRODUCT_CHUNK = 1 << 16


def _node_product(factors, count, nnodes):
    """Product over k < count of the factor rows ``factors(k)``, each a
    (len(k), nnodes) array for a float column k of indices, in order and
    _QPRODUCT_CHUNK entries at a time."""
    step = max(1, _QPRODUCT_CHUNK // nnodes)
    out = np.ones(nnodes)
    for lo in range(0, count, step):
        k = np.arange(lo, min(lo + step, count), dtype=float)
        out = out * np.prod(factors(k[:, None]), axis=0)
    return out


def _pair_factors(xs, aq):
    """(1 - aq e^(i theta)) (1 - aq e^(-i theta)) = 1 - 2 aq x + aq^2 for a
    column aq, as a (len(aq), len(xs)) array, written
    (1 - |aq|)^2 + 2 |aq| (1 - sgn(aq) x): both terms are nonnegative, so no
    factor loses accuracy to cancellation near x = +-1, and at aq = +-1 the
    factor is 2 (1 -+ x) to the ulp."""
    s = np.abs(aq)
    return (1.0 - s) ** 2 + 2.0 * s * (1.0 - np.sign(aq) * xs)


def aw_eval(p, n, x):
    """Askey-Wilson polynomial p_n(x; a, b, c, d | q) as the terminating
    4phi3 value, at a scalar x or an array of x in [-1, 1]: row n of
    _node_rows divided by aw_prefactor(p, n).  At a = 0 the 4phi3 of degree
    n >= 1 is identically 0 and the division is undefined, so it raises
    ValueError."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    products = _lead_products(p.a, p.b, p.c, p.d, p.q, np.arange(n + 1))
    vals = _node_rows(p, _check_nodes(x), products)[n] / aw_prefactor(p, n)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def aw_prefactor(p, n):
    """Leading normalization a^(-n) (ab; q)_n (ac; q)_n (ad; q)_n that
    turns the bare 4phi3 into the symmetrically-normalized polynomial the
    closed-form norms refer to."""
    if n == 0:
        return 1.0
    if p.a == 0.0:
        raise ValueError("normalization prefactor needs a != 0")
    return (
        p.a ** (-n)
        * qpochhammer(p.a * p.b, p.q, n)
        * qpochhammer(p.a * p.c, p.q, n)
        * qpochhammer(p.a * p.d, p.q, n)
    )


def h_prod(x, a, q):
    """h(x, a) = (a e^(i theta); q)_inf (a e^(-i theta); q)_inf, x = cos theta,
    as the real product over k < K of 1 - 2 a q^k x + a^2 q^(2k), with the
    K of qpochhammer's certified tail rule (the same at every node since
    |a e^(i theta)| = |a|).  A scalar x gives a float, an array an array."""
    xs = _check_nodes(x)
    vals = _node_product(lambda k: _pair_factors(xs, a * q ** k), qproduct_terms(a, q), xs.size)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _half_h(a, eits, q):
    """(a e^(i theta); q)_inf at each of the unit-circle points ``eits``,
    truncated at the same K as h_prod."""
    return _node_product(lambda k: 1.0 - a * q ** k * eits, qproduct_terms(a, q), eits.size)


def _weight_numerator(xs, q):
    """Shared numerator h(x,1) h(x,-1) h(x,sqrt(q)) h(x,-sqrt(q)) at the
    nodes ``xs``.  Since (a;q)(-a;q)(a sqrt(q);q)(-a sqrt(q);q) = (a^2;q), it
    is |(e^(2 i theta); q)_inf|^2 (Koekoek, Lesky and Swarttouw 2010,
    14.1.2), formed as one product over k < qproduct_terms(1, q) of
    |1 - q^k e^(2 i theta)|^2 = (1 - q^k)^2 + 4 q^k (1 - x)(1 + x): both
    terms are nonnegative, so nothing cancels near theta = 0 or pi, and
    1 - q^k = -expm1(k ln q) keeps its ulp as q^k nears 1."""
    sin2 = (1.0 - xs) * (1.0 + xs)
    lnq = math.log(q)
    return _node_product(lambda k: np.expm1(k * lnq) ** 2 + (4.0 * q ** k) * sin2,
                         qproduct_terms(1.0, q), xs.size)


def _theta_weight(p, x):
    """Askey-Wilson weight w(x; a, b, c, d | q) times sin(theta), i.e.
    with its 1/sqrt(1-x^2) factor removed analytically."""
    return _weight_numerator(x, p.q) / (
        h_prod(x, p.a, p.q) * h_prod(x, p.b, p.q) * h_prod(x, p.c, p.q) * h_prod(x, p.d, p.q)
    )


def aw_norm(p, n):
    """Closed-form squared norm of p_n against the weight:
    2 pi (abcd q^(2n); q)_inf (abcd q^(n-1); q)_n over the product of
    (q^(n+1); q)_inf and the six pair products at q^n.  The scalar of
    _norms, which the Grams read for all their degrees at once."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    n = np.array([n])
    products = _lead_products(p.a, p.b, p.c, p.d, p.q, n)
    return float(_norms(p.a, p.b, p.c, p.d, p.q, n, products)[0])


def _qpochhammer(starts, q, n=None):
    """(s; q)_n for every entry s of the array ``starts`` and the matching
    entry of the integer array ``n``, or (s; q)_inf when ``n`` is None,
    truncated at the K of qproduct_terms for the largest |s|.  Each entry is
    its scalar qpochhammer bit for bit: the powers s q^k are one running
    product (cumprod), the factors multiply in order, a factor past an
    entry's own length is exactly 1.0, and so is every factor past its own
    K, since |s q^k| < 1e-17 rounds 1 - s q^k to 1."""
    if n is None:
        count = qproduct_terms(np.max(np.abs(starts), initial=0.0), q)
    else:
        count = int(np.max(n, initial=0))
    step = max(1, _QPRODUCT_CHUNK // max(starts.size, 1))
    out, aq = np.ones_like(starts), starts
    for lo in range(0, count, step):
        m = min(step, count - lo)
        rows = np.empty((m + 1,) + starts.shape)
        rows[0] = aq
        rows[1:] = q
        rows = np.cumprod(rows, axis=0)
        aq = rows[m]
        factors = 1.0 - rows[:m]
        if n is not None:
            k = np.arange(lo, lo + m).reshape((m,) + (1,) * starts.ndim)
            factors = np.where(k < n, factors, 1.0)
        out = np.prod(np.concatenate((out[None], factors)), axis=0)
    return out


def _q_tails(q, n):
    """(q^(n+1); q)_inf for every entry of the integer array ``n``: the
    suffix products of one cumprod over the factors 1 - q^j, j = 1..J, each
    taken as -expm1(j ln q), which keeps its ulp where q^j is near 1 (a
    running power q^j would lose about j ulps there as q -> 1).
    J = max(n) + qproduct_terms(q, q) + 1, and from j = qproduct_terms(q, q)
    + 1 on every factor is exactly 1.0, so an entry does not depend on the
    other entries of ``n``."""
    top = int(n.max(initial=0)) + qproduct_terms(q, q) + 1
    factors = -np.expm1(np.arange(top, 0, -1) * math.log(q))  # j = top..1
    return np.cumprod(factors)[::-1][n]


def _powers(q, top):
    """q^m for m = -1..top - 1 as Python powers, the same at every size."""
    return np.array([q ** m for m in range(-1, top)])


def _lead_products(a, b, c, d, q, n):
    """(abcd q^(n-1); q)_n for every degree in the integer array ``n``, the
    parameters a..d floats or arrays broadcast against it, in one
    _qpochhammer pass: the finite product of the norms (_norms) and, times
    2^n, the leading coefficients of the rows (_node_rows), so that a Gram
    forms it once for both."""
    return _qpochhammer(a * b * c * d * _powers(q, int(np.max(n, initial=0)))[n], q, n)


def _norms(a, b, c, d, q, n, products):
    """aw_norm of every degree in the integer array ``n``, the parameters
    a..d floats or arrays broadcast against it, given their
    _lead_products: (q^(n+1); q)_inf from _q_tails, and the other seven
    infinite q-products in one _qpochhammer pass over their stacked
    starting values."""
    qpow = _powers(q, 2 * int(n.max(initial=0)) + 2)
    qn = qpow[n + 1]
    abcd = a * b * c * d
    starts = np.stack((abcd * qpow[2 * n + 1],
                       a * b * qn, a * c * qn, a * d * qn, b * c * qn, b * d * qn, c * d * qn))
    inf = _qpochhammer(starts, q)
    num = 2.0 * math.pi * inf[0] * products
    den = _q_tails(q, n) * inf[1] * inf[2] * inf[3] * inf[4] * inf[5] * inf[6]
    return num / den


# Newton sweeps of _theta_rule: a sweep with every step at most
# _NEWTON_STEP_TOL marks the nodes converged, and one more sweep gives the
# derivatives of the weights at them
_NEWTON_STEP_TOL = 1e-14
_NEWTON_MAX_SWEEPS = 10


@lru_cache(maxsize=8)
def _theta_rule(nnodes):
    """Gauss-Legendre nodes/weights mapped to theta in (0, pi); memoized,
    so both arrays are shared and read-only.

    The nodes t in [0, 1) start from Tricomi's asymptotic guesses
    cos(pi (k - 1/4) / (n + 1/2)) (1 - (n - 1) / (8 n^3)) and take Newton
    sweeps on the Legendre recurrence in float64, all nodes of the half at
    once; the other half is their mirror image.  The weights are
    2 / ((1 - t^2) P_n'(t)^2), with P_n' from the last sweep, one past
    convergence.  This is the route of scipy's roots_legendre, with no
    dense eigenproblem.
    """
    n = nnodes
    k = np.arange(1, (n + 1) // 2 + 1)
    t = np.cos(math.pi * (k - 0.25) / (n + 0.5)) * (1.0 - (n - 1) / (8.0 * n ** 3))
    # P_{j+1} = a_j t P_j + b_j P_{j-1}
    steps = [((2 * j + 1) / (j + 1), -j / (j + 1)) for j in range(1, n)]
    prev, cur, tmp = np.empty_like(t), np.empty_like(t), np.empty_like(t)
    converged = False
    for _ in range(_NEWTON_MAX_SWEEPS):
        prev.fill(1.0)
        cur[:] = t
        for a, b in steps:
            # in place: a sweep costs about its count of numpy calls
            prev *= b
            np.multiply(t, cur, out=tmp)
            tmp *= a
            prev += tmp
            prev, cur = cur, prev
        deriv = n * (t * cur - prev) / (t * t - 1.0)
        step = cur / deriv
        t = t - step
        if converged:
            break
        converged = np.max(np.abs(step)) <= _NEWTON_STEP_TOL
    else:
        raise RuntimeError(f"Gauss-Legendre nodes did not converge in {_NEWTON_MAX_SWEEPS} sweeps")
    w = 2.0 / ((1.0 - t * t) * deriv * deriv)
    half = n // 2
    thetas = 0.5 * math.pi * (np.concatenate((-t[:half], t[::-1])) + 1.0)
    wts = 0.5 * math.pi * np.concatenate((w[:half], w[::-1]))
    thetas.setflags(write=False)
    wts.setflags(write=False)
    return thetas, wts


# Node count of the sized theta rule: _THETA_BASE + _THETA_PER_DEGREE * cap
# + max(pole term, _THETA_Q / sqrt(ln(1/q))), the pole term
# _THETA_POLE (1 + _THETA_ORDER (order - 1)) / ln(rho); rounded up the
# ladder of _theta_ladder and clamped at _MAX_THETA_NODES
_THETA_BASE = 8
_THETA_PER_DEGREE = 2.0
_THETA_POLE = 16.0
_THETA_ORDER = 0.15
_THETA_Q = 18.0
_MAX_THETA_NODES = 2048


def _theta_ladder(n):
    """n rounded up to a multiple of 8, and from 64 on to an eighth of its
    octave, so that the memoized rules are few and shared."""
    step = 1 << max((math.ceil(n) - 1).bit_length() - 4, 3)
    return step * math.ceil(n / step)


def _theta_node_count(denominators, q, cap):
    """Gauss-Legendre node count that resolves a theta integrand with one
    h-factor in its denominator for each parameter of ``denominators``, the
    weight numerator of q and polynomial rows up to degree cap.

    h(x, a) vanishes at theta = +-i ln(1/|a|) for a > 0 and at
    pi +- i ln(1/|a|) for a < 0, next to an endpoint: in t = 2 theta / pi - 1
    the nearest pole of a side sits at t0 = -+1 + 2 i ln(1/|a|) / pi, whose
    Bernstein ellipse E_rho bounds the convergence of the rule to
    rho^(-2n).  Poles of the same side nearly as close act as one pole of
    higher order, which needs more nodes: each counts ln(1/|a_0|) / ln(1/|a|)
    towards the order.  The numerator |(e^(2 i theta); q)_inf|^2 is entire,
    but a theta function whose bandwidth grows like 1 / sqrt(ln(1/q)); the
    product of two rows of degree cap is a trigonometric polynomial of
    degree 2 cap.
    """
    n_pole = 0.0
    for side in (1.0, -1.0):
        dists = sorted(-math.log(abs(a)) for a in denominators if side * a > 0.0)
        if dists:
            order = sum(dists[0] / dist for dist in dists)
            eta = 2.0 * dists[0] / math.pi
            # E_rho through t0: semi-axis sum (|t0 + 1| + |t0 - 1|) / 2 = cosh(ln rho)
            ln_rho = math.acosh(0.5 * (eta + math.hypot(2.0, eta)))
            n_pole = max(n_pole, _THETA_POLE * (1.0 + _THETA_ORDER * (order - 1.0)) / ln_rho)
    n_q = _THETA_Q / math.sqrt(-math.log(q))
    n = _THETA_BASE + _THETA_PER_DEGREE * cap + max(n_pole, n_q)
    return min(_theta_ladder(n), _MAX_THETA_NODES)


def _recurrence(p, npts):
    """Monic recurrence x r_n = r_{n+1} + A_n r_n + B_n r_{n-1}, n < npts,
    of r_n = p_n / (2^n (abcd q^(n-1); q)_n), in np.longdouble.  From the
    4phi3 recurrence of Koekoek, Lesky and Swarttouw (2010) 14.1.5 with
    coefficients up_n, down_n: A_n = (a + 1/a - up_n - down_n) / 2 and
    B_n = up_{n-1} down_n / 4.  At n = 0 the factor 1 - abcd/q of up_0
    cancels and down_0 = 0, so abcd = q or q^2 needs no special case."""
    if p.a == 0.0 and npts > 1:
        raise ValueError("Askey-Wilson rows of degree >= 1 need a != 0")
    a, b, c, d, q = (np.longdouble(v) for v in (p.a, p.b, p.c, p.d, p.q))
    qn = q ** np.arange(npts, dtype=np.longdouble)
    qm, abcd = qn / q, a * b * c * d
    s = abcd * qn * qm  # abcd q^(2n-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        up = ((1 - a * b * qn) * (1 - a * c * qn) * (1 - a * d * qn) * (1 - abcd * qm)
              / (a * (1 - s) * (1 - s * q)))
        down = (a * (1 - qn) * (1 - b * c * qm) * (1 - b * d * qm) * (1 - c * d * qm)
                / ((1 - s / q) * (1 - s)))
        up[0] = (1 - a * b) * (1 - a * c) * (1 - a * d) / (a * (1 - abcd))
        down[0] = 0
        A = (a + 1 / a - up - down) / 2
    return A, np.concatenate(([0], up[:-1] * down[1:])) / 4


def _node_rows(p, xs, products):
    """Rows p_0(xs)..p_N(xs), N = len(products) - 1, of the symmetric
    polynomials p_n = aw_prefactor(p, n) 4phi3, which the closed-form norms
    refer to: the recurrence rows times their leading coefficients
    2^n (abcd q^(n-1); q)_n, with ``products`` the _lead_products of p at
    degrees 0..N."""
    n = np.arange(len(products))
    A, B = _recurrence(p, len(n))
    return ((2.0 ** n * products)[:, None] * radial.monic_values(A, B, xs)).astype(float)


def aw_gram_1d(p, degree_cap, theta_nodes=None, diag_rel_tol=1e-6, offdiag_tol=1e-7):
    """Gram matrix of p_0..p_degree_cap against the Askey-Wilson weight,
    integrated in theta so sin(theta) cancels the endpoint singularity:
    one weighted product (V * w) @ V.T of the node-value rows V.  The theta
    rule has ``theta_nodes`` nodes, by default the _theta_node_count of
    a, b, c, d, q and the cap; the result states the count."""
    if degree_cap < 0:
        raise ValueError(f"degree_cap must be nonnegative, got {degree_cap}")
    if theta_nodes is None:
        theta_nodes = _theta_node_count((p.a, p.b, p.c, p.d), p.q, degree_cap)
    thetas, wts = _theta_rule(theta_nodes)
    xs = np.cos(thetas)
    degrees = np.arange(degree_cap + 1)
    # an infinite q-product out of the float range propagates to a
    # non-finite error, which _range_note then names
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        products = _lead_products(p.a, p.b, p.c, p.d, p.q, degrees)
        vals = _node_rows(p, xs, products)
        gram = (vals * (wts * _theta_weight(p, xs))) @ vals.T
        ref = _norms(p.a, p.b, p.c, p.d, p.q, degrees, products)
    result = summarize([(degrees.tolist(), gram, ref)], offdiag_tol, diag_rel_tol,
                       theta_nodes=theta_nodes)
    if not math.isfinite(result.max_diag_relerr):
        result.notes = _range_note(p, xs, degrees)
    return result


def _range_note(p, xs, degrees):
    """The infinite q-products of the Gram of p that have left the float
    range, as a note, or "" when none has: as q -> 1 the weight numerator
    |(e^(2 i theta); q)_inf|^2 overflows at some nodes, an h-factor of the
    denominator can overflow or underflow, and (q^(n+1); q)_inf of the
    norms underflows to 0 (at q = 0.999: 1e-714)."""
    out = []
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(_weight_numerator(xs, p.q))):
            out.append("the weight numerator |(e^(2 i theta); q)_inf|^2 overflows")
        for name in "abcd":
            h = h_prod(xs, getattr(p, name), p.q)
            if not np.all((h > 0.0) & (h < np.inf)):
                out.append(f"h(x, {name}) leaves the float range")
        tails = _q_tails(p.q, degrees)
    if np.any(tails == 0.0):
        n = degrees[np.argmax(tails == 0.0)]
        out.append(f"(q^(n+1); q)_inf of the norms underflows to 0 from degree {n}")
    return f"at q = {p.q}: " + "; ".join(out) if out else ""


def _x_params(tp, mode, k):
    """First-block parameters of the degree-j factor at coupling index k."""
    p1 = tp.block1
    if mode in ("uv", "self"):
        return p1.with_params(d=tp.shifted_d1(k))
    if mode == "pq":
        return p1.with_params(c=tp.shifted_c1(k), d=tp.shifted_d1(k))
    raise ValueError(f"unknown tensor mode {mode!r}")


def tensor_diag_ref(tp, mode, j, k):
    """Derived diagonal oracle: product of the two 1D norms, the first
    taken at the k-shifted x-parameters."""
    return aw_norm(_x_params(tp, mode, k), j) * aw_norm(tp.block2, k)


def tensor_diag_printed(tp, mode, j, k):
    """Published closed forms for the tensor diagonals.

    The p/q form coincides with the product of 1D norms.  The u/v form
    carries a stray q^k in its a1 c1 and b1 c1 factors, and the
    self-paired form duplicates its b1 c1 factor while dropping the
    q^(m+1) companion's a1 c1-free structure; both therefore disagree
    with the derived product oracle and are reported as known
    discrepancies.
    """
    p1, q = tp.block1, tp.block1.q
    if mode == "pq":
        return tensor_diag_ref(tp, mode, j, k)
    if mode not in ("uv", "self"):
        raise ValueError(f"unknown tensor mode {mode!r}")
    a1, b1, c1, d1s = p1.a, p1.b, p1.c, tp.shifted_d1(k)
    abcd = a1 * b1 * c1 * d1s
    num = qpochhammer(abcd * q ** (2 * j), q) * qpochhammer(abcd * q ** (j - 1), q, j)
    # u/v: a stray +k in the a1 c1 and b1 c1 factors as printed; self: the
    # b1 c1 factor duplicated as printed (the second should not appear)
    kc, bc_power = (k, 1) if mode == "uv" else (0, 2)
    den = qpochhammer(q ** (j + 1), q) * qpochhammer(a1 * b1 * q ** j, q)
    den *= qpochhammer(a1 * c1 * q ** (j + kc), q)
    den *= qpochhammer(a1 * d1s * q ** j, q)
    den *= qpochhammer(b1 * c1 * q ** (j + kc), q) ** bc_power
    den *= qpochhammer(b1 * d1s * q ** j, q)
    den *= qpochhammer(c1 * d1s * q ** j, q)
    # aw_norm of the second block carries one factor 2 pi of the printed 4 pi^2
    return 2.0 * math.pi * num / den * aw_norm(tp.block2, k)


def tensor_biortho_check(
    tp,
    index_cap,
    mode="self",
    theta_nodes=None,
    diag_rel_tol=1e-5,
    offdiag_tol=1e-6,
):
    """Verify a tensor biorthogonality system at small degrees.

    Entries are <left_{j,k}, right_{m,n}> over the product weight; the
    double integral separates, so each entry is the product of a
    y-integral (plain 1D Gram of the second block) and an x-integral
    whose integrand depends on the pairing:

    - ``uv``: degree-j and degree-m polynomials at d1-shifts k and n,
      weight carrying h(x,a1) h(x,b1) h(x,c1), divided by the right
      member's h(x, d1 q^(gamma n + delta));
    - ``pq``: shifts on both c1 and d1, weight carrying only
      h(x,a1) h(x,b1), divided by the left h(x, c1-shift at k) and the
      right h(x, d1-shift at n);
    - ``self``: like uv but dividing by the two half h-factors
      (d1-shift at k times e^(i theta); q)_inf and its n-conjugate.

    Both integrals are weighted matrix products over the theta rule: the
    x-block is (L * w) @ R.T with one row of node values per index (j, k),
    each row divided by that member's h- or half h-factor, and entry
    ((j, k), (m, n)) is its real product with y-entry (k, n).

    Both share one theta rule of ``theta_nodes`` nodes, by default the
    larger _theta_node_count of the two integrands (the x-entries' h-factors
    in the denominator with q of block 1, block 2's with its own q) at the
    index cap; the result states the count.

    Diagonals are compared with the product-of-1D-norms oracle
    (tensor_diag_ref); the published u/v and self closed forms are
    available via tensor_diag_printed as known discrepancies.
    """
    if mode not in ("uv", "pq", "self"):
        raise ValueError(f"unknown tensor mode {mode!r}")
    if index_cap < 0:
        raise ValueError(f"index_cap must be nonnegative, got {index_cap}")
    p1, p2 = tp.block1, tp.block2
    q = p1.q
    cap = index_cap + 1
    d1s = [tp.shifted_d1(k) for k in range(cap)]
    c1s = [tp.shifted_c1(k) for k in range(cap)] if mode == "pq" else [p1.c]
    if theta_nodes is None:
        # the denominator h-factors of an x-entry: a1, b1, c1 (in pq the
        # shifted c1 of the left member) and the shifted d1 of the right
        # one, each shift at its largest modulus; of a y-entry: block 2
        x_dens = (p1.a, p1.b, max(c1s, key=abs), max(d1s, key=abs))
        theta_nodes = max(_theta_node_count(x_dens, q, index_cap),
                          _theta_node_count((p2.a, p2.b, p2.c, p2.d), p2.q, index_cap))
    thetas, wts = _theta_rule(theta_nodes)
    xs = np.cos(thetas)
    # an infinite q-product out of the float range propagates to a
    # non-finite error, which _range_note then names for each block
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y_degrees = np.arange(cap)
        y_products = _lead_products(p2.a, p2.b, p2.c, p2.d, p2.q, y_degrees)
        yvals = _node_rows(p2, xs, y_products)
        y_int = (yvals * (wts * _theta_weight(p2, xs))) @ yvals.T

        wx = wts * _weight_numerator(xs, q) / (h_prod(xs, p1.a, q) * h_prod(xs, p1.b, q))
        if mode != "pq":
            wx = wx / h_prod(xs, p1.c, q)

        # rows ordered like ``indices``: row j * cap + k is the degree-j
        # polynomial at coupling index k
        indices = [(j, k) for j in range(cap) for k in range(cap)]
        js, ks = np.divmod(np.arange(cap * cap), cap)
        # the first-block parameters of every index: c1 shifted by k in pq
        c1_at = np.array(c1s)[ks] if mode == "pq" else p1.c
        d1_at = np.array(d1s)[ks]
        x_products = _lead_products(p1.a, p1.b, c1_at, d1_at, q, js)
        xvals = np.array([_node_rows(_x_params(tp, mode, k), xs, x_products[k::cap])
                          for k in range(cap)])
        left = xvals.transpose(1, 0, 2).reshape(cap * cap, -1)
        right = left
        if mode == "self":
            eits = np.exp(1j * thetas)
            half_h = np.array([_half_h(d1, eits, q) for d1 in d1s])
            left = left / half_h[ks]
            right = right / np.conj(half_h[ks])
        else:
            right = right / np.array([h_prod(xs, d1, q) for d1 in d1s])[ks]
            if mode == "pq":
                left = left / np.array([h_prod(xs, c1, q) for c1 in c1s])[ks]
        vals = np.real(((left * wx) @ right.T) * y_int[np.ix_(ks, ks)])
        # tensor_diag_ref of every index: the first-block norms at the
        # shifted parameters of their k, times the second-block norm of
        # degree k
        ref = (_norms(p1.a, p1.b, c1_at, d1_at, q, js, x_products)
               * _norms(p2.a, p2.b, p2.c, p2.d, p2.q, y_degrees, y_products)[ks])
    result = summarize([(indices, vals, ref)], offdiag_tol, diag_rel_tol, notes=mode,
                       theta_nodes=theta_nodes)
    if not math.isfinite(result.max_diag_relerr):
        notes = [_range_note(p, xs, np.arange(cap)) for p in (p1, p2)]
        result.notes = "; ".join([mode] + [note for note in notes if note])
    return result

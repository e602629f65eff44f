"""Askey-Wilson polynomials, weights, closed-form norms, and numerical
verification of the coupled tensor biorthogonality systems.

The polynomials are terminating 4phi3 sums evaluated at x = cos(theta);
all integrals are done in theta over (0, pi) with Gauss-Legendre nodes so
the 1/sqrt(1-x^2) endpoint singularity cancels analytically against the
Jacobian sin(theta).

Three tensor pairings are verified: the u/v and p/q systems (k-coupled
parameter shifts c1 q^(alpha k + beta), d1 q^(gamma k + delta) on the
first block) and the self-paired system whose members carry only the
e^(i theta) half of an h-factor.  Diagonal oracles are products of two
1D Askey-Wilson norms with the shifted parameters; two of the published
closed forms differ from that product (a stray q^k in the u/v norm and a
duplicated factor in the self-paired norm) and are exposed separately as
known discrepancies.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcalc import qpochhammer
from .quad import summarize


@dataclass(frozen=True)
class AWParams:
    """Askey-Wilson parameter block; all of a, b, c, d in (-1, 1)."""

    a: float
    b: float
    c: float
    d: float
    q: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if abs(getattr(self, name)) >= 1.0:
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
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0 or self.delta < 0:
            raise ValueError("coupling exponents must be nonnegative")

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


def aw_eval(p, n, x, reverse=False):
    """Askey-Wilson polynomial p_n(x; a, b, c, d | q) as the terminating
    4phi3 sum with argument q.

    ``reverse=True`` accumulates the terms from k = n downward; forward
    and backward summation agreeing is a cheap consistency check on the
    term recursion.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if abs(x) > 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    eit = cmath.exp(1j * math.acos(x))
    terms = [1.0 + 0.0j]
    for k in range(n):
        ratio = (
            (1.0 - q ** (k - n))
            * (1.0 - a * b * c * d * q ** (n - 1 + k))
            * (1.0 - a * eit * q ** k)
            * (1.0 - a * eit.conjugate() * q ** k)
            * q
            / (
                (1.0 - a * b * q ** k)
                * (1.0 - a * c * q ** k)
                * (1.0 - a * d * q ** k)
                * (1.0 - q ** (k + 1))
            )
        )
        terms.append(terms[-1] * ratio)
    if reverse:
        terms.reverse()
    return float(sum(terms).real)


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
    """h(x, a) = (a e^(i theta); q)_inf (a e^(-i theta); q)_inf, x = cos theta."""
    if abs(x) > 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    eit = cmath.exp(1j * math.acos(x))
    return (qpochhammer(a * eit, q) * qpochhammer(a * eit.conjugate(), q)).real


def _weight_numerator(x, q):
    """Shared numerator h(x,1) h(x,sqrt(q)) h(x,-1) h(x,-sqrt(q))."""
    rq = math.sqrt(q)
    return h_prod(x, 1.0, q) * h_prod(x, rq, q) * h_prod(x, -1.0, q) * h_prod(x, -rq, q)


def _theta_weight(p, x):
    """Askey-Wilson weight w(x; a, b, c, d | q) times sin(theta), i.e.
    with its 1/sqrt(1-x^2) factor removed analytically."""
    return _weight_numerator(x, p.q) / (
        h_prod(x, p.a, p.q) * h_prod(x, p.b, p.q) * h_prod(x, p.c, p.q) * h_prod(x, p.d, p.q)
    )


def aw_norm(p, n):
    """Closed-form squared norm of p_n against the weight:
    2 pi (abcd q^(2n); q)_inf (abcd q^(n-1); q)_n over the product of
    (q^(n+1); q)_inf and the six pair products at q^n."""
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    abcd = a * b * c * d
    num = 2.0 * math.pi * qpochhammer(abcd * q ** (2 * n), q)
    num *= qpochhammer(abcd * q ** (n - 1), q, n)
    den = qpochhammer(q ** (n + 1), q)
    for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
        den *= qpochhammer(pair * q ** n, q)
    return num / den


@lru_cache(maxsize=8)
def _theta_rule(nnodes):
    """Gauss-Legendre nodes/weights mapped to theta in (0, pi); memoized,
    so both arrays are shared and read-only."""
    t, w = np.polynomial.legendre.leggauss(nnodes)
    thetas, wts = 0.5 * math.pi * (t + 1.0), 0.5 * math.pi * w
    thetas.setflags(write=False)
    wts.setflags(write=False)
    return thetas, wts


def aw_gram_1d(p, degree_cap, theta_nodes=256, diag_rel_tol=1e-6, offdiag_tol=1e-7):
    """Gram matrix of p_0..p_degree_cap against the Askey-Wilson weight,
    integrated in theta so sin(theta) cancels the endpoint singularity."""
    thetas, wts = _theta_rule(theta_nodes)
    xs = np.cos(thetas)
    wvals = np.array([_theta_weight(p, x) for x in xs])
    vals = np.array(
        [
            [aw_prefactor(p, n) * aw_eval(p, n, x) for x in xs]
            for n in range(degree_cap + 1)
        ]
    )
    entries = {}
    for m in range(degree_cap + 1):
        for n in range(degree_cap + 1):
            entries[(m, n)] = float(np.sum(wts * wvals * vals[m] * vals[n]))
    diag_ref = {m: aw_norm(p, m) for m in range(degree_cap + 1)}
    indices = list(range(degree_cap + 1))
    return summarize(indices, entries, diag_ref, offdiag_tol, diag_rel_tol)


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
    p1, p2, q = tp.block1, tp.block2, tp.block1.q
    y_norm = aw_norm(p2, k)  # carries one factor 2 pi of the printed 4 pi^2
    a1, b1, c1 = p1.a, p1.b, p1.c
    if mode == "pq":
        return tensor_diag_ref(tp, mode, j, k)
    if mode == "uv":
        d1s = tp.shifted_d1(k)
        abcd = a1 * b1 * c1 * d1s
        num = qpochhammer(abcd * q ** (2 * j), q) * qpochhammer(
            abcd * q ** (j - 1), q, j
        )
        den = qpochhammer(q ** (j + 1), q) * qpochhammer(a1 * b1 * q ** j, q)
        den *= qpochhammer(a1 * c1 * q ** (j + k), q)  # stray +k as printed
        den *= qpochhammer(a1 * d1s * q ** j, q)
        den *= qpochhammer(b1 * c1 * q ** (j + k), q)  # stray +k as printed
        den *= qpochhammer(b1 * d1s * q ** j, q)
        den *= qpochhammer(c1 * d1s * q ** j, q)
        return 2.0 * math.pi * num / den * y_norm
    if mode == "self":
        d1s = tp.shifted_d1(k)
        abcd = a1 * b1 * c1 * d1s
        num = qpochhammer(abcd * q ** (2 * j), q) * qpochhammer(
            abcd * q ** (j - 1), q, j
        )
        den = qpochhammer(q ** (j + 1), q) * qpochhammer(a1 * b1 * q ** j, q)
        den *= qpochhammer(a1 * c1 * q ** j, q)
        # duplicated b1 c1 factor as printed (the second should not appear)
        den *= qpochhammer(b1 * c1 * q ** j, q) ** 2
        den *= qpochhammer(a1 * d1s * q ** j, q)
        den *= qpochhammer(b1 * d1s * q ** j, q)
        den *= qpochhammer(c1 * d1s * q ** j, q)
        return 2.0 * math.pi * num / den * y_norm
    raise ValueError(f"unknown tensor mode {mode!r}")


def tensor_biortho_check(
    tp,
    index_cap,
    mode="self",
    theta_nodes=256,
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

    Diagonals are compared with the product-of-1D-norms oracle
    (tensor_diag_ref); the published u/v and self closed forms are
    available via tensor_diag_printed as known discrepancies.
    """
    p1, p2 = tp.block1, tp.block2
    q = p1.q
    thetas, wts = _theta_rule(theta_nodes)
    xs = np.cos(thetas)
    eits = np.exp(1j * thetas)

    base_x = np.array(
        [
            _weight_numerator(x, q) / (h_prod(x, p1.a, q) * h_prod(x, p1.b, q))
            for x in xs
        ]
    )
    if mode in ("uv", "self"):
        base_x = base_x / np.array([h_prod(x, p1.c, q) for x in xs])

    wy = np.array([_theta_weight(p2, x) for x in xs])
    yvals = np.array(
        [
            [aw_prefactor(p2, k) * aw_eval(p2, k, x) for x in xs]
            for k in range(index_cap + 1)
        ]
    )
    y_int = {
        (k, n): float(np.sum(wts * wy * yvals[k] * yvals[n]))
        for k in range(index_cap + 1)
        for n in range(index_cap + 1)
    }

    xvals = {}  # (j, k) -> values of the degree-j polynomial at shift k
    for k in range(index_cap + 1):
        pk = _x_params(tp, mode, k)
        for j in range(index_cap + 1):
            xvals[(j, k)] = aw_prefactor(pk, j) * np.array(
                [aw_eval(pk, j, x) for x in xs]
            )

    half_h = {}
    if mode == "self":
        for k in range(index_cap + 1):
            d1s = tp.shifted_d1(k)
            half_h[k] = np.array([qpochhammer(d1s * e, q) for e in eits])
    hc = {}
    hd = {}
    for k in range(index_cap + 1):
        if mode == "pq":
            c1s = tp.shifted_c1(k)
            hc[k] = np.array([h_prod(x, c1s, q) for x in xs])
        if mode in ("uv", "pq"):
            d1s = tp.shifted_d1(k)
            hd[k] = np.array([h_prod(x, d1s, q) for x in xs])

    indices = [
        (j, k) for j in range(index_cap + 1) for k in range(index_cap + 1)
    ]
    entries = {}
    for (j, k) in indices:
        for (m, n) in indices:
            integ = base_x * xvals[(j, k)] * xvals[(m, n)]
            if mode == "uv":
                integ = integ / hd[n]
            elif mode == "pq":
                integ = integ / (hc[k] * hd[n])
            else:
                integ = integ / (half_h[k] * np.conj(half_h[n]))
            x_int = np.sum(wts * integ)
            val = x_int * y_int[(k, n)]
            entries[((j, k), (m, n))] = float(np.real(val))
    diag_ref = {idx: tensor_diag_ref(tp, mode, *idx) for idx in indices}
    return summarize(indices, entries, diag_ref, offdiag_tol, diag_rel_tol, notes=mode)

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

Besides coefficient tables the module provides the closed-form monic
three-term recurrence of each family (phi_rows, the route for numerics at
nodes, lattice points and sample points; the tables serve the exact
identity algebra), the alpha-raising connection machinery, norms, and
zeros via the symmetrized Jacobi matrix.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .qcalc import pochhammer, qpochhammer

# Entries kept by the table caches (radial_coeffs here, bivariate.construct);
# enough for one family's whole m, n <= 15 working set, including the
# raised and lowered neighbour tables the identity catalog reaches for.
TABLE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class RadialFamily:
    kind: str
    beta: float = 0.0
    gamma: float = 0.0
    q: float = 0.5
    c: float = 1.0

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


def leading_coeff(fam, n, alpha):
    """c_0(n, alpha), the coefficient of x^n in phi_n(x; alpha), without
    building the table: the j = 0 term of radial_coeffs in the same
    floating-point operations, so it equals radial_coeffs(fam, n,
    alpha)[0] bit for bit."""
    if fam.kind == "laguerre":
        return (-1.0) ** n / math.factorial(n)
    if fam.kind == "jacobi":
        t = alpha + fam.beta + fam.gamma
        return (-1.0) ** n * pochhammer(t + n + 1, n) / math.factorial(n)
    # the q forms keep the table's uncancelled factors, so they round alike
    q = fam.q
    a = alpha + fam.beta
    qn = qpochhammer(q, q, n)
    qa = qpochhammer(q ** (a + 1), q, n)
    if fam.kind == "qlaguerre":
        return qa * q ** ((a + n) * n) * (-1.0) ** n / (qn * qa)
    if fam.kind == "wall":
        return qn * q ** (-n * (n - 1) / 2.0) * (-1.0) ** n / (qn * qa)
    if fam.kind == "qjacobi":
        return (qn * qpochhammer(q ** (a + fam.gamma + n + 1), q, n)
                * q ** (-n * (n - 1) / 2.0) * (-1.0) ** n / (qn * qa))
    raise ValueError(f"unknown radial family kind {fam.kind!r}")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def radial_coeffs(fam, n, alpha):
    """Exact coefficients c_j(n, alpha), j = 0..n, of x^(n-j) in phi_n.

    Classical families are built by term ratios from c_0 so the Pochhammer
    cancellations happen symbolically; q-families are evaluated directly
    from finite q-Pochhammer products.

    Tables are memoized on (fam, n, alpha) and shared between callers, so
    the returned array is read-only; copy it before changing it.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    c = np.zeros(n + 1)
    if fam.kind == "laguerre":
        a = alpha + fam.beta
        c[0] = (-1.0) ** n / math.factorial(n)
        for j in range(n):
            c[j + 1] = c[j] * (-(n - j) * (a + n - j) / (j + 1.0))
    elif fam.kind == "jacobi":
        g = alpha + fam.gamma
        t = alpha + fam.beta + fam.gamma
        c[0] = (-1.0) ** n * pochhammer(t + n + 1, n) / math.factorial(n)
        for j in range(n):
            c[j + 1] = c[j] * (-(n - j) * (g + n - j) / ((j + 1.0) * (t + 2 * n - j)))
    elif fam.kind == "qlaguerre":
        q = fam.q
        a = alpha + fam.beta
        qa = qpochhammer(q ** (a + 1), q, n)
        for j in range(n + 1):
            c[j] = (
                qa
                * q ** ((a + n - j) * (n - j))
                * (-1.0) ** (n - j)
                / (
                    qpochhammer(q, q, j)
                    * qpochhammer(q, q, n - j)
                    * qpochhammer(q ** (a + 1), q, n - j)
                )
            )
    elif fam.kind == "wall":
        q = fam.q
        a = alpha + fam.beta
        qn = qpochhammer(q, q, n)
        for j in range(n + 1):
            c[j] = (
                qn
                * q ** ((j - n) * (n + j - 1) / 2.0)
                * (-1.0) ** (n - j)
                / (
                    qpochhammer(q, q, j)
                    * qpochhammer(q, q, n - j)
                    * qpochhammer(q ** (a + 1), q, n - j)
                )
            )
    elif fam.kind == "qjacobi":
        q = fam.q
        a = alpha + fam.beta
        g = fam.gamma
        qn = qpochhammer(q, q, n)
        for j in range(n + 1):
            c[j] = (
                qn
                * qpochhammer(q ** (a + g + n + 1), q, n - j)
                * q ** (j * (j - 1) / 2.0 - n * (n - 1) / 2.0)
                * (-1.0) ** (n - j)
                / (
                    qpochhammer(q, q, j)
                    * qpochhammer(q, q, n - j)
                    * qpochhammer(q ** (a + 1), q, n - j)
                )
            )
    else:
        raise ValueError(f"unknown radial family kind {fam.kind!r}")
    c.setflags(write=False)
    return c


def zeta(fam, n, alpha):
    """Squared norm of phi_n with respect to x^alpha dnu."""
    if fam.kind == "laguerre":
        a = alpha + fam.beta
        return math.gamma(a + n + 1) / math.factorial(n)
    if fam.kind == "jacobi":
        g = alpha + fam.gamma
        t = alpha + fam.beta + fam.gamma
        # Gamma(t + 1) (t + 1) = Gamma(t + 2) at n = 0 also covers t = -1
        scale = math.gamma(t + n + 1) * (t + 2 * n + 1) if n else math.gamma(t + 2)
        return (
            math.gamma(g + n + 1)
            * math.gamma(fam.beta + n + 1)
            / (math.factorial(n) * scale)
        )
    if fam.kind == "qlaguerre":
        q, c = fam.q, fam.c
        a = alpha + fam.beta
        head = (
            qpochhammer(q, q)
            * qpochhammer(-c * q ** (a + 1), q)
            * qpochhammer(-(q ** (-a)) / c, q)
            * c ** (a + 1)
            / (
                qpochhammer(q ** (a + 1), q)
                * qpochhammer(-c, q)
                * qpochhammer(-q / c, q)
            )
        )
        return head * qpochhammer(q ** (a + 1), q, n) / (qpochhammer(q, q, n) * q ** n)
    if fam.kind == "wall":
        q = fam.q
        a = alpha + fam.beta
        return (
            qpochhammer(q, q)
            * q ** ((a + 1) * n)
            * qpochhammer(q, q, n)
            / (qpochhammer(q ** (a + 1), q) * qpochhammer(q ** (a + 1), q, n))
        )
    if fam.kind == "qjacobi":
        q = fam.q
        a = alpha + fam.beta
        g = fam.gamma
        # (q^(s+n); q)_inf / (1 - q^(s+2n)) with s = a + g + 1, cancelled so
        # that s = 0 (a removable 0/0 at n = 0) needs no special case
        return (
            qpochhammer(q, q)
            * qpochhammer(q ** (a + g + n + 1), q, n)
            * qpochhammer(q ** (a + g + 2 * n + 2), q)
            * qpochhammer(q, q, n)
            * q ** (n * (a + 1))
            / (
                qpochhammer(q ** (a + 1), q)
                * qpochhammer(q ** (g + n + 1), q)
                * qpochhammer(q ** (a + 1), q, n)
            )
        )
    raise ValueError(f"unknown radial family kind {fam.kind!r}")


def measure_mass(fam, alpha):
    """Total mass of x^alpha dnu; phi_0 is the constant c_0(0, alpha)."""
    c00 = radial_coeffs(fam, 0, alpha)[0]
    return zeta(fam, 0, alpha) / c00 ** 2


def shift_a(fam, n, alpha):
    """Coefficient a_n(alpha) in phi_n(x; alpha) - a_n phi_n(x; alpha+1)
    = b_n phi_{n-1}(x; alpha+1)."""
    return float(radial_coeffs(fam, n, alpha)[0] / radial_coeffs(fam, n, alpha + 1)[0])


def shift_b(fam, n, alpha):
    """Coefficient b_n(alpha) of the alpha-raising relation; b_0 = 0."""
    if n == 0:
        return 0.0
    cn_a = radial_coeffs(fam, n, alpha)
    cn_a1 = radial_coeffs(fam, n, alpha + 1)
    c0nm1_a1 = radial_coeffs(fam, n - 1, alpha + 1)[0]
    return float((cn_a1[0] * cn_a[1] - cn_a[0] * cn_a1[1]) / (c0nm1_a1 * cn_a1[0]))


def recurrence(fam, alpha, npts):
    """Monic three-term recurrence x p_n = p_{n+1} + A_n p_n + B_n p_{n-1},
    n = 0..npts-1, of p_n = phi_n(x; alpha) / c_0(n, alpha).

    Closed forms from Koekoek, Lesky and Swarttouw (2010): Laguerre 9.12,
    Jacobi 9.8 (mapped by x = (1 - y) / 2), little q-Jacobi 14.12 (with
    a = q^(alpha+beta), b = q^gamma), little q-Laguerre 14.20 (b = 0) and
    q-Laguerre 14.21.  Returns (A, B) in np.longdouble with B_0 = 0; the
    removable 0/0 of the Jacobi forms at n = 0, 1 (alpha+beta+gamma = 0,
    -1) and of the little q-Jacobi forms at n = 0 (ab = 1 or abq = 1) are
    set from their cancelled limits.
    """
    n = np.arange(npts, dtype=np.longdouble)
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
            A[0] = (1 - (b - g) / (t + 2)) / 2
            B[1:2] = (1 + g) * (1 + b) / ((t + 2) ** 2 * (t + 3))
        elif fam.is_q():
            q = np.longdouble(fam.q)
            qn = q ** n
            a = q ** np.longdouble(alpha + fam.beta)
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
                up[0] = (1 - a * q) / (1 - ab * q * q)
                down[0] = 0
                A = up + down
                B = np.concatenate(([0], up[:-1] * down[1:]))
        else:
            raise ValueError(f"unknown radial family kind {fam.kind!r}")
    B[0] = 0
    return A, B


def monic_values(A, B, x):
    """Rows p_0(x)..p_{len(A)-1}(x) of the monic recurrence (A, B) at the
    points x, in np.longdouble."""
    x = np.asarray(x, dtype=np.longdouble)
    rows = np.ones((len(A),) + x.shape, dtype=np.longdouble)
    # [()] turns a 0-d point into a numpy scalar, whose arithmetic is
    # several times cheaper than a 0-d array's; arrays pass unchanged
    x = x[()]
    prev, cur = 0, 1
    for k in range(len(A) - 1):
        prev, cur = cur, (x - A[k]) * cur - B[k] * prev
        rows[k + 1] = cur
    return rows


def phi_rows(fam, alpha, nmax, scale=None):
    """Evaluator of the rows phi_0..phi_nmax(x; alpha), times ``scale[k]``
    when given.

    Returns rows(x) = c_0(k, alpha) scale[k] p_k(x), k = 0..nmax, with p_k
    from the monic recurrence, in np.longdouble and of shape
    (nmax + 1,) + shape(x).  The leading coefficients and the recurrence
    are formed once, so a lattice sum can call rows chunk by chunk.  This
    is the one route to values at points; the tables serve the algebra.
    """
    lead = np.array([leading_coeff(fam, k, alpha) for k in range(nmax + 1)],
                    dtype=np.longdouble)
    if scale is not None:
        lead *= scale
    A, B = recurrence(fam, alpha, nmax + 1)

    def rows(x):
        x = np.asarray(x)
        return lead.reshape((-1,) + (1,) * x.ndim) * monic_values(A, B, x)

    return rows


def jacobi_matrix(fam, alpha, npts):
    """Diagonal and off-diagonal of the symmetric (monic-normalized) Jacobi
    matrix of order npts for the measure x^alpha dnu."""
    A, B = recurrence(fam, alpha, npts)
    if np.any(B[1:] <= 0):
        raise ValueError("nonpositive recurrence product; measure not positive")
    return A.astype(float), np.sqrt(B[1:]).astype(float)


def radial_zeros(fam, n, alpha):
    """Zeros of phi_n(x; alpha) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.array([])
    diag, off = jacobi_matrix(fam, alpha, n)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.sort(vals)

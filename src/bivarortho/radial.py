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

Besides coefficient tables the module provides three-term recurrence
coefficients (closed formulas cross-checked against exact expansion
matching), the alpha-raising connection machinery, norms, and zeros via the
symmetrized Jacobi matrix.
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


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def radial_coeffs(fam, n, alpha, dtype=float):
    """Exact coefficients c_j(n, alpha), j = 0..n, of x^(n-j) in phi_n.

    Classical families are built by term ratios from c_0 so the Pochhammer
    cancellations happen symbolically; q-families are evaluated directly
    from finite q-Pochhammer products.  ``dtype`` selects the working
    scalar type (np.longdouble extends precision for ill-conditioned
    quadrature paths).

    Tables are memoized on (fam, n, alpha, dtype) and shared between
    callers, so the returned array is read-only; copy it before changing
    it.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    c = np.zeros(n + 1, dtype=dtype)
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
        q = dtype(fam.q)
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
        q = dtype(fam.q)
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
        q = dtype(fam.q)
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


def radial_power_coeffs(fam, n, alpha):
    """Coefficients in ascending power order: p[k] multiplies x^k."""
    c = radial_coeffs(fam, n, alpha)
    return c[::-1].copy()


def radial_eval(fam, n, alpha, x):
    p = radial_power_coeffs(fam, n, alpha)
    return np.polynomial.polynomial.polyval(x, p)


def zeta(fam, n, alpha):
    """Squared norm of phi_n with respect to x^alpha dnu."""
    if fam.kind == "laguerre":
        a = alpha + fam.beta
        return math.gamma(a + n + 1) / math.factorial(n)
    if fam.kind == "jacobi":
        g = alpha + fam.gamma
        t = alpha + fam.beta + fam.gamma
        return (
            math.gamma(g + n + 1)
            * math.gamma(fam.beta + n + 1)
            / (math.factorial(n) * math.gamma(t + n + 1) * (t + 2 * n + 1))
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
        return (
            qpochhammer(q, q)
            * qpochhammer(q ** (a + g + n + 1), q)
            * qpochhammer(q, q, n)
            * q ** (n * (a + 1))
            / (
                qpochhammer(q ** (a + 1), q)
                * qpochhammer(q ** (g + n + 1), q)
                * qpochhammer(q ** (a + 1), q, n)
                * (1.0 - q ** (a + g + 2 * n + 1))
            )
        )
    raise ValueError(f"unknown radial family kind {fam.kind!r}")


def measure_mass(fam, alpha):
    """Total mass of x^alpha dnu; phi_0 is the constant c_0(0, alpha)."""
    c00 = radial_coeffs(fam, 0, alpha)[0]
    return zeta(fam, 0, alpha) / c00 ** 2


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Three-term recurrence x phi_n = a_n phi_{n+1} + c_n phi_n + b_n phi_{n-1}.

    ``a``, ``b``, ``c`` come from exact expansion matching; the ``formula_*``
    fields hold the closed-form candidates and ``formula_mismatch`` the
    largest absolute disagreement between the two routes.  ``fit_residual``
    is the leftover after subtracting the matched combination (should be at
    rounding level).
    """

    a: float
    b: float
    c: float
    formula_a: float
    formula_b: float
    formula_c: float
    formula_mismatch: float
    fit_residual: float


def recurrence_coeffs(fam, n, alpha):
    """Recurrence coefficients at fixed alpha, by expansion matching with the
    closed formulas evaluated alongside for cross-validation."""

    def c0(k):
        return radial_coeffs(fam, k, alpha)[0]

    def cj(k, j):
        if j > k:
            return 0.0
        return radial_coeffs(fam, k, alpha)[j]

    # closed-form candidates
    fa = c0(n) / c0(n + 1)
    fc = cj(n, 1) / c0(n) - cj(n + 1, 1) / c0(n + 1) if n >= 1 else -cj(1, 1) / c0(1)
    if n >= 1:
        fb = (c0(n) * cj(n, 2) - cj(n, 1) ** 2) / (c0(n - 1) * c0(n)) - (
            c0(n) * cj(n + 1, 2) - cj(n, 1) * cj(n + 1, 1)
        ) / (c0(n - 1) * c0(n + 1))
    else:
        fb = 0.0

    # exact expansion matching: peel leading coefficients of x*phi_n
    pn = radial_power_coeffs(fam, n, alpha)
    rest = np.zeros(n + 2)
    rest[1:] = pn  # x * phi_n
    pnp1 = radial_power_coeffs(fam, n + 1, alpha)
    a = rest[n + 1] / pnp1[n + 1]
    rest = rest - a * pnp1
    c = rest[n] / pn[n]
    rest[: n + 1] -= c * pn
    if n >= 1:
        pnm1 = radial_power_coeffs(fam, n - 1, alpha)
        b = rest[n - 1] / pnm1[n - 1]
        rest[:n] -= b * pnm1
    else:
        b = 0.0
    scale = max(np.max(np.abs(pn)), np.max(np.abs(pnp1)), 1.0)
    fit_residual = float(np.max(np.abs(rest))) / scale
    mismatch = max(abs(a - fa), abs(b - fb), abs(c - fc)) / max(
        abs(a), abs(b), abs(c), 1.0
    )
    return RecurrenceCoeffs(a, b, c, fa, fb, fc, mismatch, fit_residual)


def shift_a(fam, n, alpha):
    """Coefficient a_n(alpha) in phi_n(x; alpha) - a_n phi_n(x; alpha+1)
    = b_n phi_{n-1}(x; alpha+1)."""
    return radial_coeffs(fam, n, alpha)[0] / radial_coeffs(fam, n, alpha + 1)[0]


def shift_b(fam, n, alpha):
    """Coefficient b_n(alpha) of the alpha-raising relation; b_0 = 0."""
    if n == 0:
        return 0.0
    cn_a = radial_coeffs(fam, n, alpha)
    cn_a1 = radial_coeffs(fam, n, alpha + 1)
    c0nm1_a1 = radial_coeffs(fam, n - 1, alpha + 1)[0]
    return (cn_a1[0] * cn_a[1] - cn_a[0] * cn_a1[1]) / (c0nm1_a1 * cn_a1[0])


def shift_lambdas(fam, n, alpha):
    """Connection coefficients lambda_j with
    phi_n(x; alpha+1) = sum_j lambda_j(n, alpha) phi_j(x; alpha)."""
    lam = np.zeros(n + 1)
    lam[n] = 1.0 / shift_a(fam, n, alpha)
    for j in range(n - 1, -1, -1):
        prod = 1.0
        for k in range(n - j):
            prod *= shift_b(fam, n - k, alpha) / shift_a(fam, n - k, alpha)
        lam[j] = (-1.0) ** (n - j) * prod / shift_a(fam, j, alpha)
    return lam


def zeta_ratio_product(fam, n, alpha):
    """Telescoped norm ratio zeta_n(alpha) / zeta_0(alpha + n) built from the
    alpha-raising coefficients; cross-checks the closed norm formulas.

    Each step uses zeta_k(alpha) = b_k(alpha) a_{k-1}(alpha)
    [c_0(k, alpha) / c_0(k-1, alpha)] zeta_{k-1}(alpha + 1), which follows
    from pairing the raising relation against x phi_{k-1} and expanding the
    connection coefficient lambda_{k-1} = 1 / a_{k-1}.
    """
    prod = 1.0
    for j in range(n):
        prod *= (
            shift_b(fam, n - j, alpha + j)
            * shift_a(fam, n - j - 1, alpha + j)
            * radial_coeffs(fam, n - j, alpha + j)[0]
            / radial_coeffs(fam, n - j - 1, alpha + j)[0]
        )
    return prod


def jacobi_matrix(fam, alpha, npts):
    """Diagonal and off-diagonal of the symmetric (monic-normalized) Jacobi
    matrix of order npts for the measure x^alpha dnu."""
    diag = np.zeros(npts)
    off = np.zeros(max(npts - 1, 0))
    kappa = [radial_coeffs(fam, k, alpha)[0] for k in range(npts + 1)]
    for k in range(npts):
        rc = recurrence_coeffs(fam, k, alpha)
        diag[k] = rc.c
        if k >= 1:
            sq = rc.b * kappa[k - 1] / kappa[k]
            if sq <= 0:
                raise ValueError("nonpositive recurrence product; measure not positive")
            off[k - 1] = math.sqrt(sq)
    return diag, off


def radial_zeros(fam, n, alpha):
    """Zeros of phi_n(x; alpha) as eigenvalues of the Jacobi matrix."""
    if n == 0:
        return np.array([])
    diag, off = jacobi_matrix(fam, alpha, n)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    return np.sort(vals)

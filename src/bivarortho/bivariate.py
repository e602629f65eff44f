"""Bivariate polynomial families on the plane and the disc, their
q-analogues, and a catalog of recurrence / ladder / differential /
q-difference identities checked in exact cleared-denominator polynomial
form.

Families (tags)
---------------
Z(beta)          2D Laguerre-type, radial factor L_n^(beta+m-n)
H                2D Hermite (Ito), the beta = 0 specialization of Z rescaled
M(beta, gamma)   disc polynomials, radial factor shifted Jacobi
ZQ(beta, q, c)   q-analogue of Z on the bilateral q-lattice
WALL(beta, q)    little q-Laguerre / Wall radial factor
MQ(beta,gamma,q) little q-Jacobi radial factor
GEN(radial)      generic construction over any radial family

Each catalog identity is stored as one or more variants: ``derived``
variants are forced by the construction (and are the ones the verdict is
computed on); ``printed`` variants reproduce published forms that are
suspected of typos, and their failures are reported as known
discrepancies rather than errors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import radial
from .polycore import BivariatePoly, Tolerance, identity_residual
from .qcalc import pochhammer, falling, qnumber

# identities whose printed variant is expected to fail (suspected typos);
# the derived variant carries the verdict and the printed residual is
# reported as a known discrepancy
KNOWN_DISCREPANCIES = {
    "ZQ_RR2": "printed index: left side should carry z_{m,n}, not z_{m,n+1}",
    "M_PDE2": "printed second equivalent form is garbled; z1 equation is rederived",
    "M_LADDER1": "printed right side should carry index (m, n-1), not (m, n)",
    "MQ_LADDER1": "printed exponent m+beta+gamma-1 and denominator exponent "
    "m-n+beta should read m+beta+gamma+1 and m-n+beta+1",
    "MQ_RR2": "printed M_{m,n-1} coefficient has the wrong sign",
    "MQ_LADDER2": "printed prefactor denominator q^(m-n+beta) should read "
    "q^(m-n+beta-1)",
    "WALL_LADDER22": "printed right-side coefficients are off by powers of q "
    "(and the left divisor w_{m,n} should be the weight)",
    "ZQ_QDE2": "printed z1 equation disagrees with the forced substitution "
    "of the verified radial equation",
    "WALL_QDE2": "printed z1 equation disagrees with the forced substitution "
    "of the verified radial equation",
    "MQ_QDE1": "printed Euler-operator form fails already at n = 0; the "
    "three-point radial equation is used instead",
    "MQ_QDE2": "printed z1 equation disagrees with the forced substitution "
    "of the three-point radial equation",
}


@dataclass(frozen=True)
class FamilyId:
    """Bivariate family selector; unused parameters are ignored."""

    tag: str
    beta: float = 0.0
    gamma: float = 0.0
    q: float = 0.5
    c: float = 1.0

    def with_params(self, **kw):
        d = dict(tag=self.tag, beta=self.beta, gamma=self.gamma, q=self.q, c=self.c)
        d.update(kw)
        return FamilyId(**d)


def Z(beta):
    return FamilyId("Z", beta=beta)


def H():
    return FamilyId("H")


def M(beta, gamma):
    return FamilyId("M", beta=beta, gamma=gamma)


def ZQ(beta, q, c=1.0):
    return FamilyId("ZQ", beta=beta, q=q, c=c)


def WALL(beta, q):
    return FamilyId("WALL", beta=beta, q=q)


def MQ(beta, gamma, q):
    return FamilyId("MQ", beta=beta, gamma=gamma, q=q)


# each family tag's radial constructor and the FamilyId parameters it
# reads, in argument order
FAMILIES = {
    "Z": (radial.laguerre, ("beta",)),
    "H": (lambda: radial.laguerre(0.0), ()),
    "M": (radial.shifted_jacobi, ("beta", "gamma")),
    "ZQ": (radial.q_laguerre, ("beta", "q", "c")),
    "WALL": (radial.wall, ("beta", "q")),
    "MQ": (radial.little_q_jacobi, ("beta", "gamma", "q")),
}


def radial_of(fam):
    """Radial family underlying a bivariate family."""
    if fam.tag not in FAMILIES:
        raise ValueError(f"unknown family tag {fam.tag!r}")
    make, names = FAMILIES[fam.tag]
    return make(*(getattr(fam, name) for name in names))


@lru_cache(maxsize=radial.TABLE_CACHE_SIZE)
def construct(fam, m, n):
    """Coefficient table of f_{m,n}: z1^(m-n) phi_n(z1 z2; m-n) for m >= n,
    with the roles of z1 and z2 swapped when m < n.

    Tables are memoized on (fam, m, n) and the returned BivariatePoly is
    shared between callers: treat it as immutable (every BivariatePoly
    operation returns a new table)."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if m < n:
        return construct(fam, n, m).swap_vars()
    coeffs = radial.radial_coeffs(radial_of(fam), n, m - n).tolist()
    factors = harmonic_scale(fam, n)
    scale = 1.0 if factors is None else factors[n]
    return BivariatePoly({(m - j, n - j): scale * coeffs[j] for j in range(n + 1)})


def harmonic_scale(fam, nmax):
    """Factors of the radial rows phi_0..phi_nmax of a family: H rescales
    phi_k by (-1)^k k!; None for the others."""
    if fam.tag != "H":
        return None
    return [(-1.0) ** k * math.factorial(k) for k in range(nmax + 1)]


def values(fam, m, n, z1, z2):
    """f_{m,n}(z1, z2) at points (scalars or arrays of one shape) from the
    radial recurrence: z1^(m-n) phi_n(z1 z2; m-n) for m >= n and
    z2^(n-m) phi_m(z1 z2; n-m) otherwise, formed in np.longdouble.  The
    value of construct(fam, m, n), without the cancellation of summing the
    power basis."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z1 = np.asarray(z1, dtype=np.longdouble)
    z2 = np.asarray(z2, dtype=np.longdouble)
    a, k = abs(m - n), min(m, n)
    rows = radial.phi_rows(radial_of(fam), a, k, harmonic_scale(fam, k))(z1 * z2)
    return ((z1 if m >= n else z2) ** a * rows[k]).astype(float)


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------


class IdentityRangeError(ValueError):
    """Index outside an identity's stated range (not a check failure)."""


@dataclass
class IdentityReport:
    identity: str
    family: str
    m: int
    n: int
    residual: float
    scale: float
    passed: bool
    printed_residual: float = None
    printed_passed: bool = None
    known_discrepancy: bool = False
    note: str = ""


def _c0(rad, k, alpha):
    return float(radial.radial_coeffs(rad, k, alpha)[0])


def _cj(rad, k, j, alpha):
    if j > k:
        return 0.0
    return float(radial.radial_coeffs(rad, k, alpha)[j])


def _zero_if_negative(fam, m, n):
    if m < 0 or n < 0:
        return BivariatePoly.zero()
    return construct(fam, m, n)


def _require(cond):
    if not cond:
        raise IdentityRangeError("index outside identity range")


# --- generic construction identities ---------------------------------------


def _gen_3trr(fam, m, n):
    _require(m >= n)
    rad = radial_of(fam)
    a = m - n
    A = _c0(rad, n, a + 1) / _c0(rad, n + 1, a)
    B = -A * _cj(rad, n + 1, n + 1, a) / _cj(rad, n, n, a)
    lhs = BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    rhs = A * construct(fam, m + 1, n + 1) + B * construct(fam, m, n)
    return [("derived", lhs, rhs)]


def _gen_uv(fam, m, n):
    _require(m >= n)
    rad = radial_of(fam)
    a = m - n
    v = radial.shift_a(rad, n, a)
    u = radial.shift_b(rad, n, a)
    lhs = BivariatePoly.monomial(1, 0) * construct(fam, m, n) - v * construct(fam, m + 1, n)
    rhs = u * _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, rhs)]


# degrees per step of growth of the recurrence tables _gen_diag reads
_RECURRENCE_STEP = 16


@lru_cache(maxsize=radial.TABLE_CACHE_SIZE)
def _recurrence_table(rad, alpha, npts):
    """Read-only radial.recurrence(rad, alpha, npts), shared by every
    GEN_DIAG check of that radial family and alpha; its entries do not
    depend on npts, so a longer table reads the same numbers."""
    A, B = radial.recurrence(rad, alpha, npts)
    A.setflags(write=False)
    B.setflags(write=False)
    return A, B


def _gen_diag(fam, m, n):
    _require(m >= n)
    rad = radial_of(fam)
    a = m - n
    A, B = _recurrence_table(rad, a, _RECURRENCE_STEP * (n // _RECURRENCE_STEP + 1))
    x = BivariatePoly.monomial(1, 1)
    lhs = (x - float(A[n])) * construct(fam, m, n)
    lower = float(B[n]) * _c0(rad, n, a) / _c0(rad, n - 1, a) if n else 0.0
    rhs = (_c0(rad, n, a) / _c0(rad, n + 1, a) * construct(fam, m + 1, n + 1)
           + lower * _zero_if_negative(fam, m - 1, n - 1))
    return [("derived", lhs, rhs)]


def _gen_eigen(fam, m, n):
    f = construct(fam, m, n)
    lhs = f.diff_theta(1) - f.diff_theta(2)
    rhs = (m - n) * f
    return [("derived", lhs, rhs)]


def _gen_eigen_q(fam, m, n):
    q = fam.q
    f = construct(fam, m, n)
    lhs = f.diff_qtheta(1, q) - q ** (m - n) * f.diff_qtheta(2, q)
    rhs = qnumber(m - n, q) * f
    return [("derived", lhs, rhs)]


def _raise_param(fam, m, n):
    """Parameter-raising: z1 times the raised-parameter table equals the
    index-raised table.  Z/ZQ/WALL raise beta; M raises gamma; MQ raises
    beta."""
    _require(m >= n)
    if fam.tag in ("Z", "ZQ", "WALL", "MQ"):
        raised = fam.with_params(beta=fam.beta + 1)
    elif fam.tag == "M":
        raised = fam.with_params(gamma=fam.gamma + 1)
    else:
        raise IdentityRangeError("no parameter-raising relation for this family")
    lhs = BivariatePoly.monomial(1, 0) * construct(raised, m, n)
    rhs = construct(fam, m + 1, n)
    return [("derived", lhs, rhs)]


# --- Z family ---------------------------------------------------------------


def _z_rr1(fam, m, n):
    _require(m >= n)
    lhs = BivariatePoly.monomial(1, 0) * construct(fam, m, n)
    rhs = construct(fam, m + 1, n) - _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, rhs)]


def _z_rr2(fam, m, n):
    _require(m >= n)
    b = fam.beta
    lhs = BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    rhs = -(n + 1.0) * construct(fam, m + 1, n + 1) + (b + m + 1.0) * construct(fam, m, n)
    return [("derived", lhs, rhs)]


def _z_diag(fam, m, n):
    _require(m >= n >= 1)
    b = fam.beta
    lhs = (b + m + n + 1.0 - BivariatePoly.monomial(1, 1)) * construct(fam, m, n)
    rhs = (n + 1.0) * construct(fam, m + 1, n + 1) + (m + b) * construct(fam, m - 1, n - 1)
    return [("derived", lhs, rhs)]


def _z_ladder1(fam, m, n):
    _require(m >= n)
    f = construct(fam, m, n)
    lhs = f.diff_theta(2)
    rhs = -BivariatePoly.monomial(0, 1) * _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, rhs)]


def _z_ladder2(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = f.diff_theta(2)
    rhs = n * f - (b + m) * _zero_if_negative(fam, m - 1, n - 1) if n >= 1 else n * f
    return [("derived", lhs, rhs)]


def _z_ladder3(fam, m, n):
    _require(m >= n)
    f = construct(fam, m, n)
    lhs = f.diff_theta(1)
    rhs = (m - n) * f - BivariatePoly.monomial(0, 1) * _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, rhs)]


def _z_ladder4(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = f.diff_theta(1)
    rhs = m * f - (m + b) * _zero_if_negative(fam, m - 1, n - 1) if n >= 1 else m * f
    return [("derived", lhs, rhs)]


def _z_ladder6(fam, m, n):
    _require(m >= n >= 1)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = n * f.diff_theta(1) - m * f.diff_theta(2)
    rhs = (m - n) * (m + b) * construct(fam, m - 1, n - 1)
    return [("derived", lhs, rhs)]


def _z_diff_down(fam, m, n):
    _require(m >= n)
    f = construct(fam, m, n)
    lhs = f.diff_partial(2) - BivariatePoly.monomial(1, 0) * f
    rhs = -construct(fam, m + 1, n)
    return [("derived", lhs, rhs)]


def _z_shift_up(fam, m, n):
    # raises n by one, so it holds strictly inside the m >= n wedge only
    _require(m > n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = f.diff_theta(1) + (b - BivariatePoly.monomial(1, 1)) * f
    rhs = (n + 1.0) * BivariatePoly.monomial(1, 0) * construct(fam, m, n + 1)
    return [("derived", lhs, rhs)]


def _z_delta_w2(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = f.diff_theta(2) + (b - BivariatePoly.monomial(1, 1)) * f
    rhs = b * f - BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    return [("derived", lhs, rhs)]


def _z_delta_w1(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = f.diff_theta(1) + (b - BivariatePoly.monomial(1, 1)) * f
    rhs = (b + m - n) * f - BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    return [("derived", lhs, rhs)]


def _z_pde(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    z1 = BivariatePoly.monomial(1, 0)
    lhs = (
        z1 * f.diff_partial(1).diff_partial(2)
        + (b - BivariatePoly.monomial(1, 1)) * f.diff_partial(2)
        + n * z1 * f
    )
    return [("derived", lhs, BivariatePoly.zero())]


def _z_ode(fam, m, n):
    _require(m >= n)
    b = fam.beta
    f = construct(fam, m, n)
    lhs = (
        BivariatePoly.monomial(0, 1) * f.diff_partial(2).diff_partial(2)
        + (1.0 + b + m - n - BivariatePoly.monomial(1, 1)) * f.diff_partial(2)
        + n * BivariatePoly.monomial(1, 0) * f
    )
    return [("derived", lhs, BivariatePoly.zero())]


def _z_oprep(fam, m, n):
    _require(m >= n)
    lhs = construct(fam, m, n)
    rhs = operational_Z(m, n, fam.beta)
    return [("derived", lhs, rhs)]


# --- M family ---------------------------------------------------------------


def _m_rr1(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    lhs = (b + g + m + n + 2.0) * BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    rhs = (g + m + 1.0) * construct(fam, m, n) - (n + 1.0) * construct(fam, m + 1, n + 1)
    return [("derived", lhs, rhs)]


def _m_rr2(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    lhs = (b + g + m + n + 1.0) * BivariatePoly.monomial(1, 0) * construct(fam, m, n)
    rhs = (b + g + m + 1.0) * construct(fam, m + 1, n) - (b + n) * _zero_if_negative(
        fam, m, n - 1
    )
    return [("derived", lhs, rhs)]


def _m_rr3(fam, m, n):
    _require(m >= n >= 1)
    b, g = fam.beta, fam.gamma
    s = b + g + m + n
    an = (n + 1.0) * (b + g + m + 1.0) / ((s + 1.0) * (s + 2.0))
    bn = (g + m) * (b + n) / (s * (s + 1.0))
    cn = (n + 1.0) * (g + m + 1.0) / (s + 2.0) - n * (g + m) / s
    lhs = (cn - BivariatePoly.monomial(1, 1)) * construct(fam, m, n)
    rhs = an * construct(fam, m + 1, n + 1) + bn * construct(fam, m - 1, n - 1)
    return [("derived", lhs, rhs)]


def _m_pde1(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    d2 = f.diff_theta(2)
    lhs = (
        (1.0 - x) * d2.diff_theta(2)
        + (float(m - n + g) - (b + g + m - n + 1.0) * x) * d2
        + n * (b + g + m + 1.0) * x * f
    )
    return [("derived", lhs, BivariatePoly.zero())]


def _m_pde1b(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    lhs = (
        (1.0 - x) * BivariatePoly.monomial(0, 1) * f.diff_partial(2).diff_partial(2)
        + (1.0 + m - n + g - (2.0 + g + b + m - n) * x) * f.diff_partial(2)
        + n * (m + b + g + 1.0) * BivariatePoly.monomial(1, 0) * f
    )
    return [("derived", lhs, BivariatePoly.zero())]


def _m_pde2(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    nu = float(m - n)
    # 1D data A = 1-x, B = nu+g - x(nu+b+g+1), C = x n (nu+b+g+n+1);
    # z1 substitution sends the Euler operator to delta_{z1} - nu
    A = 1.0 - x
    B = (nu + g) - (nu + b + g + 1.0) * x
    C = n * (nu + b + g + n + 1.0) * x
    d1 = f.diff_theta(1)
    derived = A * d1.diff_theta(1) + (B - 2.0 * nu * A) * d1 + (
        nu * nu * A - nu * B + C
    ) * f
    # best-effort literal reading of the printed (garbled) display
    printed = (
        (1.0 - x) * BivariatePoly.monomial(1, 0) * f.diff_partial(1).diff_partial(1)
        + (1.0 - m + n + g - (2.0 + g + b - m + n) * x) * f.diff_partial(1)
        + m * (n + b + g + 1.0) * BivariatePoly.monomial(0, 1) * f
    )
    return [
        ("derived", derived, BivariatePoly.zero()),
        ("printed", printed, BivariatePoly.zero()),
    ]


def _m_ladder1(fam, m, n):
    _require(m >= n >= 1)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    raised = fam.with_params(beta=b + 1)
    lhs = f.diff_partial(2)
    derived = -(b + g + m + 1.0) * construct(raised, m, n - 1)
    printed = -(b + g + m + 1.0) * construct(raised, m, n)
    return [("derived", lhs, derived), ("printed", lhs, printed)]


def _m_ladder2(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    raised = fam.with_params(beta=b + 1)
    lhs = f.diff_theta(2)
    rhs1 = n * f - (g + m) * _zero_if_negative(raised, m - 1, n - 1) if n >= 1 else n * f
    rhs2 = (b + g + m + 1.0) * (construct(raised, m, n) - f)
    return [("derived", lhs, rhs1), ("derived-b", lhs, rhs2)]


def _m_ladder3(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    raised = fam.with_params(beta=b + 1)
    lhs = f.diff_theta(1)
    rhs1 = m * f - (g + m) * _zero_if_negative(raised, m - 1, n - 1) if n >= 1 else m * f
    rhs2 = (b + g + m + 1.0) * construct(raised, m, n) - (b + g + n + 1.0) * f
    return [("derived", lhs, rhs1), ("derived-b", lhs, rhs2)]


def _m_ladder4(fam, m, n):
    _require(m >= n)
    b, g = fam.beta, fam.gamma
    f = construct(fam, m, n)
    raised = fam.with_params(beta=b + 1)
    lhs = (b + g + m + 1.0) * f.diff_theta(1) - (b + g + n + 1.0) * f.diff_theta(2)
    rhs = (m - n) * (b + g + m + 1.0) * construct(raised, m, n)
    return [("derived", lhs, rhs)]


# --- ZQ family --------------------------------------------------------------


def _zq_rr1(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    lhs = q ** (m + 1 + b) * BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    rhs = -(1.0 - q ** (n + 1)) * construct(fam, m + 1, n + 1) + (
        1.0 - q ** (m + b + 1)
    ) * construct(fam, m, n)
    return [("derived", lhs, rhs)]


def _zq_rr2(fam, m, n):
    _require(m >= n >= 1)
    q = fam.q
    z1 = BivariatePoly.monomial(1, 0)
    rhs = construct(fam, m + 1, n) - construct(fam, m, n - 1)
    derived_lhs = q ** n * z1 * construct(fam, m, n)
    printed_lhs = q ** n * z1 * construct(fam, m, n + 1)
    return [("derived", derived_lhs, rhs), ("printed", printed_lhs, rhs)]


def _zq_diag(fam, m, n):
    _require(m >= n >= 1)
    b, q = fam.beta, fam.q
    coeff = 1.0 + q * (1.0 - q ** n - q ** (m + b))
    lhs = (coeff - q ** (b + m + n + 1) * BivariatePoly.monomial(1, 1)) * construct(fam, m, n)
    rhs = (1.0 - q ** (1 + n)) * construct(fam, m + 1, n + 1) + q * (
        1.0 - q ** (b + m)
    ) * construct(fam, m - 1, n - 1)
    return [("derived", lhs, rhs)]


def _zq_qde1(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    t2 = f.diff_qtheta(2, q)
    lhs = (
        (1.0 - q) ** 2 * (1.0 + q * x) * t2.diff_qtheta(2, q)
        + (1.0 - q) * (q ** (n - m - b) - 1.0 - (2.0 - q ** n) * q * x) * t2
    )
    rhs = -q * (1.0 - q ** n) * x * f
    return [("derived", lhs, rhs)]


def _zq_qde2(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    al = b + m - n
    one = BivariatePoly.const(1.0)
    nu = m - n
    derived_lhs = (one + q * x) * f.dilate(1, q * q) - q ** nu * (
        (1.0 + q ** (-al)) * one + q ** (n + 1) * x
    ) * f.dilate(1, q)
    derived_rhs = -(q ** (2 * nu)) * q ** (-al) * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 + q * x) * t1.diff_qtheta(1, q)
        - (1.0 - q)
        * (1.0 - q ** (b + m - n) + (2.0 - q ** (b + m + 1)) * q * x)
        * t1
    )
    printed_rhs = -q * (1.0 - q ** (b + m)) * x * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _zq_lad19(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    down = _zero_if_negative(fam, m, n - 1).dilate(1, q)
    lhs = q ** (m - n) * f - f.dilate(1, q)
    rhs = -(q ** (b + m - n)) * BivariatePoly.monomial(0, 1) * down
    return [("derived", lhs, rhs)]


def _zq_lad20(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    down = _zero_if_negative(fam, m, n - 1).dilate(1, q)
    lhs = f - f.dilate(2, q)
    rhs = -(q ** b) * BivariatePoly.monomial(0, 1) * down
    return [("derived", lhs, rhs)]


def _zq_lad22(fam, m, n):
    _require(m >= n)
    f = construct(fam, m, n)
    q = fam.q
    lhs = f - (1.0 + BivariatePoly.monomial(1, 1)) * f.dilate(2, q)
    rhs = -BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    return [("derived", lhs, rhs)]


def _zq_lad23(fam, m, n):
    _require(m > n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = f - q ** b * (1.0 + BivariatePoly.monomial(1, 1)) * f.dilate(1, q)
    rhs = (1.0 - q ** (n + 1)) * BivariatePoly.monomial(1, 0) * construct(fam, m, n + 1)
    return [("derived", lhs, rhs)]


def _zq_lad24(fam, m, n):
    _require(m > n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = f - q ** (b + m - n) * (1.0 + BivariatePoly.monomial(1, 1)) * f.dilate(2, q)
    rhs = (1.0 - q ** (n + 1)) * BivariatePoly.monomial(1, 0) * construct(fam, m, n + 1)
    return [("derived", lhs, rhs)]


# --- WALL family ------------------------------------------------------------


def _wall_rr1(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    lhs = BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    rhs = (
        q ** n
        * (1.0 - q ** (m - n + b + 1))
        * (construct(fam, m, n) - construct(fam, m + 1, n + 1))
    )
    return [("derived", lhs, rhs)]


def _wall_rr2(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    lhs = (1.0 - q ** (m - n + b + 1)) * BivariatePoly.monomial(1, 0) * construct(fam, m, n)
    rhs = (1.0 - q ** (m + b + 1)) * construct(fam, m + 1, n) - q ** (m - n + b + 1) * (
        1.0 - q ** n
    ) * _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, rhs)]


def _wall_diag(fam, m, n):
    _require(m >= n >= 1)
    b, q = fam.beta, fam.q
    coeff = q ** n + q ** (m + b) * (1.0 - q ** n - q ** (n + 1))
    lhs = (coeff - BivariatePoly.monomial(1, 1)) * construct(fam, m, n)
    rhs = q ** n * (1.0 - q ** (m + b + 1)) * construct(fam, m + 1, n + 1) + q ** (
        m + b
    ) * (1.0 - q ** n) * construct(fam, m - 1, n - 1)
    return [("derived", lhs, rhs)]


def _wall_qde1(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    t2 = f.diff_qtheta(2, q)
    lhs = (
        (1.0 - q) ** 2 * q ** (b + m - 1) * t2.diff_qtheta(2, q)
        + (1.0 - q) * (q ** (n - 1) - q ** (b + m - 1) - x) * t2
    )
    rhs = -(1.0 - q ** n) * x * f
    return [("derived", lhs, rhs)]


def _wall_qde2(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    one = BivariatePoly.const(1.0)
    nu = m - n
    derived_lhs = q ** (b + m - 1) * f.dilate(1, q * q) - q ** nu * (
        (q ** (n - 1) + q ** (b + m - 1)) * one - x
    ) * f.dilate(1, q)
    derived_rhs = -(q ** (2 * nu)) * q ** (n - 1) * (one - q * x) * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * q ** n * t1.diff_qtheta(1, q)
        - (1.0 - q) * (q ** n - q ** (b + m) + q * x) * t1
    )
    printed_rhs = -q * (1.0 - q ** (b + m)) * x * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _wall_lad1(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = (1.0 - q ** (b + m - n + 1)) * (f - q ** (n - m) * f.dilate(1, q))
    rhs = -(q ** (1 - n)) * (1.0 - q ** n) * BivariatePoly.monomial(0, 1) * _zero_if_negative(
        fam, m, n - 1
    )
    return [("derived", lhs, rhs)]


def _wall_lad2(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = (1.0 - q ** (b + m - n + 1)) * (f - f.dilate(2, q))
    rhs = -(q ** (1 - n)) * (1.0 - q ** n) * BivariatePoly.monomial(0, 1) * _zero_if_negative(
        fam, m, n - 1
    )
    return [("derived", lhs, rhs)]


def _wall_lad20(fam, m, n):
    _require(m > n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = q ** b * f - (1.0 - BivariatePoly.monomial(1, 1)) * f.dilate(1, 1.0 / q)
    rhs = (
        -(1.0 - q ** (b + m - n))
        * q ** (n - m)
        * BivariatePoly.monomial(1, 0)
        * construct(fam, m, n + 1)
    )
    return [("derived", lhs, rhs)]


def _wall_lad21(fam, m, n):
    _require(m > n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = q ** b * f - q ** (n - m) * (1.0 - BivariatePoly.monomial(1, 1)) * f.dilate(
        2, 1.0 / q
    )
    rhs = (
        -(q ** (n - m))
        * (1.0 - q ** (b + m - n))
        * BivariatePoly.monomial(1, 0)
        * construct(fam, m, n + 1)
    )
    return [("derived", lhs, rhs)]


def _wall_lad22(fam, m, n):
    _require(m >= n)
    b, q = fam.beta, fam.q
    f = construct(fam, m, n)
    lhs = (1.0 - q ** (b + m - n + 1)) * (
        q ** b * f - (1.0 - BivariatePoly.monomial(1, 1)) * f.dilate(2, 1.0 / q)
    )
    z2up = BivariatePoly.monomial(0, 1) * construct(fam, m + 1, n)
    derived = (
        -(1.0 - q ** b) * (1.0 - q ** (b + m - n + 1)) * f
        + q ** (-n) * (1.0 - q ** (b + m + 1)) * z2up
    )
    printed = (
        -(q ** (b - 1)) * (1.0 - q ** b) * (1.0 - q ** (b + m - n + 1)) * f
        + q ** (2 * b - n) * (1.0 - q ** (b + m + 1)) * z2up
    )
    return [("derived", lhs, derived), ("printed", lhs, printed)]


# --- MQ family --------------------------------------------------------------


def _mq_rr1(fam, m, n):
    _require(m >= n)
    b, g, q = fam.beta, fam.gamma, fam.q
    lhs = (1.0 - q ** (b + g + m + n + 2)) * BivariatePoly.monomial(0, 1) * construct(
        fam, m + 1, n
    )
    rhs = (
        q ** n
        * (1.0 - q ** (b + m - n + 1))
        * (construct(fam, m, n) - construct(fam, m + 1, n + 1))
    )
    return [("derived", lhs, rhs)]


def _mq_rr2(fam, m, n):
    _require(m >= n)
    b, g, q = fam.beta, fam.gamma, fam.q
    den = (1.0 - q ** (b + m - n + 1)) * (1.0 - q ** (b + g + m + n + 1))
    lhs = den * BivariatePoly.monomial(1, 0) * construct(fam, m, n)
    up = (1.0 - q ** (b + m + 1)) * (1.0 - q ** (b + g + m + 1)) * construct(fam, m + 1, n)
    down = q ** (m - n + b + 1) * (1.0 - q ** n) * (
        1.0 - q ** (g + n)
    ) * _zero_if_negative(fam, m, n - 1)
    return [("derived", lhs, up - down), ("printed", lhs, up + down)]


def _mq_three_point(fam, m, n):
    """Radial three-point data (a, b, c) for the little-q-Jacobi factor at
    alpha = beta + m - n, as polynomials in x = z1 z2."""
    b, g, q = fam.beta, fam.gamma, fam.q
    al = b + m - n
    x = BivariatePoly.monomial(1, 1)
    one = BivariatePoly.const(1.0)
    a = q ** al * (one - q ** (g + 2) * x)
    bb = -((1.0 + q ** al) * one - (q ** (1 - n) + q ** (n + al + g + 2)) * x)
    c = one - q * x
    return a, bb, c


def _mq_qde1(fam, m, n):
    _require(m >= n)
    b, g, q = fam.beta, fam.gamma, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    a, bb, c = _mq_three_point(fam, m, n)
    derived_lhs = a * f.dilate(2, q * q) + bb * f.dilate(2, q)
    derived_rhs = -c * f
    t2 = f.diff_qtheta(2, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 - q ** (g + 2) * x) * t2.diff_qtheta(2, q)
        + (1.0 - q)
        * (
            q ** (n - m - b)
            - 1.0
            - (q ** (1 - m - b) + q ** (g + 2) * (2.0 - q ** n)) * x
        )
        * t2
    )
    printed_rhs = (
        1.0 + (q ** (n + 1 - m - b) - q ** (1 - m - b) - q ** (g + n + 2)) * x
    ) * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _mq_qde2(fam, m, n):
    _require(m >= n)
    b, g, q = fam.beta, fam.gamma, fam.q
    f = construct(fam, m, n)
    x = BivariatePoly.monomial(1, 1)
    a, bb, c = _mq_three_point(fam, m, n)
    nu = m - n
    derived_lhs = a * f.dilate(1, q * q) + q ** nu * bb * f.dilate(1, q)
    derived_rhs = -(q ** (2 * nu)) * c * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 - q ** (g + 2) * x) * t1.diff_qtheta(1, q)
        + (1.0 - q)
        * (
            (2.0 * q ** (g + 2) - q ** (1 - n) - q ** (m + b + g + 2)) * x
            + (q ** (m - n + b) - 1.0)
        )
        * t1
    )
    printed_rhs = -(
        (
            q ** (1 - n)
            - q ** (1 + m - n + b)
            + q ** (g + 2) * (q ** (m + b) + q ** (2 * (m - n + b)) - 1.0)
        )
        * x
        - q ** (2 * (m - n + b)) * BivariatePoly.const(1.0)
    ) * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _mq_ladder1(fam, m, n):
    _require(m >= n >= 1)
    b, g, q = fam.beta, fam.gamma, fam.q
    f = construct(fam, m, n)
    raised = fam.with_params(gamma=g + 1)
    lhs = f - f.dilate(2, q)
    z2 = BivariatePoly.monomial(0, 1)
    derived = (
        -(q ** (1 - n))
        * (1.0 - q ** n)
        * (1.0 - q ** (b + g + m + 1))
        / (1.0 - q ** (b + m - n + 1))
    ) * z2 * construct(raised, m, n - 1)
    out = [("derived", lhs, derived)]
    if abs(1.0 - q ** (m - n + b)) > 1e-12:  # printed denominator can vanish
        printed = (
            -(q ** (1 - n))
            * (1.0 - q ** n)
            * (1.0 - q ** (m + b + g - 1))
            / (1.0 - q ** (m - n + b))
        ) * z2 * construct(raised, m, n - 1)
        out.append(("printed", lhs, printed))
    return out


def _mq_ladder2(fam, m, n):
    _require(m >= n + 1)
    b, g, q = fam.beta, fam.gamma, fam.q
    f = construct(fam, m, n)
    lowered = fam.with_params(gamma=g - 1)
    x = BivariatePoly.monomial(1, 1)
    lhs = q ** b * (1.0 - q ** g * x) * f - (1.0 - x) * f.dilate(1, 1.0 / q)
    z1low = BivariatePoly.monomial(1, 0) * construct(lowered, m, n + 1)
    derived = -(1.0 - q ** (m - n + b)) * q ** (n - m) * z1low
    printed = -(1.0 - q ** (m - n + b)) * q ** (n - m - 1) * z1low
    return [("derived", lhs, derived), ("printed", lhs, printed)]


def _mq_ladder3(fam, m, n):
    _require(m >= n + 1)
    b, g, q = fam.beta, fam.gamma, fam.q
    f = construct(fam, m, n)
    lowered = fam.with_params(gamma=g - 1)
    x = BivariatePoly.monomial(1, 1)
    lhs = q ** b * (1.0 - q ** g * x) * f - q ** (n - m) * (1.0 - x) * f.dilate(
        2, 1.0 / q
    )
    rhs = (
        -(q ** (n - m))
        * (1.0 - q ** (m - n + b))
        * BivariatePoly.monomial(1, 0)
        * construct(lowered, m, n + 1)
    )
    return [("derived", lhs, rhs)]


# --- registry ---------------------------------------------------------------

_ALL = ("Z", "H", "M", "ZQ", "WALL", "MQ")
_NOT_H = ("Z", "M", "ZQ", "WALL", "MQ")
_QTAGS = ("ZQ", "WALL", "MQ")

IDENTITIES = {
    "GEN_3TRR": (_NOT_H, _gen_3trr),
    "GEN_REC2": (_NOT_H, _gen_uv),  # one relation: its tables equal GEN_UV's
    "GEN_UV": (_NOT_H, _gen_uv),
    "GEN_DIAG": (_NOT_H, _gen_diag),
    "GEN_EIGEN": (_ALL, _gen_eigen),
    "GEN_EIGEN_Q": (_QTAGS, _gen_eigen_q),
    "RAISE": (_NOT_H, _raise_param),
    "Z_RR1": (("Z",), _z_rr1),
    "Z_RR2": (("Z",), _z_rr2),
    "Z_DIAG": (("Z",), _z_diag),
    "Z_LADDER1": (("Z",), _z_ladder1),
    "Z_LADDER2": (("Z",), _z_ladder2),
    "Z_LADDER3": (("Z",), _z_ladder3),
    "Z_LADDER4": (("Z",), _z_ladder4),
    "Z_LADDER5": (("Z",), _gen_eigen),
    "Z_LADDER6": (("Z",), _z_ladder6),
    "Z_DIFF_DOWN": (("Z",), _z_diff_down),
    "Z_SHIFT_UP": (("Z",), _z_shift_up),
    "Z_DELTA_W1": (("Z",), _z_delta_w1),
    "Z_DELTA_W2": (("Z",), _z_delta_w2),
    "Z_PDE": (("Z",), _z_pde),
    "Z_ODE": (("Z",), _z_ode),
    "Z_OPREP": (("Z",), _z_oprep),
    "M_RR1": (("M",), _m_rr1),
    "M_RR2": (("M",), _m_rr2),
    "M_RR3": (("M",), _m_rr3),
    "M_PDE1": (("M",), _m_pde1),
    "M_PDE1B": (("M",), _m_pde1b),
    "M_PDE2": (("M",), _m_pde2),
    "M_LADDER1": (("M",), _m_ladder1),
    "M_LADDER2": (("M",), _m_ladder2),
    "M_LADDER3": (("M",), _m_ladder3),
    "M_LADDER4": (("M",), _m_ladder4),
    "ZQ_RR1": (("ZQ",), _zq_rr1),
    "ZQ_RR2": (("ZQ",), _zq_rr2),
    "ZQ_DIAG": (("ZQ",), _zq_diag),
    "ZQ_QDE1": (("ZQ",), _zq_qde1),
    "ZQ_QDE2": (("ZQ",), _zq_qde2),
    "ZQ_LADDER19": (("ZQ",), _zq_lad19),
    "ZQ_LADDER20": (("ZQ",), _zq_lad20),
    "ZQ_LADDER22": (("ZQ",), _zq_lad22),
    "ZQ_LADDER23": (("ZQ",), _zq_lad23),
    "ZQ_LADDER24": (("ZQ",), _zq_lad24),
    "WALL_RR1": (("WALL",), _wall_rr1),
    "WALL_RR2": (("WALL",), _wall_rr2),
    "WALL_DIAG": (("WALL",), _wall_diag),
    "WALL_QDE1": (("WALL",), _wall_qde1),
    "WALL_QDE2": (("WALL",), _wall_qde2),
    "WALL_LADDER1": (("WALL",), _wall_lad1),
    "WALL_LADDER2": (("WALL",), _wall_lad2),
    "WALL_LADDER20": (("WALL",), _wall_lad20),
    "WALL_LADDER21": (("WALL",), _wall_lad21),
    "WALL_LADDER22": (("WALL",), _wall_lad22),
    "MQ_RR1": (("MQ",), _mq_rr1),
    "MQ_RR2": (("MQ",), _mq_rr2),
    "MQ_QDE1": (("MQ",), _mq_qde1),
    "MQ_QDE2": (("MQ",), _mq_qde2),
    "MQ_LADDER1": (("MQ",), _mq_ladder1),
    "MQ_LADDER2": (("MQ",), _mq_ladder2),
    "MQ_LADDER3": (("MQ",), _mq_ladder3),
}


def identity_ids_for(fam):
    """Identity names applicable to a family, in registry order."""
    return [name for name, (tags, _) in IDENTITIES.items() if fam.tag in tags]


def check_identity(fam, name, m, n, tol=None):
    """Check one catalog identity at one index pair.

    The verdict is computed on the derived variant(s); a printed variant, if
    present, contributes a separately reported residual, and its failure is
    flagged as a known discrepancy rather than an error.
    """
    if tol is None:
        tol = Tolerance()
    if name not in IDENTITIES:
        raise KeyError(f"unknown identity {name!r}")
    tags, builder = IDENTITIES[name]
    if fam.tag not in tags:
        raise IdentityRangeError(f"{name} does not apply to family {fam.tag}")
    variants = builder(fam, m, n)
    worst_res, worst_scale, passed = 0.0, 0.0, True
    printed_res = printed_passed = None
    for label, lhs, rhs in variants:
        res, scale = identity_residual(lhs, rhs)
        if label == "printed":
            printed_res, printed_passed = float(res), bool(tol.passes(res, scale))
        else:
            if res > worst_res or res != res:  # a NaN residual is the worst
                worst_res, worst_scale = res, scale
            passed = bool(passed and tol.passes(res, scale))
    known = name in KNOWN_DISCREPANCIES and printed_passed is False
    note = KNOWN_DISCREPANCIES.get(name, "") if known else ""
    return IdentityReport(
        name, fam.tag, m, n, worst_res, worst_scale, passed,
        printed_res, printed_passed, known, note,
    )


def sweep(fam, names=None, max_mn=6, tol=None):
    """Run identities over all index pairs m, n <= max_mn; out-of-range
    pairs are skipped, but a name that is not an identity of the family
    raises IdentityRangeError before any work starts.  Returns the list of
    reports."""
    available = identity_ids_for(fam)
    names = available if names is None else names
    foreign = [name for name in names if name not in available]
    if foreign:
        raise IdentityRangeError(f"unknown identity ids for family {fam.tag}: {', '.join(foreign)}")
    if max_mn < 0:
        raise ValueError(f"max_mn must be nonnegative, got {max_mn}")
    reports = []
    for name in names:
        for m in range(max_mn + 1):
            for n in range(max_mn + 1):
                try:
                    reports.append(check_identity(fam, name, m, n, tol))
                except IdentityRangeError:
                    continue
    return reports


# ---------------------------------------------------------------------------
# operational representation, connections, generating functions, solver
# ---------------------------------------------------------------------------


def operational_Z(m, n, beta):
    """Z table via the exponential-of-cross-derivatives representation:
    ((-1)^n / n!) z1^(-beta) exp(-d1 d2) z1^(beta+m) z2^n, with the
    non-integer z1 exponents handled as falling-factorial ladders."""
    if m < n:
        return operational_Z(n, m, beta).swap_vars()
    terms = {}
    for i in range(n + 1):
        coeff = (
            (-1.0) ** (n + i)
            / (math.factorial(n) * math.factorial(i))
            * falling(beta + m, i)
            * falling(n, i)
        )
        terms[(m - i, n - i)] = coeff
    return BivariatePoly(terms)


def connection_Z(m, n, beta, gamma):
    """Connection coefficients lambda_j with
    Z^(beta)_{m,n} = sum_j lambda_j Z^(gamma)_{m-j,n-j}; returns the vector
    and the coefficient-table residual of the reconstruction."""
    if m < n:
        raise ValueError("connection stated for m >= n")
    coeffs = [pochhammer(beta - gamma, j) / math.factorial(j) for j in range(n + 1)]
    rhs = BivariatePoly.zero()
    for j in range(n + 1):
        if m - j < 0 or n - j < 0:
            break
        rhs = rhs + coeffs[j] * construct(Z(gamma), m - j, n - j)
    res, scale = identity_residual(construct(Z(beta), m, n), rhs)
    return np.array(coeffs), res, scale


GENFUNS = ("Z_EXP", "Z_PLAIN", "M_EXP", "M_PLAIN", "M_DOUBLE")


def genfun_check(fam, which, u, v, z1, z2, N=30):
    """Residual of a truncated double generating-function sum against its
    closed form, plus the largest term of the first omitted shell as a tail
    estimate.  Returns (residual, tail_estimate).  The form's prefix, Z_ or
    M_, must be the family's tag; another family raises ValueError.

    u, v, z1, z2 may be scalars or arrays of one shape; the results have
    that shape.  The sum runs one harmonic index a at a time: with
    s_a = sum_{k <= N-a} (uv)^k phi_k(z1 z2; a) from radial.phi_rows, the
    members f_{a+k,k} = z1^a phi_k add (u z1)^a s_a (divided by a! for the
    EXP forms), and for M_DOUBLE the members f_{k,a+k} = z2^a phi_k add
    (v z2)^a s_a for a >= 1.  The series is summed in the same order for
    any shape of the points.  The tail estimate is the largest |term| with
    a + k = N + 1 under the same weights, each of M_DOUBLE's two members
    counted as its own term.
    """
    if which not in GENFUNS or which.split("_")[0] != fam.tag:
        raise ValueError(f"no generating function {which!r} for family {fam.tag}")
    if N < 0:
        raise ValueError("need N >= 0 terms")
    u, v, z1, z2 = (np.asarray(t, dtype=float) for t in (u, v, z1, z2))
    uv = u * v
    if np.any(np.abs(uv) >= 1.0):
        raise ValueError("need |uv| < 1")
    rad = radial_of(fam)
    x = z1.astype(np.longdouble) * z2
    uv_pow = uv ** np.arange(N + 2).reshape((-1,) + (1,) * uv.ndim)
    total = np.zeros(x.shape, dtype=np.longdouble)
    tail = np.zeros(x.shape)
    for a in range(N + 2):
        # rows up to k = N + 1 - a: the last one lies in the omitted shell
        rows = radial.phi_rows(rad, a, N + 1 - a)(x)
        terms = uv_pow[: N + 2 - a] * rows
        weight = (u * z1) ** a
        # the tail's weights are powers in longdouble, whose scalar and
        # array loops round alike, so the estimate does not depend on shape
        size = np.abs(u * z1).astype(np.longdouble) ** a
        if which in ("Z_EXP", "M_EXP"):
            weight = weight / math.factorial(a)
            size = size / math.factorial(a)
        if which == "M_DOUBLE" and a > 0:
            size = np.maximum(size, np.abs(v * z2).astype(np.longdouble) ** a)
            weight = weight + (v * z2) ** a
        tail = np.maximum(tail, (size * np.abs(terms[-1])).astype(float))
        if a <= N:
            # a running sum adds in k order for any shape of the points
            s_a = np.cumsum(terms[:-1], axis=0)[-1]
            total += weight * s_a
    if which in ("Z_EXP", "Z_PLAIN"):
        b = fam.beta
        if which == "Z_EXP":
            closed = (1.0 - uv) ** (-b - 1.0) * np.exp((u * z1 - z1 * z2 * uv) / (1.0 - uv))
        else:
            closed = np.exp(-z1 * z2 * uv / (1.0 - uv)) / (
                (1.0 - uv) ** b * (1.0 - z1 * u - uv)
            )
    else:
        b, g = fam.beta, fam.gamma
        rho = np.sqrt(1.0 - 2.0 * uv * (1.0 - 2.0 * z1 * z2) + uv ** 2)
        if np.any(np.abs(1.0 - uv + rho) < 1e-8):
            raise ValueError("degenerate generating-function point")
        pref = 2.0 ** (b + g) * (1.0 + uv + rho) ** (-b)
        if which == "M_DOUBLE":
            closed = (
                pref
                * (1.0 - uv + rho) ** (-g)
                / rho
                * (
                    1.0 / (1.0 - 2.0 * z1 * u / (1.0 + rho - uv))
                    + 1.0 / (1.0 - 2.0 * v * z2 / (1.0 + rho - uv))
                    - 1.0
                )
            )
        elif which == "M_EXP":
            closed = (
                pref
                * (1.0 - uv + rho) ** (-g)
                / rho
                * np.exp(2.0 * z1 * u / (1.0 - uv + rho))
            )
        else:
            closed = (
                pref
                * (1.0 - uv + rho) ** (1.0 - g)
                / (rho * (1.0 - uv - 2.0 * u * z1 + rho))
            )
    residual = np.abs(total - closed).astype(float)
    if residual.ndim == 0:
        return float(residual), float(tail)
    return residual, tail


def convolution_Z_check(m, n, beta, gamma, pts, printed=False):
    """Max pointwise residual of the convolution identity splitting the
    degree-(m,n) member at parameter beta+gamma+1 into a double sum of
    parameter-beta times parameter-gamma products.

    The derived form (default) treats each member as
    z1^(m-n) phi_n(x) with the radial argument x free, adds first
    arguments and radial arguments separately, and carries 1/(m-n)! on
    the left side; it holds for all sample tuples (z1, z2, z3, z4) with
    x = z1 z2 and y = z3 z4.  With ``printed=True`` the published
    variant is evaluated instead: both sides taken at the literal point
    (z1+z3, z2+z4) with no factorial, which only agrees on the surface
    z1 z4 + z2 z3 = 0 (the radial arguments fail to add elsewhere) and
    is reported as a known discrepancy.  Both forms take their values from
    the radial rows, over all points at once.
    """
    if m < n:
        raise ValueError("stated for m >= n")
    z1, z2, z3, z4 = np.asarray(pts, dtype=float).reshape(-1, 4).T
    if printed:
        lhs = values(Z(beta + gamma + 1.0), m, n, z1 + z3, z2 + z4)
        rhs = 0.0
        for j in range(m + 1):
            for k in range(min(j, n) + 1):
                if m - n - j + k < 0:
                    continue
                rhs = rhs + (
                    values(Z(beta), j, k, z1, z2)
                    * values(Z(gamma), m - j, n - k, z3, z4)
                    / (math.factorial(j - k) * math.factorial(m - n - j + k))
                )
    else:
        # the pair (j, k) of the double sum is the harmonic index a = j - k
        # on the left and d - a on the right, radial degrees k and n - k
        x, y = z1 * z2, z3 * z4
        d = m - n
        lhs = (
            (z1 + z3) ** d
            * radial.phi_rows(radial.laguerre(beta + gamma + 1.0), d, n)(x + y)[n]
            / math.factorial(d)
        )
        rhs = 0.0
        for a in range(d + 1):
            left = radial.phi_rows(radial.laguerre(beta), a, n)(x)
            right = radial.phi_rows(radial.laguerre(gamma), d - a, n)(y)
            rhs = rhs + (z1 ** a * z3 ** (d - a) * (left * right[::-1]).sum(axis=0)
                         / (math.factorial(a) * math.factorial(d - a)))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def pde_series_solution(beta, n, boundary_j0=None, boundary_0k=None, cutoff=40):
    """Power-series solution of the cross-derivative eigenvalue equation by
    the two-index recursion a_{j,k} = (k-1-n) a_{j-1,k-1} / (k (beta+j)).

    ``boundary_j0`` maps j -> a_{j,0}; ``boundary_0k`` maps k -> a_{0,k}
    (finitely supported; the overlap entry a_{0,0} may appear in either).
    The recursion terminates each diagonal ray at k = n+1, so the result is
    a polynomial.
    """
    boundary_j0 = dict(boundary_j0 or {})
    boundary_0k = dict(boundary_0k or {})
    a = {}
    for j, val in boundary_j0.items():
        a[(j, 0)] = a.get((j, 0), 0.0) + val
    for k, val in boundary_0k.items():
        if k == 0:
            a[(0, 0)] = a.get((0, 0), 0.0) + val
        else:
            a[(0, k)] = a.get((0, k), 0.0) + val
    frontier = dict(a)
    while frontier:
        new = {}
        for (j, k), val in frontier.items():
            jj, kk = j + 1, k + 1
            if jj + kk > cutoff:
                continue
            if beta + jj == 0:
                raise ValueError("singular parameter: beta + j vanished")
            step = (kk - 1.0 - n) / (kk * (beta + jj)) * val
            if step != 0.0:
                new[(jj, kk)] = new.get((jj, kk), 0.0) + step
        for key, val in new.items():
            a[key] = a.get(key, 0.0) + val
        frontier = new
    return BivariatePoly(a)


def pde_closed_form(beta, n, p=None, r=None):
    """Closed-form solutions matched by pde_series_solution: for boundary
    a_{p,0} = 1 the z1^p Laguerre branch; for boundary a_{0,r} = 1 the
    z2^r hypergeometric branch."""
    if p is not None:
        rad = radial.laguerre(0.0)
        coeffs = radial.radial_coeffs(rad, n, beta + p).tolist()
        scale = math.factorial(n) / pochhammer(beta + p + 1, n)
        return BivariatePoly(
            {(p + n - j, n - j): scale * coeffs[j] for j in range(n + 1)}
        )
    if r is not None:
        terms = {}
        term = 1.0
        i = 0
        while True:
            terms[(i, r + i)] = term
            nxt = (
                term
                * (r - n + i)
                * (1.0 + i)
                / ((r + 1.0 + i) * (beta + 1.0 + i) * (i + 1.0))
            )
            if nxt == 0.0:
                break
            term = nxt
            i += 1
        return BivariatePoly(terms)
    raise ValueError("give either p or r")


def pde_operator_residual(beta, n, f):
    """Coefficient residual of the cleared eigenvalue equation
    z1 d1 d2 f + (beta - z1 z2) d2 f + n z1 f = 0: the larger of the two
    parts pde_interior_residual reports."""
    return max(pde_interior_residual(beta, n, f))


def pde_interior_residual(beta, n, f):
    """Residual of the cleared eigenvalue equation split into the rows the
    two-index recursion determines (z1-exponent >= 1) and the z1^0 boundary
    row.

    The boundary row equals beta * k * a_{0,k} on each pure z2^k term, so a
    series seeded from a nonzero a_{0,r} with r >= 1 satisfies every
    interior row but leaves exactly beta * r on the boundary row; the
    closed-form branch catalog keeps that branch because the recursion
    admits it, and this function makes the leftover visible instead of
    folding it into a single max.  Returns (interior, boundary).
    """
    lhs = (
        BivariatePoly.monomial(1, 0) * f.diff_partial(1).diff_partial(2)
        + (beta - BivariatePoly.monomial(1, 1)) * f.diff_partial(2)
        + n * BivariatePoly.monomial(1, 0) * f
    )
    interior = 0.0
    boundary = 0.0
    for (j, k), v in lhs.terms.items():
        if j >= 1:
            interior = max(interior, abs(v))
        else:
            boundary = max(boundary, abs(v))
    return interior, boundary


def q_degeneration_residuals(beta, m, n, qs=(0.9, 0.99, 0.999)):
    """q -> 1 degeneration: after the z2 -> (1-q) z2 scaling, the ZQ tables
    and the scaled first recurrence approach their classical counterparts.

    Returns a list of (q, table_residual, identity_residual) whose entries
    decay like O(1-q).
    """
    zb = Z(beta)
    out = []
    for q in qs:
        fam = ZQ(beta, q)
        scaled = construct(fam, m, n).dilate(2, 1.0 - q)
        ref = construct(zb, m, n)
        res_t, scale_t = identity_residual(scaled, ref)
        # scaled q-recurrence evaluated on the scaled q-tables: as q -> 1 it
        # becomes z2 Z_{m+1,n} = -(n+1) Z_{m+1,n+1} + (beta+m+1) Z_{m,n}
        s_up = construct(fam, m + 1, n).dilate(2, 1.0 - q)
        s_upup = construct(fam, m + 1, n + 1).dilate(2, 1.0 - q)
        lhs = BivariatePoly.monomial(0, 1) * s_up
        rhs = -(n + 1.0) * s_upup + (beta + m + 1.0) * scaled
        res_i, scale_i = identity_residual(lhs, rhs)
        out.append((q, res_t / max(scale_t, 1.0), res_i / max(scale_i, 1.0)))
    return out

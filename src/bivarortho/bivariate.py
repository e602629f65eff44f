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

The catalog runs on diagonal batches (polycore.DiagTables): a builder
(fam, P, m, n) takes the index pairs of its domain as int arrays m, n and
the batch P that gathers its tables, and forms both sides of every
variant for all of them at once, each table gathered from one
coefficient cube per family (radial.coeff_rows, bit for bit construct's).  A
branch on the indices is a mask or a gather, and per-pair scalars are
arrays; q-powers go through Python's float power entry by entry, so every
entry is the same float operation the per-pair formulas take.  ``sweep``
runs each builder once per family over its domain pairs; ``check_identity``
reads one row of the verdicts over the domain pairs of the TILE x TILE
block holding (m, n), kept in a small LRU cache per tolerance.  Both gate
through one routine, _verdicts.
``construct`` (dict tables) serves the CLI's coefficient rows, the
connection and q-degeneration checks and the series solver.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qcalc, radial
from .polycore import BivariatePoly, DiagFactor, DiagTables, Tolerance, identity_residual, powers
from .qcalc import pochhammer

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
    """Bivariate family selector; unused parameters are ignored.

    The hash is taken once, when the id is made, and kept outside the
    fields.  A str hash differs between processes, so an unpickled or
    copied id is made again through the constructor (``__reduce__``)."""

    tag: str
    beta: float = 0.0
    gamma: float = 0.0
    q: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.tag, self.beta, self.gamma, self.q, self.c)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.tag, self.beta, self.gamma, self.q, self.c)

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


# the ranges where the radial measures exist, each with the need it states;
# the rest, infinities and NaNs included, are rejected before any work starts
PARAM_RANGES = {
    "beta": (lambda v: -1 < v < math.inf, "finite {} > -1"),
    "gamma": (lambda v: -1 < v < math.inf, "finite {} > -1"),
    "q": (lambda v: 0 < v < 1, "0 < {} < 1"),
    "c": (lambda v: 0 < v < math.inf, "finite {} > 0"),
}


def check_params(fam, prefix=""):
    """Raise ValueError naming the first parameter the family reads
    (FAMILIES) that lies outside its range of PARAM_RANGES, as ``prefix``
    plus its name: its measure does not exist."""
    if fam.tag not in FAMILIES:
        raise ValueError(f"unknown family tag {fam.tag!r}")
    for name in FAMILIES[fam.tag][1]:
        valid, need = PARAM_RANGES[name]
        value = getattr(fam, name)
        if not valid(value):
            raise ValueError(f"family {fam.tag} needs {need.format(prefix + name)}, got {value}")


@lru_cache(maxsize=None)
def radial_of(fam):
    """Radial family underlying a bivariate family, memoized (FamilyId and
    the radial families are frozen, and few)."""
    if fam.tag not in FAMILIES:
        raise ValueError(f"unknown family tag {fam.tag!r}")
    make, names = FAMILIES[fam.tag]
    return make(*(getattr(fam, name) for name in names))


def construct(fam, m, n):
    """Coefficient table of f_{m,n}: z1^(m-n) phi_n(z1 z2; m-n) for m >= n,
    with the roles of z1 and z2 swapped when m < n."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if m < n:
        return construct(fam, n, m).swap_vars()
    coeffs = radial.radial_coeffs(radial_of(fam), n, m - n).tolist()
    scale = float(harmonic_scale(fam, n)[n])
    return BivariatePoly({(m - j, n - j): scale * coeffs[j] for j in range(n + 1)})


def harmonic_scale(fam, nmax):
    """Factors of the radial rows phi_0..phi_nmax of a family in
    np.longdouble, which the Gram's norms square past the float range: H
    rescales phi_k by (-1)^k k!, rounded from its top 128 bits, the last
    one sticky (numpy's conversion of the int refuses 4300 digits), so that
    in float it reads float(k!); inf from k = 1755.  The others: 1."""
    if fam.tag != "H":
        return np.ones(nmax + 1, np.longdouble)
    facts = [math.factorial(k) for k in range(nmax + 1)]
    shifts = [max(f.bit_length() - 128, 0) for f in facts]
    heads = [(-1) ** k * (f >> s | (f >> s << s != f))
             for k, (f, s) in enumerate(zip(facts, shifts))]
    with np.errstate(over="ignore"):
        return np.ldexp(np.array(heads, np.longdouble), np.array(shifts))


def harmonic_ratios(fam, nmax):
    """The ratios s_k / s_(k-1), k = 1..nmax, of harmonic_scale, after
    s_0 = 1, in np.longdouble: -k for H, 1 for the others."""
    k = np.arange(nmax + 1, dtype=np.longdouble)
    return np.where(k > 0, -k, 1.0) if fam.tag == "H" else np.ones_like(k)


def values(fam, m, n, z1, z2):
    """f_{m,n}(z1, z2) at points (scalars or arrays of one shape) from the
    radial recurrence: z1^(m-n) phi_n(z1 z2; m-n) for m >= n and
    z2^(n-m) phi_m(z1 z2; n-m) otherwise, formed in np.longdouble by one
    radial.monic_values walk with the ratios of radial.lead_ratios times
    harmonic_ratios, so that H's (-1)^k k! and the leading coefficients
    never leave the range as a product: ZQ(0.5; 0.05) reads the exact
    1.0422498995921048 at (m, n) = (300, 300) and (z1, z2) = (0.3, 0.2).
    The value of construct(fam, m, n), without the cancellation of summing
    the power basis; where the value itself passes the float range it
    reads inf or NaN, with no warning."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    z1, z2 = (np.asarray(z, dtype=np.longdouble) for z in (z1, z2))
    a, k = abs(m - n), min(m, n)
    rad = radial_of(fam)
    ratios = radial.lead_ratios(rad, a, k) * harmonic_ratios(fam, k)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = radial.monic_values(*radial.recurrence(rad, a, k + 1), z1 * z2, ratios=ratios)
        return ((z1 if m >= n else z2) ** a * rows[k]).astype(float)


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------


# shared factor tables: z1, z2, x = z1 z2 and 1
_Z1 = DiagFactor(1.0, shift=(1, 0))
_Z2 = DiagFactor(1.0, shift=(0, 1))
_X = DiagFactor(beta=1.0)
_ONE = DiagFactor(1.0)


class IdentityRangeError(ValueError):
    """Index outside an identity's stated range (not a check failure)."""


@dataclass(slots=True)
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
    printed_scale: float = None
    known_discrepancy: bool = False
    note: str = ""


# a family's cube and its raised and lowered neighbours' serve one sweep
@lru_cache(maxsize=4)
def _cube(fam, mlo, mhi, nlo, nhi):
    """Coefficient cube of a family over the index box [mlo, mhi] x
    [nlo, nhi], and the smallest harmonic index a0 of the box: entry
    [a - a0, k, d] is coefficient d of f_{m,n} with a = |m - n| and
    k = min(m, n), bit for bit construct's (one radial.coeff_rows call
    over the box's (k, a) pairs, H's rows times its harmonic scale).  The
    k = -1 slot (the last) is zero, so a negative index gathers the zero
    table; a table whose coefficients overflow reads NaN."""
    needed = {(abs(x - y), min(x, y)) for x in range(mlo, mhi + 1) for y in range(nlo, nhi + 1)}
    a, k = (np.array(v) for v in zip(*needed))
    a0, kmax = int(a.min()), int(k.max())
    cube = np.zeros((int(a.max()) - a0 + 3, kmax + 2, kmax + 1))
    rows = radial.coeff_rows(radial_of(fam), k, a)
    with np.errstate(over="ignore"):  # H's float scale past k = 170, where rows read NaN
        rows *= harmonic_scale(fam, kmax).astype(float)[k, None]
    cube[a - a0, k] = rows
    cube.setflags(write=False)
    return cube, a0


class _Batch:
    """The index pairs (m, n) of one batched check, as int arrays, and the
    tables a builder reads there, all gathered from the coefficient cubes
    of one index box."""

    __slots__ = ("fam", "m", "n", "box")

    def __init__(self, fam, m, n, box):
        self.fam, self.m, self.n, self.box = fam, m, n, box

    def f(self, di, dj, fam=None):
        """The tables f_{m+di, n+dj} of ``fam`` (default: the batch's), a
        zero row where an index is negative."""
        cube, a0 = _cube(self.fam if fam is None else fam, *self.box)
        m, n = self.m + di, self.n + dj
        return DiagTables(cube[np.abs(m - n) - a0, np.minimum(m, n)], self.m, self.n, di, dj)

    def coeff(self, k, a, j=0):
        """Coefficient j of f's radial row phi_k(x; a) per pair, as the cube
        holds it (times H's scale; 0.0 where k = -1)."""
        cube, a0 = _cube(self.fam, *self.box)
        return cube[a - a0, k, j]

    def recurrence(self, a, n):
        """The monic recurrence coefficients A_n(a), B_n(a) per pair, each
        radial.recurrence's entry rounded to float."""
        alphas = np.unique(a)
        A, B = radial.recurrence(radial_of(self.fam), alphas, int(n.max()) + 1)
        row = np.searchsorted(alphas, a)
        return A[row, n].astype(float), B[row, n].astype(float)


# --- generic construction identities ---------------------------------------


def _gen_3trr(fam, P, m, n):
    a = m - n
    A = P.coeff(n, a + 1) / P.coeff(n + 1, a)
    B = -A * P.coeff(n + 1, a, n + 1) / P.coeff(n, a, n)
    lhs = _Z2 * P.f(1, 0)
    rhs = A * P.f(1, 1) + B * P.f(0, 0)
    return [("derived", lhs, rhs)]


def _gen_uv(fam, P, m, n):
    # phi_n(x; a) - v phi_n(x; a+1) = u phi_{n-1}(x; a+1), the a-raising
    # relation, with v and u read off the cube
    a = m - n
    v = P.coeff(n, a) / P.coeff(n, a + 1)
    u = np.where(n > 0, (P.coeff(n, a + 1) * P.coeff(n, a, 1) - P.coeff(n, a) * P.coeff(n, a + 1, 1))
                 / (P.coeff(n - 1, a + 1) * P.coeff(n, a + 1)), 0.0)
    lhs = _Z1 * P.f(0, 0) - v * P.f(1, 0)
    rhs = u * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _gen_diag(fam, P, m, n):
    a = m - n
    A, B = P.recurrence(a, n)
    lhs = (_X - A) * P.f(0, 0)
    c0 = P.coeff(n, a)
    lower = np.where(n > 0, B * c0 / P.coeff(n - 1, a), 0.0)
    rhs = c0 / P.coeff(n + 1, a) * P.f(1, 1) + lower * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _gen_eigen(fam, P, m, n):
    f = P.f(0, 0)
    lhs = f.diff_theta(1) - f.diff_theta(2)
    rhs = (m - n) * f
    return [("derived", lhs, rhs)]


def _gen_eigen_q(fam, P, m, n):
    q = fam.q
    f = P.f(0, 0)
    lhs = f.diff_qtheta(1, q) - powers(q, m - n) * f.diff_qtheta(2, q)
    rhs = (1.0 - powers(q, m - n)) / (1.0 - q) * f  # the q-number [m - n]_q
    return [("derived", lhs, rhs)]


def _raise_param(fam, P, m, n):
    """Parameter-raising: z1 times the raised-parameter table equals the
    index-raised table.  Z/ZQ/WALL raise beta; M raises gamma; MQ raises
    beta."""
    if fam.tag == "M":
        raised = fam.with_params(gamma=fam.gamma + 1)
    else:
        raised = fam.with_params(beta=fam.beta + 1)
    lhs = _Z1 * P.f(0, 0, raised)
    rhs = P.f(1, 0)
    return [("derived", lhs, rhs)]


# --- Z family ---------------------------------------------------------------


def _z_rr1(fam, P, m, n):
    lhs = _Z1 * P.f(0, 0)
    rhs = P.f(1, 0) - P.f(0, -1)
    return [("derived", lhs, rhs)]


def _z_rr2(fam, P, m, n):
    b = fam.beta
    lhs = _Z2 * P.f(1, 0)
    rhs = -(n + 1.0) * P.f(1, 1) + (b + m + 1.0) * P.f(0, 0)
    return [("derived", lhs, rhs)]


def _z_diag(fam, P, m, n):
    b = fam.beta
    lhs = (b + m + n + 1.0 - _X) * P.f(0, 0)
    rhs = (n + 1.0) * P.f(1, 1) + (m + b) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _z_ladder1(fam, P, m, n):
    lhs = P.f(0, 0).diff_theta(2)
    rhs = -_Z2 * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _z_ladder2(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = f.diff_theta(2)
    rhs = n * f - (b + m) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _z_ladder3(fam, P, m, n):
    f = P.f(0, 0)
    lhs = f.diff_theta(1)
    rhs = (m - n) * f - _Z2 * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _z_ladder4(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = f.diff_theta(1)
    rhs = m * f - (m + b) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _z_ladder6(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = n * f.diff_theta(1) - m * f.diff_theta(2)
    rhs = (m - n) * (m + b) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _z_diff_down(fam, P, m, n):
    f = P.f(0, 0)
    lhs = f.diff_partial(2) - _Z1 * f
    rhs = -P.f(1, 0)
    return [("derived", lhs, rhs)]


def _z_shift_up(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = f.diff_theta(1) + (b - _X) * f
    rhs = (n + 1.0) * _Z1 * P.f(0, 1)
    return [("derived", lhs, rhs)]


def _z_delta_w2(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = f.diff_theta(2) + (b - _X) * f
    rhs = b * f - _Z2 * P.f(1, 0)
    return [("derived", lhs, rhs)]


def _z_delta_w1(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = f.diff_theta(1) + (b - _X) * f
    rhs = (b + m - n) * f - _Z2 * P.f(1, 0)
    return [("derived", lhs, rhs)]


def _z_pde(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = (
        _Z1 * f.diff_partial(1).diff_partial(2)
        + (b - _X) * f.diff_partial(2)
        + n * _Z1 * f
    )
    return [("derived", lhs, None)]


def _z_ode(fam, P, m, n):
    b = fam.beta
    f = P.f(0, 0)
    lhs = (
        _Z2 * f.diff_partial(2).diff_partial(2)
        + (1.0 + b + m - n - _X) * f.diff_partial(2)
        + n * _Z1 * f
    )
    return [("derived", lhs, None)]


def _z_oprep(fam, P, m, n):
    """f_{m,n} against the exponential-of-cross-derivatives representation
    ((-1)^n / n!) z1^(-beta) exp(-d1 d2) z1^(beta+m) z2^n: coefficient i is
    (-1)^(n+i) / (n! i!) (beta + m)(beta + m - 1)...(beta + m - i + 1)
    n(n - 1)...(n - i + 1), each falling factorial one running product."""
    width = int(n.max()) + 1
    i = np.arange(width)
    sign = np.where((n[:, None] + i) % 2 == 0, 1.0, -1.0)
    fact = [math.factorial(k) for k in range(width)]
    denom = np.array([[float(fact[k] * fact[j]) for j in range(width)] for k in range(width)])
    fall_m = np.ones((len(m), width))
    fall_n = np.ones((len(m), width))
    x = fam.beta + m
    for k in range(width - 1):
        fall_m[:, k + 1] = fall_m[:, k] * (x - k)
        fall_n[:, k + 1] = fall_n[:, k] * (n - k)
    rhs = DiagTables(sign / denom[n] * fall_m * fall_n, m, n)
    return [("derived", P.f(0, 0), rhs)]


# --- M family ---------------------------------------------------------------


def _m_rr1(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    lhs = (b + g + m + n + 2.0) * _Z2 * P.f(1, 0)
    rhs = (g + m + 1.0) * P.f(0, 0) - (n + 1.0) * P.f(1, 1)
    return [("derived", lhs, rhs)]


def _m_rr2(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    lhs = (b + g + m + n + 1.0) * _Z1 * P.f(0, 0)
    rhs = (b + g + m + 1.0) * P.f(1, 0) - (b + n) * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _m_rr3(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    s = b + g + m + n
    an = (n + 1.0) * (b + g + m + 1.0) / ((s + 1.0) * (s + 2.0))
    bn = (g + m) * (b + n) / (s * (s + 1.0))
    cn = (n + 1.0) * (g + m + 1.0) / (s + 2.0) - n * (g + m) / s
    lhs = (cn - _X) * P.f(0, 0)
    rhs = an * P.f(1, 1) + bn * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _m_pde1(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    d2 = f.diff_theta(2)
    lhs = (
        (1.0 - _X) * d2.diff_theta(2)
        + ((m - n + g) - (b + g + m - n + 1.0) * _X) * d2
        + n * (b + g + m + 1.0) * _X * f
    )
    return [("derived", lhs, None)]


def _m_pde1b(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    lhs = (
        (1.0 - _X) * _Z2 * f.diff_partial(2).diff_partial(2)
        + (1.0 + m - n + g - (2.0 + g + b + m - n) * _X) * f.diff_partial(2)
        + n * (m + b + g + 1.0) * _Z1 * f
    )
    return [("derived", lhs, None)]


def _m_pde2(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    nu = (m - n).astype(float)
    # 1D data A = 1-x, B = nu+g - x(nu+b+g+1), C = x n (nu+b+g+n+1);
    # z1 substitution sends the Euler operator to delta_{z1} - nu
    A = 1.0 - _X
    B = (nu + g) - (nu + b + g + 1.0) * _X
    C = n * (nu + b + g + n + 1.0) * _X
    d1 = f.diff_theta(1)
    derived = A * d1.diff_theta(1) + (B - 2.0 * nu * A) * d1 + (
        nu * nu * A - nu * B + C
    ) * f
    # best-effort literal reading of the printed (garbled) display
    printed = (
        (1.0 - _X) * _Z1 * f.diff_partial(1).diff_partial(1)
        + (1.0 - m + n + g - (2.0 + g + b - m + n) * _X) * f.diff_partial(1)
        + m * (n + b + g + 1.0) * _Z2 * f
    )
    return [
        ("derived", derived, None),
        ("printed", printed, None),
    ]


def _m_ladder1(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    raised = fam.with_params(beta=b + 1)
    lhs = P.f(0, 0).diff_partial(2)
    derived = -(b + g + m + 1.0) * P.f(0, -1, raised)
    printed = -(b + g + m + 1.0) * P.f(0, 0, raised)
    return [("derived", lhs, derived), ("printed", lhs, printed)]


def _m_ladder2(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    raised = fam.with_params(beta=b + 1)
    lhs = f.diff_theta(2)
    rhs1 = n * f - (g + m) * P.f(-1, -1, raised)
    rhs2 = (b + g + m + 1.0) * (P.f(0, 0, raised) - f)
    return [("derived", lhs, rhs1), ("derived-b", lhs, rhs2)]


def _m_ladder3(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    raised = fam.with_params(beta=b + 1)
    lhs = f.diff_theta(1)
    rhs1 = m * f - (g + m) * P.f(-1, -1, raised)
    rhs2 = (b + g + m + 1.0) * P.f(0, 0, raised) - (b + g + n + 1.0) * f
    return [("derived", lhs, rhs1), ("derived-b", lhs, rhs2)]


def _m_ladder4(fam, P, m, n):
    b, g = fam.beta, fam.gamma
    f = P.f(0, 0)
    raised = fam.with_params(beta=b + 1)
    lhs = (b + g + m + 1.0) * f.diff_theta(1) - (b + g + n + 1.0) * f.diff_theta(2)
    rhs = (m - n) * (b + g + m + 1.0) * P.f(0, 0, raised)
    return [("derived", lhs, rhs)]


# --- ZQ family --------------------------------------------------------------


def _zq_rr1(fam, P, m, n):
    b, q = fam.beta, fam.q
    lhs = powers(q, m + 1 + b) * _Z2 * P.f(1, 0)
    rhs = -(1.0 - powers(q, n + 1)) * P.f(1, 1) + (
        1.0 - powers(q, m + b + 1)
    ) * P.f(0, 0)
    return [("derived", lhs, rhs)]


def _zq_rr2(fam, P, m, n):
    q = fam.q
    rhs = P.f(1, 0) - P.f(0, -1)
    derived_lhs = powers(q, n) * _Z1 * P.f(0, 0)
    printed_lhs = powers(q, n) * _Z1 * P.f(0, 1)
    return [("derived", derived_lhs, rhs), ("printed", printed_lhs, rhs)]


def _zq_diag(fam, P, m, n):
    b, q = fam.beta, fam.q
    coeff = 1.0 + q * (1.0 - powers(q, n) - powers(q, m + b))
    lhs = (coeff - powers(q, b + m + n + 1) * _X) * P.f(0, 0)
    rhs = (1.0 - powers(q, 1 + n)) * P.f(1, 1) + q * (
        1.0 - powers(q, b + m)
    ) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _zq_qde1(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    t2 = f.diff_qtheta(2, q)
    lhs = (
        (1.0 - q) ** 2 * (1.0 + q * _X) * t2.diff_qtheta(2, q)
        + (1.0 - q) * (powers(q, n - m - b) - 1.0 - (2.0 - powers(q, n)) * q * _X) * t2
    )
    rhs = -q * (1.0 - powers(q, n)) * _X * f
    return [("derived", lhs, rhs)]


def _zq_qde2(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    al = b + m - n
    nu = m - n
    derived_lhs = (_ONE + q * _X) * f.dilate(1, q * q) - powers(q, nu) * (
        (1.0 + powers(q, -al)) * _ONE + powers(q, n + 1) * _X
    ) * f.dilate(1, q)
    derived_rhs = -(powers(q, 2 * nu)) * powers(q, -al) * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 + q * _X) * t1.diff_qtheta(1, q)
        - (1.0 - q)
        * (1.0 - powers(q, b + m - n) + (2.0 - powers(q, b + m + 1)) * q * _X)
        * t1
    )
    printed_rhs = -q * (1.0 - powers(q, b + m)) * _X * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _zq_lad19(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    down = P.f(0, -1).dilate(1, q)
    lhs = powers(q, m - n) * f - f.dilate(1, q)
    rhs = -(powers(q, b + m - n)) * _Z2 * down
    return [("derived", lhs, rhs)]


def _zq_lad20(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    down = P.f(0, -1).dilate(1, q)
    lhs = f - f.dilate(2, q)
    rhs = -(q ** b) * _Z2 * down
    return [("derived", lhs, rhs)]


def _zq_lad22(fam, P, m, n):
    f = P.f(0, 0)
    q = fam.q
    lhs = f - (1.0 + _X) * f.dilate(2, q)
    rhs = -_Z2 * P.f(1, 0)
    return [("derived", lhs, rhs)]


def _zq_lad23(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = f - q ** b * (1.0 + _X) * f.dilate(1, q)
    rhs = (1.0 - powers(q, n + 1)) * _Z1 * P.f(0, 1)
    return [("derived", lhs, rhs)]


def _zq_lad24(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = f - powers(q, b + m - n) * (1.0 + _X) * f.dilate(2, q)
    rhs = (1.0 - powers(q, n + 1)) * _Z1 * P.f(0, 1)
    return [("derived", lhs, rhs)]


# --- WALL family ------------------------------------------------------------


def _wall_rr1(fam, P, m, n):
    b, q = fam.beta, fam.q
    lhs = _Z2 * P.f(1, 0)
    rhs = (
        powers(q, n)
        * (1.0 - powers(q, m - n + b + 1))
        * (P.f(0, 0) - P.f(1, 1))
    )
    return [("derived", lhs, rhs)]


def _wall_rr2(fam, P, m, n):
    b, q = fam.beta, fam.q
    lhs = (1.0 - powers(q, m - n + b + 1)) * _Z1 * P.f(0, 0)
    rhs = (1.0 - powers(q, m + b + 1)) * P.f(1, 0) - powers(q, m - n + b + 1) * (
        1.0 - powers(q, n)
    ) * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _wall_diag(fam, P, m, n):
    b, q = fam.beta, fam.q
    coeff = powers(q, n) + powers(q, m + b) * (1.0 - powers(q, n) - powers(q, n + 1))
    lhs = (coeff - _X) * P.f(0, 0)
    rhs = powers(q, n) * (1.0 - powers(q, m + b + 1)) * P.f(1, 1) + powers(
        q, m + b
    ) * (1.0 - powers(q, n)) * P.f(-1, -1)
    return [("derived", lhs, rhs)]


def _wall_qde1(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    t2 = f.diff_qtheta(2, q)
    lhs = (
        (1.0 - q) ** 2 * powers(q, b + m - 1) * t2.diff_qtheta(2, q)
        + (1.0 - q) * (powers(q, n - 1) - powers(q, b + m - 1) - _X) * t2
    )
    rhs = -(1.0 - powers(q, n)) * _X * f
    return [("derived", lhs, rhs)]


def _wall_qde2(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    nu = m - n
    derived_lhs = powers(q, b + m - 1) * f.dilate(1, q * q) - powers(q, nu) * (
        (powers(q, n - 1) + powers(q, b + m - 1)) * _ONE - _X
    ) * f.dilate(1, q)
    derived_rhs = -(powers(q, 2 * nu)) * powers(q, n - 1) * (_ONE - q * _X) * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * powers(q, n) * t1.diff_qtheta(1, q)
        - (1.0 - q) * (powers(q, n) - powers(q, b + m) + q * _X) * t1
    )
    printed_rhs = -q * (1.0 - powers(q, b + m)) * _X * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _wall_lad1(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = (1.0 - powers(q, b + m - n + 1)) * (f - powers(q, n - m) * f.dilate(1, q))
    rhs = -(powers(q, 1 - n)) * (1.0 - powers(q, n)) * _Z2 * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _wall_lad2(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = (1.0 - powers(q, b + m - n + 1)) * (f - f.dilate(2, q))
    rhs = -(powers(q, 1 - n)) * (1.0 - powers(q, n)) * _Z2 * P.f(0, -1)
    return [("derived", lhs, rhs)]


def _wall_lad20(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = q ** b * f - (1.0 - _X) * f.dilate(1, 1.0 / q)
    rhs = (
        -(1.0 - powers(q, b + m - n))
        * powers(q, n - m)
        * _Z1
        * P.f(0, 1)
    )
    return [("derived", lhs, rhs)]


def _wall_lad21(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = q ** b * f - powers(q, n - m) * (1.0 - _X) * f.dilate(2, 1.0 / q)
    rhs = (
        -(powers(q, n - m))
        * (1.0 - powers(q, b + m - n))
        * _Z1
        * P.f(0, 1)
    )
    return [("derived", lhs, rhs)]


def _wall_lad22(fam, P, m, n):
    b, q = fam.beta, fam.q
    f = P.f(0, 0)
    lhs = (1.0 - powers(q, b + m - n + 1)) * (
        q ** b * f - (1.0 - _X) * f.dilate(2, 1.0 / q)
    )
    z2up = _Z2 * P.f(1, 0)
    derived = (
        -(1.0 - q ** b) * (1.0 - powers(q, b + m - n + 1)) * f
        + powers(q, -n) * (1.0 - powers(q, b + m + 1)) * z2up
    )
    printed = (
        -(q ** (b - 1)) * (1.0 - q ** b) * (1.0 - powers(q, b + m - n + 1)) * f
        + powers(q, 2 * b - n) * (1.0 - powers(q, b + m + 1)) * z2up
    )
    return [("derived", lhs, derived), ("printed", lhs, printed)]


# --- MQ family --------------------------------------------------------------


def _mq_rr1(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    lhs = (1.0 - powers(q, b + g + m + n + 2)) * _Z2 * P.f(1, 0)
    rhs = (
        powers(q, n)
        * (1.0 - powers(q, b + m - n + 1))
        * (P.f(0, 0) - P.f(1, 1))
    )
    return [("derived", lhs, rhs)]


def _mq_rr2(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    den = (1.0 - powers(q, b + m - n + 1)) * (1.0 - powers(q, b + g + m + n + 1))
    lhs = den * _Z1 * P.f(0, 0)
    up = (1.0 - powers(q, b + m + 1)) * (1.0 - powers(q, b + g + m + 1)) * P.f(1, 0)
    down = powers(q, m - n + b + 1) * (1.0 - powers(q, n)) * (
        1.0 - powers(q, g + n)
    ) * P.f(0, -1)
    return [("derived", lhs, up - down), ("printed", lhs, up + down)]


def _mq_three_point(fam, m, n):
    """Radial three-point data (a, b, c) for the little-q-Jacobi factor at
    alpha = beta + m - n, as factors in x = z1 z2."""
    b, g, q = fam.beta, fam.gamma, fam.q
    al = b + m - n
    a = powers(q, al) * (_ONE - q ** (g + 2) * _X)
    bb = -((1.0 + powers(q, al)) * _ONE - (powers(q, 1 - n) + powers(q, n + al + g + 2)) * _X)
    c = _ONE - q * _X
    return a, bb, c


def _mq_qde1(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    f = P.f(0, 0)
    a, bb, c = _mq_three_point(fam, m, n)
    derived_lhs = a * f.dilate(2, q * q) + bb * f.dilate(2, q)
    derived_rhs = -c * f
    t2 = f.diff_qtheta(2, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 - q ** (g + 2) * _X) * t2.diff_qtheta(2, q)
        + (1.0 - q)
        * (
            powers(q, n - m - b)
            - 1.0
            - (powers(q, 1 - m - b) + q ** (g + 2) * (2.0 - powers(q, n))) * _X
        )
        * t2
    )
    printed_rhs = (
        1.0 + (powers(q, n + 1 - m - b) - powers(q, 1 - m - b) - powers(q, g + n + 2)) * _X
    ) * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _mq_qde2(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    f = P.f(0, 0)
    a, bb, c = _mq_three_point(fam, m, n)
    nu = m - n
    derived_lhs = a * f.dilate(1, q * q) + powers(q, nu) * bb * f.dilate(1, q)
    derived_rhs = -(powers(q, 2 * nu)) * c * f
    t1 = f.diff_qtheta(1, q)
    printed_lhs = (
        (1.0 - q) ** 2 * (1.0 - q ** (g + 2) * _X) * t1.diff_qtheta(1, q)
        + (1.0 - q)
        * (
            (2.0 * q ** (g + 2) - powers(q, 1 - n) - powers(q, m + b + g + 2)) * _X
            + (powers(q, m - n + b) - 1.0)
        )
        * t1
    )
    printed_rhs = -(
        (
            powers(q, 1 - n)
            - powers(q, 1 + m - n + b)
            + q ** (g + 2) * (powers(q, m + b) + powers(q, 2 * (m - n + b)) - 1.0)
        )
        * _X
        - powers(q, 2 * (m - n + b)) * _ONE
    ) * f
    return [
        ("derived", derived_lhs, derived_rhs),
        ("printed", printed_lhs, printed_rhs),
    ]


def _mq_ladder1(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    f = P.f(0, 0)
    raised = fam.with_params(gamma=g + 1)
    lhs = f - f.dilate(2, q)
    down = P.f(0, -1, raised)
    derived = (
        -(powers(q, 1 - n))
        * (1.0 - powers(q, n))
        * (1.0 - powers(q, b + g + m + 1))
        / (1.0 - powers(q, b + m - n + 1))
    ) * _Z2 * down
    printed = (
        -(powers(q, 1 - n))
        * (1.0 - powers(q, n))
        * (1.0 - powers(q, m + b + g - 1))
        / (1.0 - powers(q, m - n + b))
    ) * _Z2 * down
    # the printed form is left out where its denominator vanishes
    stated = np.abs(1.0 - powers(q, m - n + b)) > 1e-12
    return [("derived", lhs, derived), ("printed", lhs, printed, stated)]


def _mq_ladder2(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    f = P.f(0, 0)
    lowered = fam.with_params(gamma=g - 1)
    lhs = q ** b * (1.0 - q ** g * _X) * f - (1.0 - _X) * f.dilate(1, 1.0 / q)
    z1low = _Z1 * P.f(0, 1, lowered)
    derived = -(1.0 - powers(q, m - n + b)) * powers(q, n - m) * z1low
    printed = -(1.0 - powers(q, m - n + b)) * powers(q, n - m - 1) * z1low
    return [("derived", lhs, derived), ("printed", lhs, printed)]


def _mq_ladder3(fam, P, m, n):
    b, g, q = fam.beta, fam.gamma, fam.q
    f = P.f(0, 0)
    lowered = fam.with_params(gamma=g - 1)
    lhs = q ** b * (1.0 - q ** g * _X) * f - powers(q, n - m) * (1.0 - _X) * f.dilate(
        2, 1.0 / q
    )
    rhs = (
        -(powers(q, n - m))
        * (1.0 - powers(q, m - n + b))
        * _Z1
        * P.f(0, 1, lowered)
    )
    return [("derived", lhs, rhs)]

# --- registry ---------------------------------------------------------------

_ALL = ("Z", "H", "M", "ZQ", "WALL", "MQ")
_NOT_H = ("Z", "M", "ZQ", "WALL", "MQ")
_QTAGS = ("ZQ", "WALL", "MQ")

# index domains (min_gap, min_n): the pairs with m - n >= min_gap and
# n >= min_n; None states an identity at every pair
_WEDGE = (0, 0)  # m >= n
_INSIDE = (1, 0)  # m > n: the identity raises n, so it holds strictly inside the wedge
_LOWER = (0, 1)  # m >= n >= 1: the identity lowers n

# name: (family tags, builder, index domain)
IDENTITIES = {
    "GEN_3TRR": (_NOT_H, _gen_3trr, _WEDGE),
    # one relation under two names: sweep checks _gen_uv once per pair and
    # reports it under both (as Z_LADDER5 and GEN_EIGEN share _gen_eigen)
    "GEN_REC2": (_NOT_H, _gen_uv, _WEDGE),
    "GEN_UV": (_NOT_H, _gen_uv, _WEDGE),
    "GEN_DIAG": (_NOT_H, _gen_diag, _WEDGE),
    "GEN_EIGEN": (_ALL, _gen_eigen, None),
    "GEN_EIGEN_Q": (_QTAGS, _gen_eigen_q, None),
    "RAISE": (_NOT_H, _raise_param, _WEDGE),
    "Z_RR1": (("Z",), _z_rr1, _WEDGE),
    "Z_RR2": (("Z",), _z_rr2, _WEDGE),
    "Z_DIAG": (("Z",), _z_diag, _LOWER),
    "Z_LADDER1": (("Z",), _z_ladder1, _WEDGE),
    "Z_LADDER2": (("Z",), _z_ladder2, _WEDGE),
    "Z_LADDER3": (("Z",), _z_ladder3, _WEDGE),
    "Z_LADDER4": (("Z",), _z_ladder4, _WEDGE),
    "Z_LADDER5": (("Z",), _gen_eigen, None),
    "Z_LADDER6": (("Z",), _z_ladder6, _LOWER),
    "Z_DIFF_DOWN": (("Z",), _z_diff_down, _WEDGE),
    "Z_SHIFT_UP": (("Z",), _z_shift_up, _INSIDE),
    "Z_DELTA_W1": (("Z",), _z_delta_w1, _WEDGE),
    "Z_DELTA_W2": (("Z",), _z_delta_w2, _WEDGE),
    "Z_PDE": (("Z",), _z_pde, _WEDGE),
    "Z_ODE": (("Z",), _z_ode, _WEDGE),
    "Z_OPREP": (("Z",), _z_oprep, _WEDGE),
    "M_RR1": (("M",), _m_rr1, _WEDGE),
    "M_RR2": (("M",), _m_rr2, _WEDGE),
    "M_RR3": (("M",), _m_rr3, _LOWER),
    "M_PDE1": (("M",), _m_pde1, _WEDGE),
    "M_PDE1B": (("M",), _m_pde1b, _WEDGE),
    "M_PDE2": (("M",), _m_pde2, _WEDGE),
    "M_LADDER1": (("M",), _m_ladder1, _LOWER),
    "M_LADDER2": (("M",), _m_ladder2, _WEDGE),
    "M_LADDER3": (("M",), _m_ladder3, _WEDGE),
    "M_LADDER4": (("M",), _m_ladder4, _WEDGE),
    "ZQ_RR1": (("ZQ",), _zq_rr1, _WEDGE),
    "ZQ_RR2": (("ZQ",), _zq_rr2, _LOWER),
    "ZQ_DIAG": (("ZQ",), _zq_diag, _LOWER),
    "ZQ_QDE1": (("ZQ",), _zq_qde1, _WEDGE),
    "ZQ_QDE2": (("ZQ",), _zq_qde2, _WEDGE),
    "ZQ_LADDER19": (("ZQ",), _zq_lad19, _WEDGE),
    "ZQ_LADDER20": (("ZQ",), _zq_lad20, _WEDGE),
    "ZQ_LADDER22": (("ZQ",), _zq_lad22, _WEDGE),
    "ZQ_LADDER23": (("ZQ",), _zq_lad23, _INSIDE),
    "ZQ_LADDER24": (("ZQ",), _zq_lad24, _INSIDE),
    "WALL_RR1": (("WALL",), _wall_rr1, _WEDGE),
    "WALL_RR2": (("WALL",), _wall_rr2, _WEDGE),
    "WALL_DIAG": (("WALL",), _wall_diag, _LOWER),
    "WALL_QDE1": (("WALL",), _wall_qde1, _WEDGE),
    "WALL_QDE2": (("WALL",), _wall_qde2, _WEDGE),
    "WALL_LADDER1": (("WALL",), _wall_lad1, _WEDGE),
    "WALL_LADDER2": (("WALL",), _wall_lad2, _WEDGE),
    "WALL_LADDER20": (("WALL",), _wall_lad20, _INSIDE),
    "WALL_LADDER21": (("WALL",), _wall_lad21, _INSIDE),
    "WALL_LADDER22": (("WALL",), _wall_lad22, _WEDGE),
    "MQ_RR1": (("MQ",), _mq_rr1, _WEDGE),
    "MQ_RR2": (("MQ",), _mq_rr2, _WEDGE),
    "MQ_QDE1": (("MQ",), _mq_qde1, _WEDGE),
    "MQ_QDE2": (("MQ",), _mq_qde2, _WEDGE),
    "MQ_LADDER1": (("MQ",), _mq_ladder1, _LOWER),
    "MQ_LADDER2": (("MQ",), _mq_ladder2, _INSIDE),
    "MQ_LADDER3": (("MQ",), _mq_ladder3, _INSIDE),
}


def identity_ids_for(fam):
    """Identity names applicable to a family, in registry order."""
    return [name for name, (tags, _, _) in IDENTITIES.items() if fam.tag in tags]


def _in_domain(domain, m, n):
    """Whether the pairs (m, n) lie in an index domain: a bool for ints, a
    mask for int arrays."""
    gap, low = (-math.inf, -math.inf) if domain is None else domain
    return (m - n >= gap) & (n >= low)


def _residuals(fam, builder, m, n, box):
    """(derived, printed) of one builder run over the pairs (m, n): derived
    holds (residual, scale) arrays, one per derived variant; printed is
    (residual, scale, stated) or None, stated marking the pairs where the
    printed form is given (None: all).  Float overflow and division by zero
    read inf or NaN, never raise: a parameter that breaks the builder
    itself fails every pair with a NaN residual."""
    with np.errstate(all="ignore"):
        try:
            variants = builder(fam, _Batch(fam, m, n, box), m, n)
        except (OverflowError, ZeroDivisionError):
            nan = np.full(len(m), np.nan)
            return [(nan, nan)], None
        derived, printed = [], None
        for label, lhs, rhs, *stated in variants:
            res, scale = lhs.residual(rhs)
            if label == "printed":
                printed = (res, scale, stated[0] if stated else None)
            else:
                derived.append((res, scale))
    return derived, printed


def _worst(derived):
    """Residual and scale of the worst derived variant per pair: the first
    largest residual, a NaN over any number, with the scale its gate read;
    the first variant's when every residual is 0.0."""
    worst_res, worst_scale = derived[0]
    for res, scale in derived[1:]:
        take = (res > worst_res) | np.isnan(res)
        worst_res = np.where(take, res, worst_res)
        worst_scale = np.where(take, scale, worst_scale)
    return worst_res, worst_scale


def _verdicts(fam, builder, domain, m, n, box, tol):
    """The verdicts of one builder over those of the pairs (m, n) inside an
    index domain, gated by ``tol``: {(m, n): (residual, scale, passed,
    printed residual, printed passed, printed scale)} in the order of the
    pairs.  The residual and scale are the worst derived variant's, and the
    pair passes when every derived variant does; the printed variant is
    gated against its own scale, and its fields are None where no printed
    form is stated."""
    keep = _in_domain(domain, m, n)
    m, n = m[keep], n[keep]
    derived, printed = _residuals(fam, builder, m, n, box)
    passed = np.logical_and.reduce([tol.gate(res, scale) for res, scale in derived])
    columns = [v.tolist() for v in _worst(derived)] + [passed.tolist()]
    if printed is None:
        columns += [[None] * len(m)] * 3
    else:
        res, scale, stated = printed
        printed = [res.tolist(), tol.gate(res, scale).tolist(), scale.tolist()]
        if stated is not None:
            stated = stated.tolist()
            printed = [[v if s else None for v, s in zip(column, stated)] for column in printed]
        columns += printed
    return dict(zip(zip(m.tolist(), n.tolist()), zip(*columns)))


def _reports(name, fam, verdicts):
    """The IdentityReports of {(m, n): verdict} under an identity's name, in
    its order.  A failing printed variant of a KNOWN_DISCREPANCIES name is
    flagged, with its note, when its residual is finite; a non-finite one
    is a breakdown of the printed form, not its typo, and is noted as such."""
    tag = fam.tag
    if name not in KNOWN_DISCREPANCIES:
        return [IdentityReport(name, tag, m, n, *verdict) for (m, n), verdict in verdicts.items()]
    typo = KNOWN_DISCREPANCIES[name]
    reports = []
    for (m, n), verdict in verdicts.items():
        printed_res, printed_passed, _ = verdict[3:]
        if printed_passed is not False:
            known, note = False, ""
        elif math.isfinite(printed_res):
            known, note = True, typo
        else:
            known, note = False, f"printed form breaks down: residual {printed_res}"
        reports.append(IdentityReport(name, tag, m, n, *verdict, known, note))
    return reports


# check_identity reads the verdicts of a builder over the domain pairs of
# the TILE x TILE block holding (m, n), and keeps those of the last few
# blocks
TILE = 16
TILE_CACHE_SIZE = 8


@lru_cache(maxsize=TILE_CACHE_SIZE)
def _tile(fam, builder, domain, tm, tn, tol):
    """The verdicts of one builder over the domain pairs of tile (tm, tn),
    gated by ``tol``."""
    m0, n0 = tm * TILE, tn * TILE
    m, n = np.divmod(np.arange(TILE * TILE), TILE)
    box = (max(m0 - 1, 0), m0 + TILE, max(n0 - 1, 0), n0 + TILE)
    return _verdicts(fam, builder, domain, m + m0, n + n0, box, tol)


def check_identity(fam, name, m, n, tol=None):
    """Check one catalog identity at one index pair.

    The verdict is computed on the derived variant(s); a printed variant, if
    present, contributes a separately reported residual, and its failure is
    flagged as a known discrepancy rather than an error.  An unknown name
    raises KeyError; a family the identity does not apply to, or a pair
    outside its index domain, raises IdentityRangeError before any table is
    built, and a negative index ValueError.  The verdict is a row of those
    over the domain pairs of the TILE x TILE block holding (m, n), formed
    as sweep forms its own; the last TILE_CACHE_SIZE blocks are kept, per
    tolerance.
    """
    if tol is None:
        tol = Tolerance()
    if name not in IDENTITIES:
        raise KeyError(f"unknown identity {name!r}")
    tags, builder, domain = IDENTITIES[name]
    if fam.tag not in tags:
        raise IdentityRangeError(f"{name} does not apply to family {fam.tag}")
    if not _in_domain(domain, m, n):
        raise IdentityRangeError("index outside identity range")
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    verdict = _tile(fam, builder, domain, m // TILE, n // TILE, tol)[(m, n)]
    return _reports(name, fam, {(m, n): verdict})[0]


def sweep(fam, names=None, max_mn=6, tol=None):
    """Run identities over the index pairs m, n <= max_mn of their domains;
    a name that is not an identity of the family raises IdentityRangeError
    before any work starts.  Returns the reports, in name, m, n order, each
    equal to check_identity's.  Each builder runs once, as one batch over
    the pairs of its domain; names that share a builder share its batch."""
    if tol is None:
        tol = Tolerance()
    available = identity_ids_for(fam)
    names = available if names is None else names
    foreign = [name for name in names if name not in available]
    if foreign:
        raise IdentityRangeError(f"unknown identity ids for family {fam.tag}: {', '.join(foreign)}")
    if max_mn < 0:
        raise ValueError(f"max_mn must be nonnegative, got {max_mn}")
    m, n = np.divmod(np.arange((max_mn + 1) ** 2), max_mn + 1)
    box = (0, max_mn + 1, 0, max_mn + 1)
    verdicts = {}  # (builder, domain) -> {(m, n): verdict}
    reports = []
    for name in names:
        _, builder, domain = IDENTITIES[name]
        key = builder, domain
        if key not in verdicts:
            verdicts[key] = _verdicts(fam, builder, domain, m, n, box, tol)
        reports += _reports(name, fam, verdicts[key])
    return reports


# ---------------------------------------------------------------------------
# connections, generating functions, solver
# ---------------------------------------------------------------------------


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


def _factorials(count):
    """a!, a < count, as a float64 and an np.longdouble array, each entry
    as the Python int a! converts to that type.  Past a = 170, a! is inf in
    float64, so 1 / a! enters a float weight as 0, and a running product
    in np.longdouble, which holds it to a = 1754 and is inf past that."""
    exact = [math.factorial(a) for a in range(min(count, 171))]
    wide = np.array(exact, np.longdouble)
    if count > len(exact):
        with np.errstate(over="ignore"):
            grow = np.cumprod(np.arange(len(exact), count, dtype=np.longdouble))
            wide = np.concatenate((wide, wide[-1] * grow))
    return np.array(exact + [math.inf] * (count - len(exact))), wide


def genfun_check(fam, which, u, v, z1, z2, N=30):
    """Residual of a truncated double generating-function sum against its
    closed form, plus the largest term of the first omitted shell as a tail
    estimate.  Returns (residual, tail_estimate).  The form's prefix, Z_ or
    M_, must be the family's tag; another family raises ValueError.

    u, v, z1, z2 may be scalars or arrays of one shape; the results have
    that shape.  The sum takes every harmonic index a = 0..N + 1 in one
    pass: radial.phi_rows over the array of a gives phi_k(z1 z2; a) for
    k <= N + 1 on the (a x point) grid, and one np.cumsum over k of the
    terms (uv)^k phi_k gives each partial sum s_a = sum_{k <= N-a}, gathered
    with the term of the first omitted shell, k = N + 1 - a.  The members
    f_{a+k,k} = z1^a phi_k add (u z1)^a s_a (divided by a! for the EXP
    forms, which past a = 170, where a! leaves the float range, adds 0),
    and for M_DOUBLE the members f_{k,a+k} = z2^a phi_k add (v z2)^a s_a
    for a >= 1; the a-terms are added in a order, and the sums run in the
    same order for any shape of the points.  The tail estimate is the
    largest |term| with a + k = N + 1 under the same weights, each of
    M_DOUBLE's two members counted as its own term.  The grid holds
    (N + 2)^2 entries a point, so points past qcalc.MAX_ENTRIES entries are
    taken chunk by chunk.
    """
    if which not in GENFUNS or which.split("_")[0] != fam.tag:
        raise ValueError(f"no generating function {which!r} for family {fam.tag}")
    if N < 0:
        raise ValueError("need N >= 0 terms")
    u, v, z1, z2 = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (u, v, z1, z2)))
    if np.any(np.abs(u * v) >= 1.0):
        raise ValueError("need |uv| < 1")
    step = max(1, qcalc.MAX_ENTRIES // (N + 2) ** 2)
    # each entry reads its own point alone, so a chunk of the flattened
    # points gives its entries bit for bit
    flat = [t.reshape(-1) for t in (u, v, z1, z2)]
    parts = [_genfun_series(fam, which, N, *(t[i:i + step] for t in flat))
             for i in range(0, max(u.size, 1), step)]
    total, tail = (np.concatenate(p).reshape(u.shape) for p in zip(*parts))
    # past the float range, as at a large beta, the closed form and the
    # residual read inf or NaN, which fails the check, with no warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        residual = np.abs(total - _closed_form(fam, which, u, v, z1, z2)).astype(float)
    if residual.ndim == 0:
        return float(residual), float(tail)
    return residual, tail


def _genfun_series(fam, which, N, u, v, z1, z2):
    """genfun_check's truncated sum, in np.longdouble, and its tail
    estimate at float arrays u, v, z1, z2 of one shape."""
    uv = u * v
    x = z1.astype(np.longdouble) * z2
    a = np.arange(N + 2)
    col = a.reshape((-1,) + (1,) * x.ndim)
    # terms[a, k] = (uv)^k phi_k(x; a); those past k = N + 1 - a are
    # neither summed nor in the shell
    rows = radial.phi_rows(radial_of(fam), a, N + 1, degrees=N + 1 - a)(x)
    terms = uv ** col * rows
    sums = np.cumsum(terms, axis=1)[a[:-1], N - a[:-1]]  # s_a, a = 0..N
    shell = terms[a, N + 1 - a]
    uz = u * z1
    # float powers one scalar exponent at a time: numpy's float64 power
    # with an array of exponents can round apart from it in the last bit;
    # the tail's weights are powers in longdouble, whose scalar and array
    # loops round alike, so the estimate does not depend on shape
    weight = np.array([uz ** i for i in range(N + 2)])
    size = np.abs(uz).astype(np.longdouble) ** col
    if which in ("Z_EXP", "M_EXP"):
        fact, wide = _factorials(N + 2)
        weight = weight / fact.reshape(col.shape)
        size = size / wide.reshape(col.shape)
    if which == "M_DOUBLE":
        vz = v * z2
        size[1:] = np.maximum(size[1:], np.abs(vz).astype(np.longdouble) ** col[1:])
        weight[1:] += np.array([vz ** i for i in range(1, N + 2)])
    tail = np.max((size * np.abs(shell)).astype(float), axis=0)
    # a running sum adds in a order for any shape of the points
    return np.cumsum(weight[:-1] * sums, axis=0)[-1], tail


def _closed_form(fam, which, u, v, z1, z2):
    """The closed form of genfun_check's series at float arrays u, v, z1,
    z2; raises ValueError at a degenerate point of the M forms."""
    uv = u * v
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
        try:
            head = 2.0 ** (b + g)
        except OverflowError:  # past the float range, from b + g = 1024
            head = math.inf
        pref = head * (1.0 + uv + rho) ** (-b)
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
    return closed


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
    z1, x = BivariatePoly.monomial(1, 0), BivariatePoly.monomial(1, 1)
    lhs = (
        z1 * f.diff_partial(1).diff_partial(2)
        + (beta - x) * f.diff_partial(2)
        + n * z1 * f
    )
    interior = 0.0
    boundary = 0.0
    for (j, _), v in lhs.terms.items():
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

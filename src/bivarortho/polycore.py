"""Exact bivariate coefficient tables and the difference/derivative
operators acting on them, in two forms: a sparse dict per table
(``BivariatePoly``) and a batch of one-diagonal tables as one float array
(``DiagTables``, the identity catalog's form).

Keys.  A polynomial in the variables (z1, z2) is stored as a dict mapping
exponent pairs (j, k) to coefficients; sorted keys read in (j, k) order.

Coefficients.  The package's tables hold Python floats: the table sources
(``bivariate.construct``, the series solver) convert numpy scalars where
they are made, so the operators run on the interpreter's float paths;
complex coefficients work the same way.

Zeros.  A table holds no exact zero (0, 0.0, -0.0, 0j: the falsy
coefficients): ``__init__``, every table's one constructor, prunes them
from the dict it is given; a NaN is kept.

Ownership.  A table takes ownership of the dict it is given and keeps it
unless a zero has to be pruned, so the dict must not be changed
afterwards.  Tables are immutable, and may be shared.  Each operator
builds a fresh dict, so no result shares a dict with an operand.  A scalar
operand of ``+`` makes no constant table: it acts on the (0, 0) entry of
the result's dict.  ``identity_residual`` forms the difference of two
tables in one dict pass and carries the NaN rule of the identity gates.

Diagonal batches.  Every table of the identity catalog lies on one
diagonal: f_{m,n} has the keys (m - d, n - d), d = 0..min(m, n).  A
``DiagTables`` holds one such table per index pair (m, n) of a batch as
rows of a float64 array c[pair, d], entry d the coefficient of
z1^(m + i - d) z2^(n + j - d): the top exponents (m + i, n + j) of all rows
share one offset (i, j) from the batch's pairs.  A zero entry is an absent
term, and an entry at a negative exponent is 0.0.  ``DiagFactor`` is a
table of at most two terms, alpha z1^s1 z2^s2 + beta z1^(s1+1) z2^(s2+1)
(a constant and an x = z1 z2 term, times a monomial), with number or
per-pair coefficients.  Every batch operator is, entry by entry, the same
IEEE operation as the dict operator on that row's table: sums align the
rows' keys, a factor's product adds at most two products per key (whose
order cannot change the sum), and a zero factor coefficient adds nothing,
as the pruned dict term does.  A non-finite scalar can leave a NaN on an
absent term, where the dict has no term; such a row's residual is not
finite, so its identity fails the gate either way.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _modulus(v):
    """|v| that cannot overflow for finite parts: the hypotenuse of the
    parts (abs of a complex raises OverflowError past the float range)."""
    return math.hypot(v.real, v.imag)


class BivariatePoly:
    """Sparse polynomial sum_{(j,k)} c_{j,k} z1^j z2^k.

    Exact zeros are pruned on construction so that equality of tables means
    equality of polynomials.  The table takes ownership of ``terms``: it
    keeps the dict it is given unless a zero has to be pruned, so the
    caller must not change the dict afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            terms = {k: v for k, v in terms.items() if v}
        self.terms = terms

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def monomial(cls, j, k, c=1.0):
        return cls({(j, k): c})

    def __repr__(self):
        if not self.terms:
            return "BivariatePoly(0)"
        bits = [f"({v})*z1^{j}*z2^{k}" for (j, k), v in sorted(self.terms.items())]
        return "BivariatePoly(" + " + ".join(bits) + ")"

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    # a scalar operand s acts on key (0, 0) as a constant table would: a
    # zero s adds nothing, any other s takes the same float operation there
    def __add__(self, other):
        out = dict(self.terms)
        if isinstance(other, BivariatePoly):
            for k, v in other.terms.items():
                out[k] = out.get(k, 0) + v
        elif other != 0:
            out[(0, 0)] = out.get((0, 0), 0) + other
        return BivariatePoly(out)

    __radd__ = __add__

    def __rsub__(self, other):
        out = {k: -v for k, v in self.terms.items()}
        if other != 0:
            out[(0, 0)] = out.get((0, 0), 0) + other
        return BivariatePoly(out)

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return BivariatePoly({k: v * other for k, v in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a product by a one-term table is a shift of the keys (the
            # float and complex products commute bit for bit)
            ((dj, dk), c), = b.items()
            return BivariatePoly({(j + dj, k + dk): v * c for (j, k), v in a.items()})
        out = {}
        for (j1, k1), v1 in a.items():
            for (j2, k2), v2 in b.items():
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def evaluate(self, z1, z2):
        """Evaluate at a point; terms are accumulated in sorted key order so
        the result is deterministic across runs."""
        terms = self.terms
        total = 0.0
        for j, k in sorted(terms):
            total = total + terms[(j, k)] * z1 ** j * z2 ** k
        return total

    def swap_vars(self):
        """Exchange z1 and z2."""
        return BivariatePoly({(k, j): v for (j, k), v in self.terms.items()})

    def dilate(self, var, factor):
        """Substitute z_var -> factor * z_var (used for q-shifted arguments)."""
        i = var - 1
        return BivariatePoly({key: v * factor ** key[i] for key, v in self.terms.items()})

    def diff_partial(self, var):
        """d/dz_var."""
        if var == 1:
            return BivariatePoly({(j - 1, k): j * v for (j, k), v in self.terms.items() if j})
        return BivariatePoly({(j, k - 1): k * v for (j, k), v in self.terms.items() if k})


@dataclass(frozen=True)
class Tolerance:
    """Pass/fail gate: a finite residual passes when it is below the
    absolute floor or below the relative bound times the supplied scale; a
    NaN or infinite residual never passes."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def gate(self, res, scale):
        """The verdicts on arrays of residuals and scales, entry by entry."""
        return np.isfinite(res) & ((res <= self.abs_tol)
                                   | (res <= self.rel_tol * np.maximum(scale, 1.0)))


def identity_residual(lhs, rhs):
    """Residual and scale of lhs == rhs.

    The residual is the largest |coefficient| of lhs - rhs, formed in one
    pass over a copy of lhs's dict; it is NaN, and fails every Tolerance,
    when the difference sums to NaN (a NaN on either side, or infinities of
    both signs).  The builtin max keeps a NaN only when it comes first; a
    sum always carries it.  Float coefficients take one math.fsum; any
    other type (int, complex), and the infinities or overflow that fsum
    refuses, take the builtin sum.  A complex modulus is the hypotenuse of
    its parts, which reads inf rather than raising past the float range.

    The scale is the larger of the two sides' largest |coefficient| (0.0
    for an empty side), each taken by the builtin max, and skips the NaN
    test: a NaN on either side reaches the difference the residual
    measures."""
    a, b = lhs.terms, rhs.terms
    scale = max(max(map(_modulus, a.values()), default=0.0),
                max(map(_modulus, b.values()), default=0.0))
    diff = dict(a)
    for k, v in b.items():
        diff[k] = diff.get(k, 0) - v
    values = diff.values()
    try:
        total = math.fsum(values)
    except (TypeError, ValueError, OverflowError):
        total = sum(values)
    if total != total:
        return math.nan, scale
    return max(map(_modulus, values), default=0.0), scale


# --- diagonal batches -------------------------------------------------------


def _column(s):
    """A per-pair array as a column, so it scales whole rows; numbers pass."""
    return s[:, None] if isinstance(s, np.ndarray) else s


def _scaled(c, s):
    """c times the factor coefficient s, with no term where s is zero (the
    dict drops a zero coefficient before any product)."""
    out = c * _column(s)
    if isinstance(s, np.ndarray):
        if not s.all():
            out[s == 0] = 0.0
    elif not s:
        out[:] = 0.0
    return out


def _pad(c, lead, width):
    """c with ``lead`` zero columns in front, widened to ``width``."""
    if lead == 0 and c.shape[1] == width:
        return c
    out = np.zeros((c.shape[0], width))
    out[:, lead:lead + c.shape[1]] = c
    return out


def powers(base, exps):
    """base ** e for every entry e of an exponent array or sequence, as a
    float array, by Python's float power entry by entry, as the scalar
    formulas and the dict operators take it; inf where it overflows or
    divides by zero, NaN where it leaves the reals."""
    exps = np.asarray(exps).tolist()
    try:
        return np.array([base ** e for e in exps], dtype=float)
    except (OverflowError, ZeroDivisionError, TypeError):
        pass
    out = []
    for e in exps:
        try:
            value = base ** e
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        out.append(value if isinstance(value, float) else math.nan)
    return np.array(out)


# the power tables of dilate and diff_qtheta, which a sweep asks for again
# and again at a few bases
_powers = lru_cache(maxsize=64)(lambda base, count: powers(base, range(count)))


_ARANGE = np.arange(64)
_new = object.__new__


def _diag(c, m, n, i, j):
    t = _new(DiagTables)
    t.c, t.m, t.n, t.i, t.j = c, m, n, i, j
    return t


class DiagTables:
    """One table per index pair (m, n) of a batch, each on one diagonal:
    row p of ``c`` holds the coefficient of z1^(m[p] + i - d) z2^(n[p] + j - d)
    in column d.  Tables of a sum or a residual must lie on one diagonal
    (equal i - j); rows are never mixed, so a row equals its batch of one."""

    __slots__ = ("c", "m", "n", "i", "j")
    # an ndarray operand defers to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, c, m, n, i=0, j=0):
        self.c = np.asarray(c, dtype=float)
        self.m, self.n, self.i, self.j = m, n, i, j

    def _exponents(self, var):
        """Exponent of z_var at every entry (negative on the padding)."""
        top = self.m + self.i if var == 1 else self.n + self.j
        width = self.c.shape[1]
        steps = _ARANGE[:width] if width <= len(_ARANGE) else np.arange(width)
        return top[:, None] - steps

    def _align(self, other):
        """(i, j, a, b): both tables' arrays on the keys of one top."""
        if self.i - self.j != other.i - other.j:
            raise ValueError("tables on different diagonals")
        i, j = max(self.i, other.i), max(self.j, other.j)
        lead_a, lead_b = i - self.i, i - other.i
        width = max(self.c.shape[1] + lead_a, other.c.shape[1] + lead_b)
        return i, j, _pad(self.c, lead_a, width), _pad(other.c, lead_b, width)

    def __add__(self, other):
        i, j, a, b = self._align(other)
        return _diag(a + b, self.m, self.n, i, j)

    def __sub__(self, other):
        i, j, a, b = self._align(other)
        return _diag(a - b, self.m, self.n, i, j)

    def __neg__(self):
        return _diag(-self.c, self.m, self.n, self.i, self.j)

    def __mul__(self, other):
        """Times a number, a per-pair array or a DiagFactor."""
        if isinstance(other, DiagFactor):
            return other * self
        return _diag(self.c * _column(other), self.m, self.n, self.i, self.j)

    __rmul__ = __mul__

    def dilate(self, var, factor):
        """Substitute z_var -> factor * z_var."""
        e = self._exponents(var)
        powers = _powers(factor, int(e.max(initial=0)) + 1)
        return _diag(self.c * powers[np.maximum(e, 0)], self.m, self.n, self.i, self.j)

    def diff_partial(self, var):
        """d/dz_var: the exponent-0 terms drop, whatever their value."""
        e = self._exponents(var)
        c = np.where(e > 0, e * self.c, 0.0)
        if var == 1:
            return _diag(c, self.m, self.n, self.i - 1, self.j)
        return _diag(c, self.m, self.n, self.i, self.j - 1)

    def diff_theta(self, var):
        """Euler operator z_var d/dz_var: each term times its exponent (a NaN
        or infinite exponent-0 term gives a NaN, which stays)."""
        return _diag(self._exponents(var) * self.c, self.m, self.n, self.i, self.j)

    def diff_qtheta(self, var, q):
        """q-Euler operator: each term z^e times (1 - q^e), over (1 - q)."""
        e = self._exponents(var)
        numer = 1.0 - _powers(q, int(e.max(initial=0)) + 1)
        return _diag(self.c * numer[np.maximum(e, 0)] / (1.0 - q),
                     self.m, self.n, self.i, self.j)

    def residual(self, other):
        """Per row, the residual and scale of self == other (None: the zero
        table) as ``identity_residual`` forms them: the largest |entry| of
        the difference, NaN when it holds a NaN or infinities of both signs;
        the scale is the larger side's largest |entry|, over its non-NaN
        entries (a NaN shows in the residual).  Tables on two diagonals
        share no key, so their difference is both sides side by side."""
        a = self.c
        if other is None:
            b = a[:, :0]
            diff = a
        elif self.i - self.j == other.i - other.j:
            _, _, a, b = self._align(other)
            diff = a - b
        else:
            b = other.c
            diff = np.concatenate((a, -b), axis=1)
        res = np.max(np.abs(diff), axis=1, initial=0.0)
        inf = res == np.inf
        if inf.any():
            rows = np.flatnonzero(inf)
            both = (diff[rows] == np.inf).any(axis=1) & (diff[rows] == -np.inf).any(axis=1)
            res[rows[both]] = np.nan
        scale = np.fmax(np.fmax.reduce(np.abs(a), axis=1, initial=0.0),
                        np.fmax.reduce(np.abs(b), axis=1, initial=0.0))
        return res, scale


def _combine(x, y, op):
    """One coefficient of a factor sum; None is an absent term (0 in the
    dict's get(k, 0))."""
    if y is None:
        return x
    return op(0.0 if x is None else x, y)


class DiagFactor:
    """alpha z1^s1 z2^s2 + beta z1^(s1+1) z2^(s2+1), a table of at most two
    terms; a coefficient is a number, a per-pair array, or None for a term
    the table does not hold.  A number operand of + and - acts on the
    constant term, so the factor must have shift (0, 0)."""

    __slots__ = ("alpha", "beta", "shift")
    __array_ufunc__ = None

    def __init__(self, alpha=None, beta=None, shift=(0, 0)):
        self.alpha, self.beta, self.shift = alpha, beta, shift

    def _as_factor(self, other):
        if isinstance(other, DiagFactor):
            if other.shift != self.shift:
                raise ValueError("factors with different shifts")
            return other
        if self.shift != (0, 0):
            raise ValueError("a number adds to the constant term only")
        return DiagFactor(other)

    def __add__(self, other):
        other = self._as_factor(other)
        return DiagFactor(_combine(self.alpha, other.alpha, operator.add),
                          _combine(self.beta, other.beta, operator.add), self.shift)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_factor(other)
        return DiagFactor(_combine(self.alpha, other.alpha, operator.sub),
                          _combine(self.beta, other.beta, operator.sub), self.shift)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return DiagFactor(None if self.alpha is None else -self.alpha,
                          None if self.beta is None else -self.beta, self.shift)

    def __mul__(self, other):
        if isinstance(other, DiagTables):
            return self._times(other)
        if isinstance(other, DiagFactor):
            if other.alpha is not None and other.beta is not None:
                if self.alpha is not None and self.beta is not None:
                    raise ValueError("a product of two two-term factors")
                return other * self
            # other is one term: u z^(its key); each of self's terms moves
            # by that key and takes the factor u
            if other.alpha is None:
                u, (s1, s2) = other.beta, (other.shift[0] + 1, other.shift[1] + 1)
            else:
                u, (s1, s2) = other.alpha, other.shift
            return DiagFactor(None if self.alpha is None else self.alpha * u,
                              None if self.beta is None else self.beta * u,
                              (self.shift[0] + s1, self.shift[1] + s2))
        return DiagFactor(None if self.alpha is None else self.alpha * other,
                          None if self.beta is None else self.beta * other, self.shift)

    __rmul__ = __mul__

    def _times(self, t):
        """The product with a batch: each key takes the constant term times
        the entry at that key and the x term times the entry one step below."""
        s1, s2 = self.shift
        if self.beta is None:
            return _diag(_scaled(t.c, self.alpha), t.m, t.n, t.i + s1, t.j + s2)
        upper = _scaled(t.c, self.beta)
        if self.alpha is not None:
            rows, width = t.c.shape
            out = np.zeros((rows, width + 1))
            out[:, :width] = upper
            out[:, 1:] += _scaled(t.c, self.alpha)
            upper = out
        return _diag(upper, t.m, t.n, t.i + s1 + 1, t.j + s2 + 1)

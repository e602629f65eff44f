"""Exact sparse bivariate polynomial tables and the difference/derivative
operators acting on them.

Keys.  A polynomial in the variables (z1, z2) is stored as a dict mapping
packed exponent keys to coefficients: the pair (j, k) is the one int key
``j << 20 | k``, made by ``pack``, which rejects an exponent outside
0..MAX_EXPONENT.  A product adds keys as ints.  The admitted exponents use
16 of the 20 bits of the z2 field, so a product of up to 16 admitted
tables never carries into the z1 field.  Sorted keys read in (j, k) order.
``pairs`` is the one (j, k)-keyed read view, for callers that need the
exponents.

Coefficients.  The package's tables hold Python floats: the table sources
(``bivariate.construct`` and the scalars of the identity catalog) convert
numpy scalars where they are made, so the operators run on the
interpreter's float paths; complex coefficients work the same way.

Zeros.  A table holds no exact zero (0, 0.0, -0.0, 0j: the falsy
coefficients), by one scan when it is made; a NaN is kept.  The operators
drop the zeros they make while they build their dict (a sum that cancels,
an exponent-0 term of an Euler operator), so the scan copies only when a
product or a scalar factor yields a zero.

Ownership.  A table takes ownership of the dict it is given and never
copies it otherwise, so the dict must not be changed afterwards.  Tables
are immutable, and may be shared.  The operators make their result
through ``_table``, which skips type.__call__ and __init__; each builds a
fresh dict, and no result shares a dict with an operand.  A scalar operand
of ``+`` or ``-`` makes no constant table: it acts on the key-0 (constant)
entry of the result's dict, bit for bit as the table ``const(s)`` would.
``identity_residual`` forms the difference of two tables in one dict pass
and carries the NaN rule of the identity gates.  All operators act exactly
on the coefficient table; evaluation happens only at the point where a
numeric answer is requested.
"""

import math
from dataclasses import dataclass

SHIFT = 20  # bits of the z2 exponent in a packed key
MASK = (1 << SHIFT) - 1
MAX_EXPONENT = (1 << (SHIFT - 4)) - 1
_Z1_STEP = 1 << SHIFT  # the key of z1: adding it raises the z1 exponent by one


def pack(j, k):
    """Packed key of the exponent pair (j, k); ValueError outside
    0..MAX_EXPONENT."""
    if not (0 <= j <= MAX_EXPONENT and 0 <= k <= MAX_EXPONENT):
        raise ValueError(f"exponents ({j}, {k}) outside 0..{MAX_EXPONENT}")
    return j << SHIFT | k


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


_new = object.__new__


def _table(terms):
    """The table over ``terms``, made without type.__call__ and __init__:
    the operators' one constructor, with __init__'s zero rule."""
    if not all(terms.values()):
        terms = _nonzero(terms)
    poly = _new(BivariatePoly)
    poly.terms = terms
    return poly


class BivariatePoly:
    """Sparse polynomial sum_{(j,k)} c_{j,k} z1^j z2^k over packed keys.

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
            terms = _nonzero(terms)
        self.terms = terms

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, j, k, c=1.0):
        return cls({pack(j, k): c})

    def pairs(self):
        """The coefficients keyed by exponent pair (j, k), in table order."""
        return {(key >> SHIFT, key & MASK): v for key, v in self.terms.items()}

    def __repr__(self):
        if not self.terms:
            return "BivariatePoly(0)"
        bits = [f"({v})*z1^{j}*z2^{k}" for (j, k), v in sorted(self.pairs().items())]
        return "BivariatePoly(" + " + ".join(bits) + ")"

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    # a sum that cancels drops its key here; a scalar operand s acts on key 0
    # as the table const(s) would: a zero s (which const prunes) adds
    # nothing, any other s takes the same float operation there
    def __add__(self, other):
        out = dict(self.terms)
        get = out.get
        if isinstance(other, BivariatePoly):
            for k, v in other.terms.items():
                w = get(k, 0) + v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        elif other != 0:
            w = get(0, 0) + other
            if w:
                out[0] = w
            else:
                out.pop(0, None)
        return _table(out)

    __radd__ = __add__

    def __neg__(self):
        return _table({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        get = out.get
        if isinstance(other, BivariatePoly):
            for k, v in other.terms.items():
                w = get(k, 0) - v
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        elif other != 0:
            w = get(0, 0) - other
            if w:
                out[0] = w
            else:
                out.pop(0, None)
        return _table(out)

    def __rsub__(self, other):
        out = {k: -v for k, v in self.terms.items()}
        if other != 0:
            w = out.get(0, 0) + other
            if w:
                out[0] = w
            else:
                out.pop(0, None)
        return _table(out)

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            if other:
                return _table({k: v * other for k, v in self.terms.items()})
            # a zero scalar makes zeros, dropped here as the Euler operators
            # drop theirs; 0 * NaN and 0 * inf give a NaN, which stays
            return _table({k: w for k, v in self.terms.items() if (w := v * other)})
        a, b = self.terms, other.terms
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a product by a one-term table is a shift of the keys (the
            # float and complex products commute bit for bit)
            (shift, c), = b.items()
            return _table({k + shift: v * c for k, v in a.items()})
        out = {}
        get = out.get
        b_items = b.items()
        for k1, v1 in a.items():
            for k2, v2 in b_items:
                key = k1 + k2
                out[key] = get(key, 0) + v1 * v2
        return _table(out)

    __rmul__ = __mul__

    def evaluate(self, z1, z2):
        """Evaluate at a point; terms are accumulated in sorted key order so
        the result is deterministic across runs."""
        terms = self.terms
        total = 0.0
        for key in sorted(terms):
            total = total + terms[key] * z1 ** (key >> SHIFT) * z2 ** (key & MASK)
        return total

    def swap_vars(self):
        """Exchange z1 and z2."""
        return _table({(k & MASK) << SHIFT | k >> SHIFT: v for k, v in self.terms.items()})

    def dilate(self, var, factor):
        """Substitute z_var -> factor * z_var (used for q-shifted arguments)."""
        if var == 1:
            return _table({k: v * factor ** (k >> SHIFT) for k, v in self.terms.items()})
        return _table({k: v * factor ** (k & MASK) for k, v in self.terms.items()})

    # --- derivative / difference operators -----------------------------

    def diff_partial(self, var):
        """d/dz_var."""
        if var == 1:
            return _table({k - _Z1_STEP: (k >> SHIFT) * v
                           for k, v in self.terms.items() if k >= _Z1_STEP})
        return _table({k - 1: (k & MASK) * v for k, v in self.terms.items() if k & MASK})

    # the Euler operators turn an exponent-0 term into 0 * v, which they drop
    # while they build the dict; a NaN or infinite v gives a NaN, which stays

    def diff_theta(self, var):
        """Euler operator z_var d/dz_var; multiplies each term by its exponent."""
        if var == 1:
            return _table({k: w for k, v in self.terms.items() if (w := (k >> SHIFT) * v)})
        return _table({k: w for k, v in self.terms.items() if (w := (k & MASK) * v)})

    def diff_qtheta(self, var, q):
        """q-Euler operator theta_q f(z) = (f(z) - f(qz)) / (1-q); each term
        z^e is multiplied by the q-number [e]_q = (1-q^e)/(1-q)."""
        if var == 1:
            return _table({k: w for k, v in self.terms.items()
                           if (w := v * (1.0 - q ** (k >> SHIFT)) / (1.0 - q))})
        return _table({k: w for k, v in self.terms.items()
                       if (w := v * (1.0 - q ** (k & MASK)) / (1.0 - q))})


@dataclass(frozen=True)
class Tolerance:
    """Pass/fail gate: a residual passes when it is below the absolute floor
    or below the relative bound times the supplied scale."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def passes(self, res, scale):
        return res <= self.abs_tol or res <= self.rel_tol * max(scale, 1.0)


def identity_residual(lhs, rhs):
    """Residual and scale of lhs == rhs.

    The residual is the largest |coefficient| of lhs - rhs, formed in one
    pass over a copy of lhs's dict; it is NaN, and fails every Tolerance,
    when the difference sums to NaN (a NaN on either side, or infinities of
    both signs).  The builtin max keeps a NaN only when it comes first; a
    sum always carries it.  Float coefficients take one math.fsum; any
    other type (int, complex), and the infinities or overflow that fsum
    refuses, take the builtin sum.

    The scale is the larger of the two sides' largest |coefficient| (0.0
    for an empty side), each taken by the builtin max, and skips the NaN
    test: a NaN on either side reaches the difference the residual
    measures."""
    a, b = lhs.terms, rhs.terms
    # max runs only on a dict known to be non-empty: its default= keyword
    # costs more to parse than the test
    scale = max(max(map(abs, a.values())) if a else 0.0,
                max(map(abs, b.values())) if b else 0.0)
    diff = dict(a)
    get = diff.get
    for k, v in b.items():
        diff[k] = get(k, 0) - v
    values = diff.values()
    try:
        total = math.fsum(values)
    except (TypeError, ValueError, OverflowError):
        total = sum(values)
    if total != total:
        return math.nan, scale
    return (max(map(abs, values)) if diff else 0.0), scale

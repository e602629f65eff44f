"""Exact sparse bivariate polynomial tables and the difference/derivative
operators acting on them.

A polynomial in the variables (z1, z2) is stored as a dict mapping exponent
pairs (j, k) to coefficients.  The package's tables hold Python floats: the
table sources (``bivariate.construct`` and the scalars of the identity
catalog) convert numpy scalars where they are made, so the operators run on
the interpreter's float paths; complex coefficients work the same way.

Exact zeros (and -0.0) are pruned when a table is built, by one scan for a
zero; a NaN is kept.  A table takes ownership of the dict it is given and
never copies it, so the dict must not be changed afterwards.  Every operator
builds a fresh dict for its result, and no result shares a dict with an
operand.  A scalar operand of ``+`` or ``-`` makes no constant table: it
acts on the (0, 0) entry of the result's dict, bit for bit as the table
``const(s)`` would.  ``residual`` forms the difference of two tables in one
dict pass and carries the NaN rule of the identity gates.  All operators
act exactly on the coefficient table; evaluation happens only at the point
where a numeric answer is requested.
"""

import math
from dataclasses import dataclass


class BivariatePoly:
    """Sparse polynomial sum_{(j,k)} c_{j,k} z1^j z2^k.

    Coefficients live in a dict keyed by the exponent pair.  Exact zeros are
    pruned on construction so that equality of tables means equality of
    polynomials.  The table takes ownership of ``terms``: it keeps the dict
    it is given unless a zero has to be pruned, so the caller must not
    change the dict afterwards.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        elif 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v != 0}
        self.terms = terms

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, j, k, c=1.0):
        return cls({(j, k): c})

    def __repr__(self):
        if not self.terms:
            return "BivariatePoly(0)"
        bits = []
        for (j, k) in sorted(self.terms):
            bits.append(f"({self.terms[(j, k)]})*z1^{j}*z2^{k}")
        return "BivariatePoly(" + " + ".join(bits) + ")"

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.terms == other.terms

    # a scalar operand s acts on key (0, 0) as the table const(s) would:
    # a zero s (which const prunes) adds nothing, any other s takes the
    # same float operation there
    def __add__(self, other):
        out = dict(self.terms)
        get = out.get
        if isinstance(other, BivariatePoly):
            for k, v in other.terms.items():
                out[k] = get(k, 0) + v
        elif other != 0:
            out[(0, 0)] = get((0, 0), 0) + other
        return BivariatePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        get = out.get
        if isinstance(other, BivariatePoly):
            for k, v in other.terms.items():
                out[k] = get(k, 0) - v
        elif other != 0:
            out[(0, 0)] = get((0, 0), 0) - other
        return BivariatePoly(out)

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
            # a product by a one-term table is a shift of the exponents (the
            # float and complex products commute bit for bit)
            ((dj, dk), c), = b.items()
            return BivariatePoly({(j + dj, k + dk): v * c for (j, k), v in a.items()})
        out = {}
        get = out.get
        b_items = b.items()
        for (j1, k1), v1 in a.items():
            for (j2, k2), v2 in b_items:
                key = (j1 + j2, k1 + k2)
                out[key] = get(key, 0) + v1 * v2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def evaluate(self, z1, z2):
        """Evaluate at a point; terms are accumulated in sorted key order so
        the result is deterministic across runs."""
        total = 0.0
        for (j, k) in sorted(self.terms):
            total = total + self.terms[(j, k)] * z1 ** j * z2 ** k
        return total

    def swap_vars(self):
        """Exchange z1 and z2."""
        return BivariatePoly({(k, j): v for (j, k), v in self.terms.items()})

    def dilate(self, var, factor):
        """Substitute z_var -> factor * z_var (used for q-shifted arguments)."""
        i = 0 if var == 1 else 1
        return BivariatePoly(
            {key: v * factor ** key[i] for key, v in self.terms.items()}
        )

    # --- derivative / difference operators -----------------------------

    def diff_partial(self, var):
        """d/dz_var."""
        if var == 1:
            return BivariatePoly(
                {(j - 1, k): j * v for (j, k), v in self.terms.items() if j > 0}
            )
        return BivariatePoly(
            {(j, k - 1): k * v for (j, k), v in self.terms.items() if k > 0}
        )

    def diff_theta(self, var):
        """Euler operator z_var d/dz_var; multiplies each term by its exponent."""
        i = 0 if var == 1 else 1
        return BivariatePoly({key: key[i] * v for key, v in self.terms.items()})

    def diff_qtheta(self, var, q):
        """q-Euler operator theta_q f(z) = (f(z) - f(qz)) / (1-q); each term
        z^e is multiplied by the q-number [e]_q = (1-q^e)/(1-q)."""
        i = 0 if var == 1 else 1
        return BivariatePoly(
            {key: v * (1.0 - q ** key[i]) / (1.0 - q) for key, v in self.terms.items()}
        )


def residual(p, r):
    """Maximum absolute coefficient difference between two tables, formed
    in one pass over a copy of p's dict; NaN when the difference sums to NaN
    (a NaN on either side, or infinities of both signs).

    The builtin max keeps a NaN only when it comes first; a sum always
    carries it.  Float coefficients take one math.fsum; any other type
    (int, complex), and the infinities or overflow that fsum refuses, take
    the builtin sum.
    """
    diff = dict(p.terms)
    get = diff.get
    for k, v in r.terms.items():
        diff[k] = get(k, 0) - v
    values = diff.values()
    try:
        total = math.fsum(values)
    except (TypeError, ValueError, OverflowError):
        total = sum(values)
    return max(map(abs, values), default=0.0) if total == total else math.nan


@dataclass(frozen=True)
class Tolerance:
    """Pass/fail gate: a residual passes when it is below the absolute floor
    or below the relative bound times the supplied scale."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def passes(self, res, scale):
        return res <= self.abs_tol or res <= self.rel_tol * max(scale, 1.0)


def identity_residual(lhs, rhs):
    """Residual and scale (max |coeff| over both sides) for lhs == rhs; the
    residual is NaN, and fails every Tolerance, when either side holds a
    NaN.  The scale skips the NaN test: a NaN on either side reaches the
    difference that the residual measures.  Each side's largest |coeff| is
    taken by the builtin max (0.0 for an empty side), which keeps a NaN
    only when it comes first."""
    scale = max(max(map(abs, lhs.terms.values()), default=0.0),
                max(map(abs, rhs.terms.values()), default=0.0))
    return residual(lhs, rhs), scale

"""Exact sparse bivariate polynomial tables and the difference/derivative
operators acting on them.

A polynomial in the variables (z1, z2) is stored as a dict mapping exponent
pairs (j, k) to numeric coefficients (float or complex).  All operators act
exactly on the coefficient table; evaluation happens only at the point where
a numeric answer is requested.
"""

import math
from dataclasses import dataclass


def _top_abs(terms):
    """Largest |coefficient| of a table (0.0 when empty) by the builtin max,
    which keeps a NaN only when it comes first."""
    return max(map(abs, terms.values())) if terms else 0.0


def _clean(terms):
    return {k: v for k, v in terms.items() if v != 0}


class BivariatePoly:
    """Sparse polynomial sum_{(j,k)} c_{j,k} z1^j z2^k.

    Coefficients live in a dict keyed by the exponent pair.  Exact zeros are
    pruned on construction so that equality of tables means equality of
    polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(terms or {})

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

    def __add__(self, other):
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        out = dict(self.terms)
        get = out.get
        for k, v in other.terms.items():
            out[k] = get(k, 0) + v
        return BivariatePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, BivariatePoly):
            other = BivariatePoly.const(other)
        out = dict(self.terms)
        get = out.get
        for k, v in other.terms.items():
            out[k] = get(k, 0) - v
        return BivariatePoly(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return BivariatePoly({k: v * other for k, v in self.terms.items()})
        out = {}
        get = out.get
        other_items = other.terms.items()
        for (j1, k1), v1 in self.terms.items():
            for (j2, k2), v2 in other_items:
                key = (j1 + j2, k1 + k2)
                out[key] = get(key, 0) + v1 * v2
        return BivariatePoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def max_abs_coeff(self):
        """Largest |coefficient|, or NaN when the coefficients sum to NaN (a
        NaN coefficient, or infinities of both signs).

        The builtin max keeps a NaN only when it comes first; a sum always
        carries it.  Float coefficients (numpy float64 included) take one
        math.fsum; any other type (int, complex), and the infinities or
        overflow that fsum refuses, take the builtin sum.
        """
        values = self.terms.values()
        try:
            total = math.fsum(values)
        except (TypeError, ValueError, OverflowError):
            total = sum(values)
        return _top_abs(self.terms) if total == total else math.nan

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
        out = {}
        for (j, k), v in self.terms.items():
            if var == 1:
                if j > 0:
                    out[(j - 1, k)] = out.get((j - 1, k), 0) + j * v
            else:
                if k > 0:
                    out[(j, k - 1)] = out.get((j, k - 1), 0) + k * v
        return BivariatePoly(out)

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
    """Maximum absolute coefficient difference between two tables; NaN when
    either table holds a NaN."""
    diff = p - r
    return diff.max_abs_coeff()


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
    difference that the residual measures."""
    res = residual(lhs, rhs)
    scale = max(_top_abs(lhs.terms), _top_abs(rhs.terms))
    return res, scale

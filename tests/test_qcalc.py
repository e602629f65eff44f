"""Tests for the scalar Pochhammer / q-Pochhammer helpers, and for the
terminating (basic) hypergeometric sums kept here as test-local helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bivarortho.qcalc import (
    TRUNCATION_EPS,
    pochhammer,
    qpochhammer,
    qpochhammer_prefix,
    qproduct_terms,
)


def hyper_terminating(num, den, x):
    """Terminating generalized hypergeometric sum.

    Computes sum_k prod_j (num_j)_k / (prod_j (den_j)_k * k!) * x^k, where at
    least one numerator parameter must be a nonpositive integer so the series
    terminates.  Built by forward term ratios, so the terminating zero is hit
    exactly.
    """
    nmax = None
    for a in num:
        if a <= 0 and abs(a - round(a)) < 1e-12:
            cand = int(-round(a))
            nmax = cand if nmax is None else min(nmax, cand)
    if nmax is None:
        raise ValueError("no nonpositive-integer numerator parameter; series does not terminate")
    total = 1.0
    term = 1.0
    for k in range(nmax):
        ratio = x / (k + 1.0)
        for a in num:
            ratio *= a + k
        for b in den:
            ratio /= b + k
        term *= ratio
        total += term
    return total


def qhyper_terminating(num, den, q, z):
    """Terminating basic hypergeometric sum r+1_phi_r.

    Computes sum_k prod_j (num_j; q)_k / ((q; q)_k prod_j (den_j; q)_k) z^k
    where some numerator parameter equals q^{-N} for a nonnegative integer N
    (the terminating parameter must be supplied exactly as q**(-N)).  The
    number of numerator parameters must exceed the denominator count by one,
    so no extra (-1)^k q^(k choose 2) factor appears.

    ``nterms`` is inferred from the terminating parameter.  Complex
    parameters are supported.
    """
    if len(num) != len(den) + 1:
        raise ValueError("expected r+1 numerator and r denominator parameters")
    nmax = None
    for a in num:
        if isinstance(a, complex):
            continue
        if a <= 1.0:
            continue
        # a == q^{-N} for integer N?
        est = math.log(a) / math.log(1.0 / q)
        if abs(est - round(est)) < 1e-9:
            cand = int(round(est))
            nmax = cand if nmax is None else min(nmax, cand)
    if nmax is None:
        raise ValueError("no q^{-N} numerator parameter; series does not terminate")
    total = 1.0
    term = 1.0
    qk = 1.0
    for k in range(nmax):
        ratio = z / (1.0 - q * qk)
        for a in num:
            ratio *= 1.0 - a * qk
        for b in den:
            ratio /= 1.0 - b * qk
        term = term * ratio
        qk *= q
        total = total + term
    return total



class TestPochhammer:
    def test_small_values(self):
        # (a)_n by hand: (2)_3 = 2*3*4, (0.5)_2 = 0.5*1.5
        assert pochhammer(2.0, 3) == 24.0
        assert pochhammer(0.5, 2) == 0.75
        assert pochhammer(7.3, 0) == 1.0

    def test_gamma_ratio(self):
        # (a)_n = Gamma(a+n)/Gamma(a) for a > 0, including the long-product path
        for a in (0.3, 1.0, 2.7):
            for n in (1, 5, 25, 40):
                ref = math.gamma(a + n) / math.gamma(a)
                assert_allclose(pochhammer(a, n), ref, rtol=1e-12)

    def test_terminating_zero(self):
        # nonpositive integer first argument terminates exactly
        assert pochhammer(-3.0, 4) == 0.0
        assert pochhammer(-3.0, 3) == -6.0

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @given(
        st.floats(-5, 5),
        st.integers(0, 10),
        st.integers(0, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_splitting(self, a, m, n):
        # (a)_{m+n} = (a)_m (a+m)_n
        lhs = pochhammer(a, m + n)
        rhs = pochhammer(a, m) * pochhammer(a + m, n)
        assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestQPochhammer:
    def test_finite_direct_product(self):
        q, a = 0.3, 0.7
        for n in range(6):
            ref = 1.0
            for k in range(n):
                ref *= 1.0 - a * q ** k
            assert_allclose(qpochhammer(a, q, n), ref, rtol=1e-14)

    def test_infinite_vs_long_finite(self):
        # the truncated infinite product agrees with a very long finite one
        for q in (0.3, 0.8):
            for a in (0.5, -0.9):
                assert_allclose(
                    qpochhammer(a, q), qpochhammer(a, q, 3000), rtol=1e-13
                )

    def test_shift_identity(self):
        # (a; q)_inf = (1 - a)(aq; q)_inf
        q, a = 0.6, 0.45
        assert_allclose(
            qpochhammer(a, q), (1.0 - a) * qpochhammer(a * q, q), rtol=1e-13
        )

    def test_complex_conjugate_pair_is_real(self):
        q = 0.5
        z = 0.7 * complex(math.cos(1.1), math.sin(1.1))
        val = qpochhammer(z, q) * qpochhammer(z.conjugate(), q)
        assert abs(val.imag) < 1e-14

    def test_infinite_requires_q_inside_disc(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, 1.0)

    def test_negative_order_raises(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, 0.5, -2)

    def test_prefix_entries_are_the_finite_products(self):
        # bit for bit, the radial tables' factors depend on it
        for q in (0.1, 0.5, 0.999):
            for a in (0.0, q, q ** 2.5, -2.5 * q, 0.7 * complex(math.cos(1.1), math.sin(1.1))):
                prefix = qpochhammer_prefix(a, q, 30)
                assert len(prefix) == 31
                assert prefix == [qpochhammer(a, q, m) for m in range(31)]


class TestQProductTerms:
    @pytest.mark.parametrize("q", [-0.6, 0.0, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("a", [0.0, 1e-18, 1e-9, 0.2, -0.95, 1.0, 0.3 + 0.4j])
    def test_smallest_certified_count(self, a, q):
        # K is the first index at which the tail bound |a| |q|^K / (1 - |q|)
        # falls under the truncation target
        k = qproduct_terms(a, q)
        bound = abs(a) / (1.0 - abs(q))
        assert bound * abs(q) ** k < TRUNCATION_EPS
        assert k == 0 or bound * abs(q) ** (k - 1) >= TRUNCATION_EPS

    def test_counts_the_factors_of_the_infinite_product(self):
        q, a = 0.5, 0.7
        k = qproduct_terms(a, q)
        assert qpochhammer(a, q) == qpochhammer(a, q, k)

    def test_needs_q_inside_disc(self):
        with pytest.raises(ValueError):
            qproduct_terms(0.5, -1.0)


def gaussian_binomial(n, k, q):
    """[n choose k]_q written from finite q-Pochhammer products."""
    return qpochhammer(q, q, n) / (qpochhammer(q, q, k) * qpochhammer(q, q, n - k))


class TestQBinomial:
    # the Gaussian binomial as a ratio of finite q-products checks
    # qpochhammer against the q-Pascal rule and the q -> 1 limit
    def test_edge_cases(self):
        assert gaussian_binomial(4, 0, 0.3) == 1.0
        assert gaussian_binomial(4, 4, 0.3) == pytest.approx(1.0, rel=1e-12)

    def test_pascal_recurrence(self):
        # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
        q = 0.4
        for n in range(1, 8):
            for k in range(n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = q ** k * gaussian_binomial(n - 1, k, q) if k < n else 0.0
                if k > 0:
                    rhs += gaussian_binomial(n - 1, k - 1, q)
                assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_q_one_limit(self):
        assert_allclose(gaussian_binomial(6, 2, 1.0 - 1e-10), 15.0, rtol=1e-6)


class TestHyperTerminating:
    def test_binomial_sum(self):
        # sum_k (-n)_k / k! x^k = (1 - x)^n
        for n in (1, 3, 6):
            for x in (-0.7, 0.2, 1.5):
                assert_allclose(
                    hyper_terminating([-float(n)], [], x), (1.0 - x) ** n, rtol=1e-12
                )

    def test_chu_vandermonde(self):
        # 2F1(-n, b; c; 1) = (c - b)_n / (c)_n
        n, b, c = 4, 0.7, 2.3
        lhs = hyper_terminating([-float(n), b], [c], 1.0)
        rhs = pochhammer(c - b, n) / pochhammer(c, n)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_nonterminating_raises(self):
        with pytest.raises(ValueError):
            hyper_terminating([0.5, 1.2], [2.0], 0.3)


class TestQHyperTerminating:
    @staticmethod
    def _brute(num, den, q, z, nterms):
        total = 0.0
        for k in range(nterms + 1):
            term = z ** k / qpochhammer(q, q, k)
            for a in num:
                term *= qpochhammer(a, q, k)
            for b in den:
                term /= qpochhammer(b, q, k)
            total += term
        return total

    def test_vs_direct_sum(self):
        q = 0.4
        for n in (1, 3, 5):
            num = [q ** (-n), 0.3, 0.7]
            den = [0.2, 0.5]
            for z in (0.3, -1.2):
                ref = self._brute(num, den, q, z, n)
                assert_allclose(
                    qhyper_terminating(num, den, q, z), ref, rtol=1e-12
                )

    def test_q_binomial_theorem(self):
        # 1phi0(q^{-n}; -; q, z) = (q^{-n} z; q)_n
        q, n, z = 0.5, 4, 0.7
        lhs = qhyper_terminating([q ** (-n)], [], q, z)
        rhs = qpochhammer(q ** (-n) * z, q, n)
        assert_allclose(lhs, rhs, rtol=1e-12)

    def test_parameter_count_raises(self):
        with pytest.raises(ValueError):
            qhyper_terminating([0.5, 0.25], [0.3, 0.4], 0.5, 1.0)

    def test_nonterminating_raises(self):
        with pytest.raises(ValueError):
            qhyper_terminating([0.5, 0.25], [0.3], 0.5, 1.0)

"""Tests for the Askey-Wilson module: evaluation, weight, closed-form
norms, the 1D Gram matrix, and the three tensor biorthogonality pairings."""

import cmath
import hashlib
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivarortho import awbiortho as aw

P = aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.5)
P2 = aw.AWParams(0.3, -0.2, 0.15, 0.25, 0.5)


def gauss_theta_nodes(n=256):
    """cos(theta) at the Gauss-Legendre theta-nodes the Gram checks use."""
    t, _ = np.polynomial.legendre.leggauss(n)
    return np.cos(0.5 * math.pi * (t + 1.0))


def mp_unit_point(mp, x):
    """e^(i theta) with theta = acos(x), x taken exactly."""
    return mp.exp(1j * mp.acos(mp.mpf(x)))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            aw.AWParams(1.2, 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            aw.AWParams(0.2, 0.0, 0.0, 0.0, 1.5)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, field, bad):
        with pytest.raises(ValueError):
            P.with_params(**{field: bad})

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta"])
    def test_non_finite_coupling_rejected(self, field):
        with pytest.raises(ValueError):
            aw.TensorParams(P, P2, **{field: math.nan})

    def test_with_params(self):
        assert P.with_params(d=0.1).d == 0.1
        assert P.with_params(d=0.1).a == P.a

    def test_tensor_coupling_validation(self):
        with pytest.raises(ValueError):
            aw.TensorParams(P, P2, alpha=-1.0)

    def test_shifted_parameters_shrink(self):
        tp = aw.TensorParams(P, P2)
        assert tp.shifted_d1(0) == P.d
        assert abs(tp.shifted_d1(3)) < abs(P.d)


class TestEvaluation:
    def test_degree_zero_is_one(self):
        assert aw.aw_eval(P, 0, 0.3) == 1.0

    def test_degree_one_hand_formula(self):
        # independent summation of the two-term 4phi3 at n = 1
        a, b, c, d, q = P.a, P.b, P.c, P.d, P.q
        for x in (-0.8, 0.1, 0.65):
            eit = cmath.exp(1j * math.acos(x))
            term = (
                (1.0 - 1.0 / q)
                * (1.0 - a * b * c * d)
                * (1.0 - a * eit)
                * (1.0 - a * eit.conjugate())
                * q
                / ((1.0 - a * b) * (1.0 - a * c) * (1.0 - a * d) * (1.0 - q))
            )
            ref = (1.0 + term).real
            assert_allclose(aw.aw_eval(P, 1, x), ref, rtol=1e-13)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_mpmath_oracle(self, n):
        # the terminating 4phi3 summed in mpmath at 30 digits from mpmath's
        # q-Pochhammer symbols; mpmath.qhyper itself cannot be used, since
        # it sums until a term is small and the terms past k = n are zero
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate(([-1.0], np.linspace(-0.95, 0.95, 9), [1.0]))
        for p in (P, P2):
            ref, size = [], []
            with mp.workdps(30):
                a, b, c, d, q = (mp.mpf(v) for v in (p.a, p.b, p.c, p.d, p.q))
                for x in xs:
                    e = mp_unit_point(mp, x)
                    num = (q ** -n, a * b * c * d * q ** (n - 1), a * e, a / e)
                    den = (a * b, a * c, a * d, q)
                    terms = [
                        mp.re(
                            mp.fprod(mp.qp(u, q, k) for u in num)
                            / mp.fprod(mp.qp(u, q, k) for u in den)
                            * q ** k
                        )
                        for k in range(n + 1)
                    ]
                    ref.append(float(mp.fsum(terms)))
                    size.append(float(mp.fsum(abs(t) for t in terms)))
            # relative to sum_k |term_k|: at n = 6 the terms of P cancel to
            # 1e-9 of their size, and no double-precision sum does better
            err = np.abs(aw.aw_eval(p, n, xs) - ref) / np.array(size)
            assert np.max(err) < 1e-12, p

    @pytest.mark.parametrize("n", range(7, 13))
    def test_matches_mpmath_oracle_high_degree(self, n):
        # past degree 6 the 4phi3 terms cancel beyond double precision, so
        # the oracle sums them at 60 digits and the values are judged
        # relative to themselves (6.5e-16 measured), not to sum_k |term_k|
        mp = pytest.importorskip("mpmath")
        xs = np.concatenate(([-1.0], np.linspace(-0.95, 0.95, 9), [1.0]))
        for p in (P, P2, P.with_params(a=0.02)):
            ref = []
            with mp.workdps(60):
                a, b, c, d, q = (mp.mpf(v) for v in (p.a, p.b, p.c, p.d, p.q))
                for x in xs:
                    e = mp_unit_point(mp, x)
                    num = (q ** -n, a * b * c * d * q ** (n - 1), a * e, a / e)
                    den = (a * b, a * c, a * d, q)
                    ref.append(float(mp.re(mp.fsum(
                        mp.fprod(mp.qp(u, q, k) for u in num)
                        / mp.fprod(mp.qp(u, q, k) for u in den)
                        * q ** k
                        for k in range(n + 1)
                    ))))
            ref = np.array(ref)
            err = np.abs(aw.aw_eval(p, n, xs) - ref) / np.abs(ref)
            assert np.max(err) < 1e-12, p

    def test_a_zero_raises(self):
        # at a = 0 the 4phi3 of degree n >= 1 vanishes identically, so the
        # value cannot come from the symmetric row divided by aw_prefactor
        p = P.with_params(a=0.0)
        assert aw.aw_eval(p, 0, 0.3) == 1.0
        for n in (1, 4):
            with pytest.raises(ValueError):
                aw.aw_eval(p, n, 0.3)
        with pytest.raises(ValueError):
            aw.aw_gram_1d(p, 2)

    def test_scalar_call_matches_array_call(self):
        xs = np.array([-1.0, -0.4, 0.3, 0.95])
        for n in range(5):
            vals = aw.aw_eval(P, n, xs)
            for x, v in zip(xs, vals):
                s = aw.aw_eval(P, n, x)
                assert type(s) is float and s == v

    def test_polynomial_in_x(self):
        # degree-n values interpolate to a degree-n polynomial in x
        n = 3
        xs = np.linspace(-0.9, 0.9, 9)
        vals = [aw.aw_eval(P, n, x) for x in xs]
        coeffs = np.polynomial.polynomial.polyfit(xs, vals, n)
        recon = np.polynomial.polynomial.polyval(xs, coeffs)
        assert_allclose(recon, vals, rtol=1e-9, atol=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            aw.aw_eval(P, -1, 0.0)
        with pytest.raises(ValueError):
            aw.aw_eval(P, 2, 1.5)

    def test_prefactor(self):
        assert aw.aw_prefactor(P, 0) == 1.0
        ref = (
            P.a ** -2
            * aw.qpochhammer(P.a * P.b, P.q, 2)
            * aw.qpochhammer(P.a * P.c, P.q, 2)
            * aw.qpochhammer(P.a * P.d, P.q, 2)
        )
        assert_allclose(aw.aw_prefactor(P, 2), ref, rtol=1e-14)
        with pytest.raises(ValueError):
            aw.aw_prefactor(P.with_params(a=0.0), 1)


class TestWeight:
    def test_positive_on_open_interval(self):
        # w(x) sin(theta) as integrated by the Gram checks
        for x in np.linspace(-0.99, 0.99, 21):
            assert aw._theta_weight(P, x) > 0.0

    def test_h_product_splits(self):
        # h(x, a) with a = 0 is the empty product
        assert aw.h_prod(0.3, 0.0, 0.5) == 1.0

    def test_endpoint_rejected(self):
        with pytest.raises(ValueError):
            aw.h_prod(1.5, 0.2, 0.5)
        with pytest.raises(ValueError):
            aw.h_prod(np.array([0.3, -1.5]), 0.2, 0.5)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
    def test_h_product_matches_mpmath(self, q):
        # h(x, a) = |(a e^(i theta); q)_inf|^2 for real a, at every node;
        # a = -1 and -sqrt(q) are checked at the nodes -x against the
        # references of a = 1 and sqrt(q): h(-x, -a) = h(x, a) holds
        # factor by factor, and -x is an exact negation
        mp = pytest.importorskip("mpmath")
        xs = gauss_theta_nodes()
        rq = math.sqrt(q)
        for a in (1.0, rq, 0.2, -0.3, 0.95):
            with mp.workdps(20):
                ref = [float(abs(mp.qp(a * mp_unit_point(mp, x), q)) ** 2) for x in xs]
            assert_allclose(aw.h_prod(xs, a, q), ref, rtol=1e-13, err_msg=f"a={a}")
            if a in (1.0, rq):
                assert_allclose(aw.h_prod(-xs, -a, q), ref, rtol=1e-13, err_msg=f"a={-a}")

    @pytest.mark.parametrize("a,q", [(0.4, 0.5), (-0.3, 0.7), (0.95, 0.3)])
    def test_half_h_matches_mpmath(self, a, q):
        mp = pytest.importorskip("mpmath")
        xs = gauss_theta_nodes()
        eits = np.exp(1j * np.arccos(xs))
        with mp.workdps(20):
            ref = [complex(mp.qp(a * mp_unit_point(mp, x), q)) for x in xs]
        assert_allclose(aw._half_h(a, eits, q), ref, rtol=1e-13)

    @pytest.mark.parametrize("q", [0.3, 0.7, 0.99])
    def test_weight_numerator_is_one_product(self, q):
        # |(e^(2 i theta); q)_inf|^2 against 20-digit mpmath (3.5e-14 at
        # q = 0.99, measured), and against the four h-factors
        # h(x, +-1) h(x, +-sqrt(q)) it replaces, whose own rounding reaches
        # 7.5e-14 there.  The reference is the real product
        # prod_k (1 - 2 q^k cos 2 theta + q^2k), cos 2 theta = 2 x^2 - 1 from
        # the exact node, to the first q^k below 1e-25
        mp = pytest.importorskip("mpmath")
        xs = gauss_theta_nodes(64)
        with mp.workdps(20):
            qk, heads, powers = mp.mpf(q), [], []
            while qk > mp.mpf(10) ** -25:
                heads.append(1 + qk * qk)
                powers.append(qk)
                qk *= q
            ref = []
            for x in xs:
                twice_cos = 2 * (2 * mp.mpf(x) ** 2 - 1)
                prod = 2 - twice_cos  # the k = 0 factor
                for head, qk in zip(heads, powers):
                    prod *= head - qk * twice_cos
                ref.append(float(prod))
        got = aw._weight_numerator(xs, q)
        assert_allclose(got, ref, rtol=1e-13)
        rq = math.sqrt(q)
        four = np.prod([aw.h_prod(xs, a, q) for a in (1.0, -1.0, rq, -rq)], axis=0)
        assert_allclose(got, four, rtol=2e-13)

    def test_h_scalar_call_matches_array_call(self):
        xs = np.array([-1.0, -0.4, 0.3, 1.0])
        vals = aw.h_prod(xs, 0.6, 0.5)
        for x, v in zip(xs, vals):
            s = aw.h_prod(x, 0.6, 0.5)
            assert type(s) is float and s == v


class TestNorms:
    @pytest.mark.parametrize("p", [P, P2, aw.AWParams(0.9, -0.7, 0.5, 0.3, 0.9)],
                             ids=["P", "P2", "near-edge"])
    def test_matches_mpmath_closed_form(self, p):
        # the closed form summed by mpmath.qp at 30 digits from the exact
        # binary parameters; the float products read 4.9e-15 (measured)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            a, b, c, d, q = (mp.mpf(v) for v in (p.a, p.b, p.c, p.d, p.q))
            abcd = a * b * c * d
            for n in range(9):
                den = mp.qp(q ** (n + 1), q)
                for pair in (a * b, a * c, a * d, b * c, b * d, c * d):
                    den *= mp.qp(pair * q ** n, q)
                ref = 2 * mp.pi * mp.qp(abcd * q ** (2 * n), q) * mp.qp(abcd * q ** (n - 1), q, n) / den
                assert abs(aw.aw_norm(p, n) / float(ref) - 1.0) <= 1e-14, n

    def test_array_products_equal_the_scalar(self):
        # _qpochhammer against qcalc's scalar loop, entry by entry, for
        # infinite and finite orders, across the chunking step too
        starts = np.array([[0.95, -0.5, 0.0], [0.3, 1e-18, -0.999]])
        lengths = np.array([[0, 1, 2], [5, 0, 9]])
        for q in (0.1, 0.5, 0.99):
            inf = aw._qpochhammer(starts, q)
            fin = aw._qpochhammer(starts, q, lengths)
            for s, v, n, u in zip(starts.flat, inf.flat, lengths.flat, fin.flat):
                assert v == aw.qpochhammer(s, q) and u == aw.qpochhammer(s, q, n)
        wide = np.linspace(-0.9, 0.9, aw._QPRODUCT_CHUNK // 16)
        assert aw._qpochhammer(wide, 0.99).tolist() == [aw.qpochhammer(s, 0.99) for s in wide]

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            aw.aw_norm(P, -1)

    def test_array_norms_equal_the_scalar(self):
        # one array pass over all degrees, and over the tensor's per-index
        # parameters, equals aw_norm degree by degree bit for bit: the
        # factors past an entry's own truncation are exactly 1.0
        for p in (P, P2, aw.AWParams(0.9, -0.7, 0.5, 0.3, 0.9)):
            n = np.arange(13)
            products = aw._lead_products(p.a, p.b, p.c, p.d, p.q, n)
            norms = aw._norms(p.a, p.b, p.c, p.d, p.q, n, products)
            assert norms.tolist() == [aw.aw_norm(p, n) for n in range(13)]
        tp = aw.TensorParams(P, P2)
        ks = np.repeat(np.arange(4), 4)
        js = np.tile(np.arange(4), 4)
        d1s = np.array([tp.shifted_d1(k) for k in range(4)])
        c1s = np.array([tp.shifted_c1(k) for k in range(4)])
        norms = aw._norms(P.a, P.b, c1s[ks], d1s[ks], P.q, js,
                          aw._lead_products(P.a, P.b, c1s[ks], d1s[ks], P.q, js))
        assert norms.tolist() == [
            aw.aw_norm(aw._x_params(tp, "pq", k), j) for j, k in zip(js, ks)]


class TestThetaRule:
    def test_legendre_rule_bounds(self):
        # the theta rule takes Newton sweeps on the Legendre recurrence;
        # against numpy's eigensolver leggauss its theta nodes agree to
        # 9e-16 (4.4e-16 measured) and its weights to 1.7e-14 (8.8e-15
        # measured), and it integrates the even moments t^k, k <= 64, to
        # 1e-13 relative (7.2e-15 measured)
        thetas, wts = aw._theta_rule(256)
        ref_t, ref_w = np.polynomial.legendre.leggauss(256)
        assert np.max(np.abs(thetas - 0.5 * math.pi * (ref_t + 1.0))) <= 9e-16
        assert np.max(np.abs(wts - 0.5 * math.pi * ref_w)) <= 1.7e-14
        t, w = thetas / (0.5 * math.pi) - 1.0, wts / (0.5 * math.pi)
        for k in range(0, 65, 2):
            exact = 2.0 / (k + 1)
            assert abs(w @ t**k - exact) <= 1e-13 * exact, k

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 65])
    def test_small_and_odd_rules(self, n):
        # the mirrored half: an odd rule has the node 0 (theta = pi / 2).
        # From about n = 250 leggauss's own end weights drift (1.4e-10
        # relative at n = 257 against a 40-digit Newton rule, where this
        # rule reads 1.1e-12), so it is the oracle of small rules only
        thetas, wts = aw._theta_rule(n)
        assert thetas.shape == wts.shape == (n,) and not thetas.flags.writeable
        assert np.all(np.diff(thetas) > 0) and np.all(wts > 0)
        ref_t, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(thetas - 0.5 * math.pi * (ref_t + 1.0))) <= 9e-16
        assert np.max(np.abs(wts - 0.5 * math.pi * ref_w)) <= 1.7e-14
        assert_allclose(thetas + thetas[::-1], math.pi, rtol=0, atol=9e-16)
        assert_allclose(wts.sum(), math.pi, rtol=1e-15)


class TestGram1D:
    def test_norms_reproduced(self):
        res = aw.aw_gram_1d(P, 3)
        assert res.passed
        assert res.max_offdiag < 1e-10
        assert res.max_diag_relerr < 1e-10

    def test_total_mass(self):
        # degree-zero diagonal equals the closed-form n = 0 norm
        res = aw.aw_gram_1d(P, 0)
        assert_allclose(res.entries[(0, 0)], aw.aw_norm(P, 0), rtol=1e-12)

    @pytest.mark.parametrize("cap", [7, 8, 10, 12])
    @pytest.mark.parametrize("a", [0.2, 0.02])
    def test_recurrence_rows_certify_high_caps(self, a, cap):
        # the 4phi3 rows read max_offdiag 2.9e-5 at cap 7 for a = 0.2 and
        # 4e-2 at cap 6 for a = 0.02; the recurrence rows read about 8e-15
        res = aw.aw_gram_1d(P.with_params(a=a), cap)
        assert res.passed
        assert res.max_offdiag < 1e-12
        assert res.max_diag_relerr < 1e-12

    @pytest.mark.parametrize("a", [0.99, -0.99])
    def test_parameters_near_the_unit_circle(self, a):
        # h(x, a) nearly vanishes at x = +-1, where the weight peaks sharply;
        # the Gauss-Legendre theta rule still reads 2.4e-15 (measured)
        res = aw.aw_gram_1d(P.with_params(a=a), 12)
        assert res.passed
        assert res.max_offdiag < 1e-13 and res.max_diag_relerr < 1e-13

    def test_abcd_equal_to_q(self):
        # abcd = q makes the uncancelled n = 0 recurrence coefficient 0/0
        p = aw.AWParams(0.5, 0.5, 0.5, 0.8, 0.1)
        assert p.a * p.b * p.c * p.d == p.q
        assert aw.aw_gram_1d(p, 4).passed

    def test_convergence_in_node_count(self):
        coarse = aw.aw_gram_1d(P, 2, theta_nodes=64)
        fine = aw.aw_gram_1d(P, 2, theta_nodes=256)
        for key in coarse.entries:
            assert_allclose(coarse.entries[key], fine.entries[key], atol=1e-10)

    # parameters near the unit circle, q near 1, high caps and the empty
    # weight; the fixed 256-node rule read 3.3e-9 at a = 0.999 (caps 8-20)
    # and 6e-12 at q = 0.99, cap 40
    SIZED_RULE_CASES = {
        "a=0.999-cap8": (P.with_params(a=0.999), 8),
        "a=-0.999-cap8": (P.with_params(a=-0.999), 8),
        "a=0.999-cap20": (P.with_params(a=0.999), 20),
        "a=-0.999-cap20": (P.with_params(a=-0.999), 20),
        "a=0.99,b=-0.99-cap20": (P.with_params(a=0.99, b=-0.99), 20),
        "q=0.99-cap8": (P.with_params(q=0.99), 8),
        "q=0.99-cap40": (P.with_params(q=0.99), 40),
        "a=0.99,q=0.9-cap40": (P.with_params(a=0.99, q=0.9), 40),
        "r=0.4,q=0.5-cap40": (P, 40),
        "r=0.05,q=0.1-cap40": (aw.AWParams(0.05, -0.03, 0.01, 0.04, 0.1), 40),
        "zero-q=0.5": (aw.AWParams(0.0, 0.0, 0.0, 0.0, 0.5), 0),
        "zero-q=0.99": (aw.AWParams(0.0, 0.0, 0.0, 0.0, 0.99), 0),
    }

    @pytest.mark.parametrize("p,cap", SIZED_RULE_CASES.values(), ids=SIZED_RULE_CASES)
    def test_sized_rule_certifies_at_rounding(self, p, cap):
        res = aw.aw_gram_1d(p, cap)
        assert res.theta_nodes == aw._theta_node_count((p.a, p.b, p.c, p.d), p.q, cap)
        assert res.max_offdiag <= 1e-13 and res.max_diag_relerr <= 1e-13

    def test_coincident_poles_take_more_nodes(self):
        # four poles at one point act as one of fourth order: the node count
        # of the nearest pole alone (192) reads 1.1e-10 here, the fixed
        # 256-node rule 1e-12; the floor left is rounding of 1 - cos(theta)
        p = aw.AWParams(0.99, 0.99, 0.99, 0.99, 0.5)
        res = aw.aw_gram_1d(p, 3)
        assert res.theta_nodes > aw._theta_node_count((0.99, 0.3, -0.2, 0.1), 0.5, 3)
        assert res.max_offdiag <= 2e-12 and res.max_diag_relerr <= 2e-12

    @pytest.mark.filterwarnings("error")
    def test_q_near_one_is_a_diagnosed_failure(self):
        # at q = 0.999 the weight numerator passes 1e308 at some nodes and
        # (q^(n+1); q)_inf is about 1e-714: a failed Gram that names them,
        # not a NaN with overflow and divide-by-zero warnings
        res = aw.aw_gram_1d(aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.999), 8)
        assert not res.passed
        assert res.notes.startswith("at q = 0.999: ")
        assert "weight numerator |(e^(2 i theta); q)_inf|^2 overflows" in res.notes
        assert "(q^(n+1); q)_inf of the norms underflows to 0 from degree 0" in res.notes
        assert aw.aw_gram_1d(aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.99), 8).notes == ""

    def test_node_count_is_monotone(self):
        # in the modulus of one parameter and in q and the cap; and a
        # further denominator factor never lowers the count
        rs = [0.0, 0.01, 0.05, 0.2, 0.4, 0.7, 0.9, 0.97, 0.99, 0.995, 0.999, 0.9999, 0.99999]
        qs = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999]
        caps = [0, 1, 2, 3, 5, 8, 12, 20, 40, 100, 400]
        for rest in ((), (0.3, -0.2, 0.1), (-0.99,)):
            counts = np.array([[[aw._theta_node_count((r, *rest), q, cap) for cap in caps]
                                for q in qs] for r in rs])
            for axis in range(3):
                assert np.all(np.diff(counts, axis=axis) >= 0), (rest, axis)
            assert counts.min() >= 8 and counts.max() == aw._MAX_THETA_NODES
        for dens in ((0.9,), (0.9, 0.5), (0.9, 0.5, 0.9), (0.9, 0.5, 0.9, -0.9)):
            more = dens + (0.7,)
            assert aw._theta_node_count(more, 0.5, 3) >= aw._theta_node_count(dens, 0.5, 3)

    def test_benchmark_ranges_take_few_nodes(self):
        # the seeded aw_tensor blocks: |a..d| in [0.2, 0.4] with either sign,
        # q <= 0.7, caps <= 8
        worst = max(
            aw._theta_node_count(tuple(s * m for s, m in zip(signs, mags)), q, cap)
            for mags in itertools.product((0.2, 0.3, 0.4), repeat=4)
            for signs in itertools.product((1.0, -1.0), repeat=4)
            for q in (0.3, 0.7) for cap in (2, 3, 8))
        assert worst <= 56

    def test_result_states_its_node_count(self):
        from bivarortho import bivariate, quad

        assert aw.aw_gram_1d(P, 3).theta_nodes == aw._theta_node_count(
            (P.a, P.b, P.c, P.d), P.q, 3)
        assert aw.aw_gram_1d(P, 3, theta_nodes=64).theta_nodes == 64
        tp = aw.TensorParams(P, P2)
        # the x-integrand's count: a1, b1, c1 and d1 at k = 0 (the largest
        # shifts, alpha = 1, beta = delta = 0) exceeds block 2's
        assert aw._theta_node_count((P.a, P.b, P.c, P.d), P.q, 2) >= aw._theta_node_count(
            (P2.a, P2.b, P2.c, P2.d), P2.q, 2)
        for mode in ("uv", "pq", "self"):
            assert aw.tensor_biortho_check(tp, 2, mode=mode).theta_nodes == (
                aw._theta_node_count((P.a, P.b, P.c, P.d), P.q, 2))
            assert aw.tensor_biortho_check(tp, 2, mode=mode, theta_nodes=72).theta_nodes == 72
        assert quad.gram(bivariate.Z(0.5), 2).theta_nodes is None


class TestTensorSystems:
    @pytest.mark.parametrize("mode", ["uv", "pq", "self"])
    def test_biorthogonality(self, mode):
        tp = aw.TensorParams(P, P2)
        res = aw.tensor_biortho_check(tp, 1, mode=mode)
        assert res.passed, (mode, res.max_offdiag, res.max_diag_relerr)
        assert res.notes == mode

    @pytest.mark.parametrize("mode", ["uv", "pq", "self"])
    def test_matches_per_pair_loop(self, mode):
        # every entry of the weighted matrix products against one sum per
        # pair of index tuples over the same node values
        tp = aw.TensorParams(P, P2)
        cap, q = 2, P.q
        res = aw.tensor_biortho_check(tp, cap, mode=mode)
        thetas, wts = aw._theta_rule(res.theta_nodes)
        xs, eits = np.cos(thetas), np.exp(1j * thetas)

        def rows(p, k):
            return aw.aw_prefactor(p, k) * aw.aw_eval(p, k, xs)

        wx = aw._weight_numerator(xs, q) / (aw.h_prod(xs, P.a, q) * aw.h_prod(xs, P.b, q))
        if mode != "pq":
            wx = wx / aw.h_prod(xs, P.c, q)
        wy = aw._theta_weight(P2, xs)
        for (j, k) in res.indices:
            left = rows(aw._x_params(tp, mode, k), j)
            if mode == "pq":
                left = left / aw.h_prod(xs, tp.shifted_c1(k), q)
            elif mode == "self":
                left = left / aw._half_h(tp.shifted_d1(k), eits, q)
            for (m, n) in res.indices:
                right = rows(aw._x_params(tp, mode, n), m)
                if mode == "self":
                    right = right / np.conj(aw._half_h(tp.shifted_d1(n), eits, q))
                else:
                    right = right / aw.h_prod(xs, tp.shifted_d1(n), q)
                x_int = np.sum(wts * wx * left * right)
                y_int = np.sum(wts * wy * rows(P2, k) * rows(P2, n))
                got = res.entries[((j, k), (m, n))]
                scale = math.sqrt(
                    abs(res.entries[((j, k), (j, k))] * res.entries[((m, n), (m, n))])
                )
                assert abs(got - (x_int * y_int).real) <= 1e-12 * scale

    def test_diagonal_is_product_of_1d_norms(self):
        tp = aw.TensorParams(P, P2)
        for mode in ("uv", "pq", "self"):
            ref = aw.tensor_diag_ref(tp, mode, 1, 1)
            shifted = aw._x_params(tp, mode, 1)
            assert_allclose(
                ref, aw.aw_norm(shifted, 1) * aw.aw_norm(P2, 1), rtol=1e-14
            )

    def test_published_forms_deviate_where_expected(self):
        # the p/q closed form matches the product oracle; the u/v and
        # self-paired ones carry typos of order 1e-2 at these parameters
        tp = aw.TensorParams(P, P2)
        for j in range(3):
            for k in range(3):
                assert aw.tensor_diag_printed(tp, "pq", j, k) == aw.tensor_diag_ref(
                    tp, "pq", j, k
                )
        dev_uv = max(
            abs(
                aw.tensor_diag_printed(tp, "uv", j, k)
                / aw.tensor_diag_ref(tp, "uv", j, k)
                - 1.0
            )
            for j in range(3)
            for k in range(1, 3)
        )
        dev_self = max(
            abs(
                aw.tensor_diag_printed(tp, "self", j, k)
                / aw.tensor_diag_ref(tp, "self", j, k)
                - 1.0
            )
            for j in range(1, 3)
            for k in range(3)
        )
        assert dev_uv > 1e-3
        assert dev_self > 1e-3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["uv", "pq", "self"])
    def test_q_near_one_is_a_diagnosed_failure(self, mode):
        # at q = 0.999 in block 1 its weight numerator and h(x, d1) pass
        # 1e308 and (q^(n+1); q)_inf underflows to 0: a failed check that
        # names them, not a NaN with overflow and divide-by-zero warnings.
        # The products out of range do not depend on the node count, which
        # is kept small here
        tp = aw.TensorParams(P.with_params(q=0.999), P2)
        res = aw.tensor_biortho_check(tp, 2, mode=mode, theta_nodes=64)
        assert not res.passed
        assert res.notes.startswith(f"{mode}; at q = 0.999: ")
        assert "weight numerator |(e^(2 i theta); q)_inf|^2 overflows" in res.notes
        assert "h(x, d) leaves the float range" in res.notes
        assert "(q^(n+1); q)_inf of the norms underflows to 0 from degree 0" in res.notes
        res = aw.tensor_biortho_check(aw.TensorParams(P.with_params(q=0.99), P2), 2, mode=mode)
        assert res.passed and res.notes == mode

    def test_negative_caps_raise(self):
        tp = aw.TensorParams(P, P2)
        with pytest.raises(ValueError, match="degree_cap must be nonnegative"):
            aw.aw_gram_1d(P, -1)
        for mode in ("uv", "pq", "self"):
            with pytest.raises(ValueError, match="index_cap must be nonnegative"):
                aw.tensor_biortho_check(tp, -1, mode=mode)

    def test_unknown_mode_raises(self):
        tp = aw.TensorParams(P, P2)
        with pytest.raises(ValueError):
            aw.tensor_biortho_check(tp, 1, mode="nope")
        with pytest.raises(ValueError):
            aw.tensor_diag_printed(tp, "nope", 0, 0)


def _results_digest(results):
    """sha256 prefix over every block (indices, G, ref), the diagonal
    references, maxima, verdict, notes and node count of the results."""
    h = hashlib.sha256()
    for res in results:
        for idxs, g, ref in res.blocks:
            h.update(repr(idxs).encode())
            h.update(np.ascontiguousarray(g).tobytes())
            h.update(np.ascontiguousarray(ref).tobytes())
        h.update(repr((sorted(res.diag_ref.items()), res.max_offdiag, res.max_diag_relerr,
                       res.passed, res.notes, res.theta_nodes)).encode())
    return h.hexdigest()[:16]


class TestAskeyWilsonPinned:
    # the 1D cap ladder 1..8 and the criterion-8 tensor checks of the
    # aw_tensor benchmark workload, recorded while the leading coefficients
    # 2^n (abcd q^(n-1); q)_n of the rows were scalar qcalc.qpochhammer
    # calls, one per degree; TestNorms.test_array_products_equal_the_scalar
    # is the oracle of the array pass that replaced them
    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63,
        reason="digests recorded with x87 80-bit extended np.longdouble",
    )
    def test_results_bit_identical(self):
        ladder = [aw.aw_gram_1d(P, cap, diag_rel_tol=1e-6, offdiag_tol=1e-6) for cap in range(1, 9)]
        assert _results_digest(ladder) == "52f08087dceec0aa"
        tp = aw.TensorParams(P, P2)
        tensors = [aw.tensor_biortho_check(tp, 2, mode=mode, diag_rel_tol=1e-5, offdiag_tol=1e-6)
                   for mode in ("self", "uv", "pq")]
        assert _results_digest(tensors) == "8cfec8c07e38054c"

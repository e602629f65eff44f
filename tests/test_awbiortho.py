"""Tests for the Askey-Wilson module: evaluation, weight, closed-form
norms, the 1D Gram matrix, and the three tensor biorthogonality pairings."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivarortho import awbiortho as aw

P = aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.5)
P2 = aw.AWParams(0.3, -0.2, 0.15, 0.25, 0.5)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            aw.AWParams(1.2, 0.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            aw.AWParams(0.2, 0.0, 0.0, 0.0, 1.5)

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

    @pytest.mark.parametrize("n", range(6))
    def test_forward_backward_summation(self, n):
        for x in (-0.9, 0.2, 0.75):
            fwd = aw.aw_eval(P, n, x)
            bwd = aw.aw_eval(P, n, x, reverse=True)
            assert_allclose(fwd, bwd, rtol=1e-12, atol=1e-12)

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

    def test_convergence_in_node_count(self):
        coarse = aw.aw_gram_1d(P, 2, theta_nodes=64)
        fine = aw.aw_gram_1d(P, 2, theta_nodes=256)
        for key in coarse.entries:
            assert_allclose(coarse.entries[key], fine.entries[key], atol=1e-10)


class TestTensorSystems:
    @pytest.mark.parametrize("mode", ["uv", "pq", "self"])
    def test_biorthogonality(self, mode):
        tp = aw.TensorParams(P, P2)
        res = aw.tensor_biortho_check(tp, 1, mode=mode)
        assert res.passed, (mode, res.max_offdiag, res.max_diag_relerr)
        assert res.notes == mode

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

    def test_unknown_mode_raises(self):
        tp = aw.TensorParams(P, P2)
        with pytest.raises(ValueError):
            aw.tensor_biortho_check(tp, 1, mode="nope")
        with pytest.raises(ValueError):
            aw.tensor_diag_printed(tp, "nope", 0, 0)

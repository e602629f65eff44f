"""Tests for the radial polynomial families: coefficient tables against
scipy oracles, norms against direct quadrature/lattice summation, shift and
recurrence machinery, and zeros."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, eval_jacobi

from bivarortho import quad, radial

XS = np.array([0.05, 0.3, 0.71, 1.4, 2.9])
XS01 = np.array([0.04, 0.22, 0.5, 0.77, 0.96])


class TestClassicalTables:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_laguerre_matches_scipy(self, beta, n, alpha):
        fam = radial.laguerre(beta)
        ref = eval_genlaguerre(n, alpha + beta, XS)
        assert_allclose(radial.radial_eval(fam, n, alpha, XS), ref, rtol=1e-11)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.5, 2.0), (2.0, -0.5)])
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_jacobi_matches_scipy(self, beta, gamma, n, alpha):
        # the family is P_n^(alpha+gamma, beta) evaluated at 1 - 2x
        fam = radial.shifted_jacobi(beta, gamma)
        ref = eval_jacobi(n, alpha + gamma, beta, 1.0 - 2.0 * XS01)
        assert_allclose(radial.radial_eval(fam, n, alpha, XS01), ref, rtol=1e-10)

    def test_power_coeffs_are_reversed_table(self):
        fam = radial.laguerre(0.5)
        c = radial.radial_coeffs(fam, 4, 1)
        p = radial.radial_power_coeffs(fam, 4, 1)
        assert_allclose(p, c[::-1])

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            radial.radial_coeffs(radial.laguerre(0.0), -1, 0)

    def test_unknown_kind_raises(self):
        bad = radial.RadialFamily("nope")
        with pytest.raises(ValueError):
            radial.radial_coeffs(bad, 2, 0)
        with pytest.raises(ValueError):
            radial.zeta(bad, 2, 0)


class TestQTableStructure:
    @pytest.mark.parametrize(
        "fam",
        [
            radial.q_laguerre(0.5, 0.4),
            radial.wall(0.5, 0.4),
            radial.little_q_jacobi(0.5, 0.7, 0.4),
        ],
        ids=["qlaguerre", "wall", "qjacobi"],
    )
    def test_three_term_recurrence_from_tables(self, fam):
        # x phi_n = a phi_{n+1} + c phi_n + b phi_{n-1} with the matched
        # coefficients reproduces the shifted table exactly
        for n in range(1, 5):
            rc = radial.recurrence_coeffs(fam, n, 1)
            assert rc.fit_residual < 1e-11
            pn = radial.radial_power_coeffs(fam, n, 1)
            x_pn = np.concatenate(([0.0], pn))
            rebuilt = rc.a * radial.radial_power_coeffs(fam, n + 1, 1).copy()
            rebuilt[: n + 1] += rc.c * pn
            rebuilt[:n] += rc.b * radial.radial_power_coeffs(fam, n - 1, 1)
            scale = np.max(np.abs(x_pn))
            assert np.max(np.abs(x_pn - rebuilt)) < 1e-10 * scale

    def test_longdouble_dtype_respected(self):
        fam = radial.wall(0.5, 0.3)
        c = radial.radial_coeffs(fam, 5, 2, dtype=np.longdouble)
        assert c.dtype == np.longdouble
        assert_allclose(
            c.astype(float), radial.radial_coeffs(fam, 5, 2), rtol=1e-13
        )


ALL_FAMILIES = [
    radial.laguerre(0.5),
    radial.shifted_jacobi(0.5, 0.7),
    radial.q_laguerre(0.5, 0.5),
    radial.wall(0.5, 0.5),
    radial.little_q_jacobi(0.5, 0.7, 0.5),
]
FAM_IDS = ["laguerre", "jacobi", "qlaguerre", "wall", "qjacobi"]


class TestTableCache:
    def test_returned_table_is_read_only(self):
        c = radial.radial_coeffs(radial.laguerre(0.5), 3, 1)
        with pytest.raises(ValueError):
            c[0] = 1.0
        assert radial.radial_coeffs(radial.laguerre(0.5), 3, 1) is c

    def test_dtypes_never_share_an_entry(self):
        fam = radial.little_q_jacobi(0.5, 0.7, 0.3)
        radial.radial_coeffs.cache_clear()
        c = radial.radial_coeffs(fam, 6, 1)
        ld = radial.radial_coeffs(fam, 6, 1, np.longdouble)
        assert c.dtype == np.float64
        assert ld.dtype == np.longdouble
        assert radial.radial_coeffs(fam, 6, 1, dtype=np.longdouble).dtype == np.longdouble


class TestNorms:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_zeta_matches_direct_integration(self, fam, alpha):
        # integrate phi_n^2 x^alpha dnu independently of the closed form
        block = quad.radial_gram(fam, alpha, 3)
        zeta = [radial.zeta(fam, n, alpha) for n in range(4)]
        assert_allclose(np.diag(block), zeta, rtol=1e-9)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_orthogonality_distinct_degrees(self, fam):
        alpha = 1
        block = quad.radial_gram(fam, alpha, 3)
        for n in range(3):
            for m in range(n + 1, 4):
                scale = math.sqrt(
                    radial.zeta(fam, n, alpha) * radial.zeta(fam, m, alpha)
                )
                assert abs(block[n, m]) < 1e-10 * scale
                assert abs(block[m, n]) < 1e-10 * scale

    def test_laguerre_mass_is_gamma(self):
        fam = radial.laguerre(0.5)
        assert_allclose(radial.measure_mass(fam, 2), math.gamma(3.5), rtol=1e-13)

    def test_jacobi_mass_is_beta_integral(self):
        fam = radial.shifted_jacobi(0.7, 0.4)
        ref = math.gamma(3.4) * math.gamma(1.7) / math.gamma(5.1)  # B(3.4, 1.7)
        assert_allclose(radial.measure_mass(fam, 2), ref, rtol=1e-13)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_zeta_ratio_telescoping(self, fam):
        # the alpha-raising ladder telescopes the norm down to degree zero
        for n in range(1, 5):
            prod = radial.zeta_ratio_product(fam, n, 1)
            ref = radial.zeta(fam, n, 1) / radial.zeta(fam, 0, 1 + n)
            assert_allclose(prod, ref, rtol=1e-11)


class TestShiftMachinery:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_alpha_raising_relation(self, fam):
        # phi_n(x; alpha) - a_n phi_n(x; alpha+1) = b_n phi_{n-1}(x; alpha+1)
        alpha = 1
        for n in range(1, 5):
            a = radial.shift_a(fam, n, alpha)
            b = radial.shift_b(fam, n, alpha)
            lhs = radial.radial_power_coeffs(fam, n, alpha) - a * radial.radial_power_coeffs(
                fam, n, alpha + 1
            )
            rhs = np.pad(radial.radial_power_coeffs(fam, n - 1, alpha + 1), (0, 1))
            scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(lhs - b * rhs)) < 1e-11 * scale

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_shift_connection_expansion(self, fam):
        # phi_n(.; alpha+1) = sum_j lambda_j phi_j(.; alpha)
        alpha, n = 1, 4
        lam = radial.shift_lambdas(fam, n, alpha)
        rebuilt = np.zeros(n + 1)
        for j in range(n + 1):
            rebuilt[: j + 1] += lam[j] * radial.radial_power_coeffs(fam, j, alpha)
        target = radial.radial_power_coeffs(fam, n, alpha + 1)
        assert_allclose(rebuilt, target, rtol=1e-9, atol=1e-11)

    def test_shift_b_vanishes_at_zero(self):
        assert radial.shift_b(radial.laguerre(0.5), 0, 1) == 0.0


class TestRecurrenceFormulas:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_closed_forms_match_expansion_matching(self, fam, alpha):
        for n in range(5):
            rc = radial.recurrence_coeffs(fam, n, alpha)
            assert rc.formula_mismatch < 1e-10
            assert rc.fit_residual < 1e-11


class TestZeros:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_eigensolver_vs_companion_matrix(self, fam):
        # numpy.roots on the power coefficients is the independent oracle
        for n in range(1, 5):
            z = radial.radial_zeros(fam, n, 1)
            c = radial.radial_coeffs(fam, n, 1)
            ref = np.sort(np.roots(c).real)
            assert_allclose(z, ref, rtol=1e-8, atol=1e-12)

    def test_zeros_inside_support(self):
        z = radial.radial_zeros(radial.shifted_jacobi(0.5, 0.5), 4, 1)
        assert np.all((z > 0.0) & (z < 1.0))
        z = radial.radial_zeros(radial.laguerre(0.5), 4, 1)
        assert np.all(z > 0.0)

    def test_interlacing(self):
        fam = radial.laguerre(0.5)
        for n in range(1, 5):
            zn = radial.radial_zeros(fam, n, 1)
            znp = radial.radial_zeros(fam, n + 1, 1)
            # each zero of phi_n sits strictly between consecutive zeros of phi_{n+1}
            assert np.all(znp[:-1] < zn) and np.all(zn < znp[1:])

    def test_alpha_monotone_zeros(self):
        # zeros increase with alpha across a sampled grid
        for fam in (radial.laguerre(0.0), radial.shifted_jacobi(0.5, 0.5)):
            prev = None
            for alpha in (0.0, 0.5, 1.0, 2.0):
                z = radial.radial_zeros(fam, 3, alpha)
                if prev is not None:
                    assert np.all(z > prev)
                prev = z

    def test_degree_zero(self):
        assert radial.radial_zeros(radial.laguerre(0.0), 0, 0).size == 0

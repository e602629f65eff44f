"""Tests for the radial polynomial families: coefficient tables against
scipy oracles, norms against direct quadrature/lattice summation, shift
machinery, the closed-form recurrences against the tables, and zeros."""

import math
from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre, eval_jacobi

from bivarortho import quad, radial
from bivarortho.qcalc import pochhammer, qpochhammer

XS = np.array([0.05, 0.3, 0.71, 1.4, 2.9])
XS01 = np.array([0.04, 0.22, 0.5, 0.77, 0.96])
TINY = np.finfo(float).tiny  # the smallest normal float


def power_coeffs(fam, n, alpha):
    """Table coefficients in ascending power order: p[k] multiplies x^k."""
    return radial.radial_coeffs(fam, n, alpha)[::-1].copy()


def table_values(fam, n, alpha, x):
    """phi_n(x; alpha) from the exact coefficient table."""
    return np.polynomial.polynomial.polyval(x, power_coeffs(fam, n, alpha))


def shift_a(fam, n, alpha):
    """Coefficient a_n(alpha) of the alpha-raising relation
    phi_n(x; alpha) - a_n phi_n(x; alpha+1) = b_n phi_{n-1}(x; alpha+1)."""
    return float(radial.radial_coeffs(fam, n, alpha)[0] / radial.radial_coeffs(fam, n, alpha + 1)[0])


def shift_b(fam, n, alpha):
    """Coefficient b_n(alpha) of the alpha-raising relation; b_0 = 0."""
    if n == 0:
        return 0.0
    cn_a = radial.radial_coeffs(fam, n, alpha)
    cn_a1 = radial.radial_coeffs(fam, n, alpha + 1)
    c0nm1_a1 = radial.radial_coeffs(fam, n - 1, alpha + 1)[0]
    return float((cn_a1[0] * cn_a[1] - cn_a[0] * cn_a1[1]) / (c0nm1_a1 * cn_a1[0]))


def shift_lambdas(fam, n, alpha):
    """Connection coefficients lambda_j with
    phi_n(x; alpha+1) = sum_j lambda_j(n, alpha) phi_j(x; alpha), from the
    alpha-raising coefficients a_k, b_k."""
    lam = np.zeros(n + 1)
    lam[n] = 1.0 / shift_a(fam, n, alpha)
    for j in range(n - 1, -1, -1):
        prod = 1.0
        for k in range(n - j):
            prod *= shift_b(fam, n - k, alpha) / shift_a(fam, n - k, alpha)
        lam[j] = (-1.0) ** (n - j) * prod / shift_a(fam, j, alpha)
    return lam


def zeta_ratio_product(fam, n, alpha):
    """Telescoped norm ratio zeta_n(alpha) / zeta_0(alpha + n): each step is
    zeta_k(alpha) = b_k(alpha) a_{k-1}(alpha) [c_0(k, alpha) / c_0(k-1, alpha)]
    zeta_{k-1}(alpha + 1), from pairing the raising relation against
    x phi_{k-1} with the connection coefficient lambda_{k-1} = 1 / a_{k-1}."""

    def lead(k, al):
        return power_coeffs(fam, k, al)[-1]

    prod = 1.0
    for j in range(n):
        prod *= (
            shift_b(fam, n - j, alpha + j)
            * shift_a(fam, n - j - 1, alpha + j)
            * lead(n - j, alpha + j)
            / lead(n - j - 1, alpha + j)
        )
    return prod


class TestClassicalTables:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_laguerre_matches_scipy(self, beta, n, alpha):
        fam = radial.laguerre(beta)
        ref = eval_genlaguerre(n, alpha + beta, XS)
        assert_allclose(table_values(fam, n, alpha, XS), ref, rtol=1e-11)

    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.5, 2.0), (2.0, -0.5)])
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_jacobi_matches_scipy(self, beta, gamma, n, alpha):
        # the family is P_n^(alpha+gamma, beta) evaluated at 1 - 2x
        fam = radial.shifted_jacobi(beta, gamma)
        ref = eval_jacobi(n, alpha + gamma, beta, 1.0 - 2.0 * XS01)
        assert_allclose(table_values(fam, n, alpha, XS01), ref, rtol=1e-10)

    def test_power_coeffs_are_reversed_table(self):
        fam = radial.laguerre(0.5)
        c = radial.radial_coeffs(fam, 4, 1)
        p = power_coeffs(fam, 4, 1)
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
        with pytest.raises(ValueError):
            radial.norms(bad, [0], [2])
        with pytest.raises(ValueError):
            radial.coeff_rows(bad, [2, 3], [0, 1])
        with pytest.raises(ValueError):
            radial.leading_coeffs(bad, 0, 2)
        for fam in (bad, radial.wall(0.5, 0.5)):
            with pytest.raises(ValueError, match="not a continuous family"):
                radial.measure_mass(fam, 0)


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
        # x phi_n = a phi_{n+1} + c phi_n + b phi_{n-1} with the closed-form
        # coefficients (a, c, b) = (c_0(n)/c_0(n+1), A_n, B_n c_0(n)/c_0(n-1))
        # reproduces the shifted table exactly
        A, B = radial.recurrence(fam, 1, 6)
        c0 = [radial.radial_coeffs(fam, k, 1)[0] for k in range(6)]
        for n in range(1, 5):
            pn = power_coeffs(fam, n, 1)
            x_pn = np.concatenate(([0.0], pn))
            rebuilt = c0[n] / c0[n + 1] * power_coeffs(fam, n + 1, 1)
            rebuilt[: n + 1] += float(A[n]) * pn
            rebuilt[:n] += (
                float(B[n]) * c0[n] / c0[n - 1] * power_coeffs(fam, n - 1, 1)
            )
            scale = np.max(np.abs(x_pn))
            assert np.max(np.abs(x_pn - rebuilt)) < 1e-10 * scale


ALL_FAMILIES = [
    radial.laguerre(0.5),
    radial.shifted_jacobi(0.5, 0.7),
    radial.q_laguerre(0.5, 0.5),
    radial.wall(0.5, 0.5),
    radial.little_q_jacobi(0.5, 0.7, 0.5),
]
FAM_IDS = ["laguerre", "jacobi", "qlaguerre", "wall", "qjacobi"]

# parameters where the closed forms (recurrence and norm) meet a removable
# 0/0 at alpha = 0: alpha+beta+gamma = -1 and 0 for shifted Jacobi, abq = 1
# and ab = 1 for little q-Jacobi (a = q^(alpha+beta), b = q^gamma); q = 1/4
# makes the powers q^(+-1/2) exact, so the zeros are exact in floating point
REMOVABLE_CASES = [
    radial.shifted_jacobi(-0.5, -0.5),
    radial.shifted_jacobi(0.5, -0.5),
    radial.little_q_jacobi(-0.5, -0.5, 0.25),
    radial.little_q_jacobi(-0.5, 0.5, 0.25),
]
REMOVABLE_IDS = ["jacobi-t-1", "jacobi-t0", "qjacobi-abq1", "qjacobi-ab1"]


def _one_block(fam, alpha, nmax):
    """The radial Gram block of phi_0..phi_nmax(x; alpha), not scaled by
    the closed-form norms: a one-block quad.radial_grams request with unit
    row factors."""
    return quad.radial_grams(fam, [alpha], [nmax], [np.ones(nmax + 1)])[0]


class TestNorms:
    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS
    )
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_zeta_matches_direct_integration(self, fam, alpha):
        # integrate phi_n^2 x^alpha dnu independently of the closed form
        block = _one_block(fam, alpha, 3)
        zeta = [radial.zeta(fam, n, alpha) for n in range(4)]
        assert_allclose(np.diag(block), zeta, rtol=1e-9)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_orthogonality_distinct_degrees(self, fam):
        alpha = 1
        block = _one_block(fam, alpha, 3)
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

    @pytest.mark.parametrize("beta", [-0.9, 0.0, 0.7, 169.5, 171.0, 200.0, 1000.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.7, 30.2])
    def test_jacobi_mass_matches_mpmath_beta(self, beta, gamma):
        # B(alpha + gamma + 1, beta + 1) at 40 digits; math.gamma(beta + 1)
        # alone overflows past beta = 170
        mp = pytest.importorskip("mpmath")
        fam = radial.shifted_jacobi(beta, gamma)
        with mp.workdps(40):
            for alpha in (0, 3, 17):
                ref = mp.beta(mp.mpf(alpha + gamma + 1.0), mp.mpf(beta + 1.0))
                got = _mp_exact(mp, radial.measure_mass(fam, alpha))
                assert abs(got - ref) <= 2e-15 * ref, (alpha, got, ref)

    @pytest.mark.parametrize("fam", [radial.laguerre(40.5), radial.shifted_jacobi(40.5, 0.3)],
                             ids=["laguerre", "jacobi"])
    def test_mass_products_run_in_chunks(self, fam, monkeypatch):
        # a count of many chunks gives the one-chunk product to rounding
        whole = radial.measure_mass(fam, 25)
        monkeypatch.setattr(radial, "_PRODUCT_CHUNK", 7)
        chunked = radial.measure_mass(fam, 25)
        assert chunked.dtype == np.longdouble
        assert abs(chunked - whole) <= 1e-17 * whole

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fam,alphas",
        [(radial.laguerre(0.5), [0, 1, 3, 17, 65540]),
         (radial.laguerre(-0.999), [0, 2, 40]),
         (radial.laguerre(1750.5), [0, 2, 3, 4, 17]),
         (radial.shifted_jacobi(0.7, 0.4), list(range(41))),
         (radial.shifted_jacobi(-0.999, 70000.3), [0, 3, 17]),
         (radial.shifted_jacobi(1e5, 0.5), [0, 1, 2]),
         (radial.shifted_jacobi(0.5, -0.5), [0, 1, 2])],
        ids=["laguerre", "laguerre-0.999", "laguerre-past-range", "jacobi", "jacobi-chunks",
             "jacobi-beta-chunks", "jacobi-t0"],
    )
    @pytest.mark.parametrize("chunk", [None, 7, 128], ids=["chunk", "chunk7", "chunk128"])
    def test_array_mass_is_the_one_alpha_masses(self, fam, alphas, chunk, monkeypatch):
        # one pass over every alpha gives each one-alpha mass bit for bit:
        # Gamma(65541.5) and Gamma(1754.5 + alpha) past the range read inf,
        # x = alpha + gamma + 1 > 65536 takes two chunks, and small chunks
        # take several entries a pass, padded past their own counts
        if chunk:
            monkeypatch.setattr(radial, "_PRODUCT_CHUNK", chunk)
        masses = radial.measure_mass(fam, np.array(alphas))
        assert masses.dtype == np.longdouble and masses.shape == (len(alphas),)
        for alpha, mass in zip(alphas, masses):
            one = radial.measure_mass(fam, alpha)
            assert type(one) is np.longdouble
            assert mass == one, (alpha, mass, one)
        if fam.beta == 1750.5:
            assert np.isinf(masses[-1]) and np.isfinite(masses[0])

    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES + [radial.q_laguerre(0.5, 0.999, 2.5)],
        ids=FAM_IDS + REMOVABLE_IDS + ["qlaguerre-q0.999"],
    )
    def test_rows_are_the_rows_alone(self, fam):
        # one call with a row per alpha, each to its own degree as gram
        # asks for them: every row is the one-alpha call at its degree, bit
        # for bit, and so is every prefix of a longer row
        alphas = list(range(12))
        rows = radial.norms(fam, alphas, [11 - a for a in alphas])
        assert [(row.dtype, row.shape) for row in rows] == [(np.longdouble, (12 - a,))
                                                             for a in alphas]
        for alpha, row in zip(alphas, rows):
            assert np.array_equal(row, radial.norms(fam, [alpha], [11 - alpha])[0])
            for n in (0, 1, 6):
                if n <= 11 - alpha:
                    assert np.array_equal(row[:n + 1], radial.norms(fam, [alpha], [n])[0])

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_zeta_ratio_telescoping(self, fam):
        # the alpha-raising ladder telescopes the norm down to degree zero
        for n in range(1, 5):
            prod = zeta_ratio_product(fam, n, 1)
            ref = radial.zeta(fam, n, 1) / radial.zeta(fam, 0, 1 + n)
            assert_allclose(prod, ref, rtol=1e-11)


# the lattice families of the Gram certification, their removable cases
# and the hard configurations of the cap tests
LATTICE_FAMILIES = [
    radial.wall(0.5, 0.3),
    radial.wall(0.5, 0.8),
    radial.wall(1.813518, 0.311057),
    radial.wall(2.0, 0.8),
    radial.little_q_jacobi(0.5, 0.5, 0.3),
    radial.little_q_jacobi(1.8, 0.5, 0.3),
    radial.little_q_jacobi(-0.5, -0.5, 0.5),
    radial.little_q_jacobi(-0.5, -0.5, 0.25),
    radial.little_q_jacobi(-0.5, 0.5, 0.25),
]
LATTICE_IDS = ["wall-q0.3", "wall-q0.8", "wall-large-beta", "wall-beta2-q0.8", "qjacobi-q0.3",
               "qjacobi-large-beta", "qjacobi-negative", "qjacobi-abq1", "qjacobi-ab1"]


# the live mask of a one-block radial.block_rows evaluator
ONE_BLOCK = np.ones(1, bool)


def _mp_params(mp, fam, alpha):
    # the exponent alpha + beta as the library forms it, in double
    q = mp.mpf(fam.q)
    a = q ** mp.mpf(alpha + fam.beta)
    b = q ** mp.mpf(fam.gamma) if fam.kind == "qjacobi" else mp.mpf(0)
    return q, a, b


def _mp_exact(mp, v):
    """The np.longdouble v as an mpmath number, exactly."""
    num, den = np.longdouble(v).as_integer_ratio()
    return mp.mpf(num) / den


class TestLatticeRows:
    @pytest.mark.parametrize("fam", LATTICE_FAMILIES, ids=LATTICE_IDS)
    def test_matches_mpmath_oracle(self, fam):
        # the 2phi1 of KLS 2010 (14.12.1), p_n(q^k) = sum_j (q^-n; q)_j
        # (abq^(n+1); q)_j / ((aq; q)_j (q; q)_j) q^((k+1) j), summed at
        # 250 digits: its terms cancel by up to 70 digits at k = 0, and at
        # 60 digits the n = 10, k = 0, q = 0.3 value comes out with the
        # wrong sign
        mp = pytest.importorskip("mpmath")
        nmax, kmax = 12, 40
        x = radial.lattice_points(np.longdouble(fam.q), kmax + 1)
        for alpha in (0, 2):
            rows = radial.block_rows(fam, [alpha], [nmax], np.ones(nmax + 1))
            vals = rows(x, ONE_BLOCK).astype(float)
            with mp.workdps(250):
                q, a, b = _mp_params(mp, fam, alpha)
                for n in range(nmax + 1):
                    ref = []
                    for k in range(kmax + 1):
                        term, total = mp.mpf(1), mp.mpf(0)
                        for j in range(n + 1):
                            total += term
                            term *= ((1 - q ** (j - n)) * (1 - a * b * q ** (n + 1 + j))
                                     / ((1 - a * q ** (j + 1)) * (1 - q ** (j + 1))) * q ** (k + 1))
                        ref.append(float(total))
                    ref = np.array(ref)
                    err = np.max(np.abs(vals[n] - ref)) / np.max(np.abs(ref))
                    assert err < 1e-15, (alpha, n, err)

    def test_recurrence_loses_the_rows(self):
        # phi_10(1; 0) of WALL(0.5; 0.3) is 5.45e-32 (the oracle above); the
        # three-term recurrence at the same point gives -7260
        fam = radial.wall(0.5, 0.3)
        one = np.ones(1, np.longdouble)
        newton = radial.block_rows(fam, [0], [10], np.ones(11))(one, ONE_BLOCK)
        assert_allclose(float(newton[10, 0]), 5.45023212040486e-32, rtol=1e-14)
        assert abs(radial.phi_rows(fam, 0, 10)(one)[10, 0]) > 1.0

    @pytest.mark.parametrize("fam", LATTICE_FAMILIES[:5:4], ids=LATTICE_IDS[:5:4])
    def test_same_polynomials_as_the_tables(self, fam):
        # off the lattice too, the Newton form is phi_n with its c_0; the
        # power basis cancels there, so the error is taken against the row
        x = np.array([0.05, 0.3, 0.71])
        scale = [1.0, -2.0, 6.0, -24.0, 120.0, -720.0]
        vals = radial.block_rows(fam, [1], [5], np.array(scale))(x.astype(np.longdouble), ONE_BLOCK)
        assert vals.shape == (6, 3) and vals.dtype == np.longdouble
        for k in range(6):
            ref = scale[k] * table_values(fam, k, 1, x)
            assert np.max(np.abs(vals[k].astype(float) - ref)) < 1e-12 * np.max(np.abs(ref)), k

    def test_lattice_points_are_running_products(self):
        q = np.longdouble(0.3)
        x = radial.lattice_points(q, 20)
        assert x[0] == 1 and all(x[k] == x[k - 1] * q for k in range(1, 20))
        assert radial.lattice_points(q, 0).size == 0


class TestLatticeNorms:
    @pytest.mark.parametrize("fam", LATTICE_FAMILIES, ids=LATTICE_IDS)
    def test_match_50_digit_products(self, fam):
        mp = pytest.importorskip("mpmath")
        qp = mp.qp
        table = radial.norms(fam, [0, 3], [15, 15])
        assert [(z.dtype, z.shape) for z in table] == [(np.longdouble, (16,))] * 2
        for alpha, z in zip((0, 3), table):
            with mp.workdps(50):
                q, _, _ = _mp_params(mp, fam, alpha)
                e = mp.mpf(alpha + fam.beta)
                g = mp.mpf(fam.gamma)
                for n in range(16):
                    ref = (qp(q, q) * q ** ((e + 1) * n) * qp(q, q, n)
                           / (qp(q ** (e + 1), q) * qp(q ** (e + 1), q, n)))
                    if fam.kind == "qjacobi":
                        ref *= (qp(q ** (e + g + n + 1), q, n) * qp(q ** (e + g + 2 * n + 2), q)
                                / qp(q ** (g + n + 1), q))
                    assert abs(_mp_exact(mp, z[n]) - ref) < 1e-15 * ref, (alpha, n)
                    assert radial.zeta(fam, n, alpha) == z[n]

    @pytest.mark.parametrize(
        "fam", [radial.wall(0.5, 0.999), radial.little_q_jacobi(0.5, 0.5, 0.999)],
        ids=["wall", "qjacobi"],
    )
    def test_near_q_one(self, fam):
        # (q; q)_inf is 1e-714 at q = 0.999, below the float range; the
        # product of ratios is not, and zeta_0 is the lattice mass
        mass = quad.q_lattice_sum(fam, 1, lambda x: 1.0)
        assert_allclose(radial.norms(fam, [1], [3])[0][0], float(mass), rtol=1e-10)


def _mp_theta(mp, q, x):
    """sum over all integers k of (-1)^k q^(k(k-1)/2) x^k, which Jacobi's
    triple product equals (x; q)_inf (q/x; q)_inf (q; q)_inf; its terms
    fall as q^(k^2/2), so the sum is short even at q = 0.999."""
    total = mp.mpf(0)
    for k0, step in ((0, 1), (-1, -1)):
        k = k0
        while True:
            term = (-1) ** k * q ** (k * (k - 1) / 2) * x ** k
            total += term
            if abs(k) > 2 and abs(term) < mp.eps * abs(total):
                break
            k += step
    return total


class TestQLaguerreNorms:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.999])
    def test_match_50_digit_oracle(self, q):
        # zeta_n = R (q^(e+1); q)_n / ((q; q)_n q^n), e = alpha + beta, with
        # R = c^(e+1) (q; q)_inf / (q^(e+1); q)_inf * (-c q^(e+1); q)_inf
        # (-q^-e / c; q)_inf / ((-c; q)_inf (-q / c; q)_inf).  Each pair of the
        # last four is a theta sum over (q; q)_inf (_mp_theta), and at integer
        # e the first ratio is (q; q)_e: mpmath's infinite products take
        # seconds at q = 0.999, where the separate float products read NaN
        mp = pytest.importorskip("mpmath")
        betas = (-0.5, 0.5, 2.0) if q < 0.999 else (0.0, 2.0)
        for beta in betas:
            for c in (1.0, 2.5):
                fam = radial.q_laguerre(beta, q, c)
                for alpha, z in zip((0, 3, 15), radial.norms(fam, [0, 3, 15], [30] * 3)):
                    with mp.workdps(50):
                        Q, C, e = mp.mpf(q), mp.mpf(c), mp.mpf(alpha + beta)
                        if q < 0.999:
                            ratio = mp.qp(Q, Q) / mp.qp(Q ** (e + 1), Q)
                        else:
                            ratio = mp.qp(Q, Q, int(e))
                        R = (ratio * C ** (e + 1) * _mp_theta(mp, Q, -C * Q ** (e + 1))
                             / _mp_theta(mp, Q, -C))
                        for n in range(31):
                            ref = R * mp.qp(Q ** (e + 1), Q, n) / (mp.qp(Q, Q, n) * Q ** n)
                            # 3.4e-16 measured
                            assert abs(_mp_exact(mp, z[n]) - ref) < 1e-15 * ref, (beta, c, alpha, n)


class TestShiftMachinery:
    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_alpha_raising_relation(self, fam):
        # phi_n(x; alpha) - a_n phi_n(x; alpha+1) = b_n phi_{n-1}(x; alpha+1)
        alpha = 1
        for n in range(1, 5):
            a = shift_a(fam, n, alpha)
            b = shift_b(fam, n, alpha)
            lhs = power_coeffs(fam, n, alpha) - a * power_coeffs(
                fam, n, alpha + 1
            )
            rhs = np.pad(power_coeffs(fam, n - 1, alpha + 1), (0, 1))
            scale = np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(lhs - b * rhs)) < 1e-11 * scale

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_shift_connection_expansion(self, fam):
        # phi_n(.; alpha+1) = sum_j lambda_j phi_j(.; alpha)
        alpha, n = 1, 4
        lam = shift_lambdas(fam, n, alpha)
        rebuilt = np.zeros(n + 1)
        for j in range(n + 1):
            rebuilt[: j + 1] += lam[j] * power_coeffs(fam, j, alpha)
        target = power_coeffs(fam, n, alpha + 1)
        assert_allclose(rebuilt, target, rtol=1e-9, atol=1e-11)

    def test_shift_b_vanishes_at_zero(self):
        assert shift_b(radial.laguerre(0.5), 0, 1) == 0.0


def _peel(fam, n, alpha):
    """Reference (A_n, B_n) by exact expansion matching: peel the leading
    coefficients of x phi_n against phi_{n+1}, phi_n, phi_{n-1}."""
    pn = power_coeffs(fam, n, alpha)
    rest = np.concatenate(([0.0], pn))
    up = power_coeffs(fam, n + 1, alpha)
    rest = rest - rest[n + 1] / up[n + 1] * up
    diag = rest[n] / pn[n]
    rest[: n + 1] -= diag * pn
    if n == 0:
        return diag, 0.0
    down = power_coeffs(fam, n - 1, alpha)
    return diag, rest[n - 1] / pn[n]


class TestRecurrenceFormulas:
    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS
    )
    @pytest.mark.parametrize("alpha", [0, 2])
    def test_closed_forms_match_expansion_matching(self, fam, alpha):
        # x phi_n = (c_0(n)/c_0(n+1)) phi_{n+1} + A_n phi_n
        #           + B_n (c_0(n)/c_0(n-1)) phi_{n-1} on the exact tables
        nmax = 5
        A, B = radial.recurrence(fam, alpha, nmax + 1)
        assert A.dtype == B.dtype == np.longdouble
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B)) and B[0] == 0
        c0 = [radial.radial_coeffs(fam, k, alpha)[0] for k in range(nmax + 2)]
        for n in range(nmax + 1):
            x_pn = np.concatenate(([0.0], power_coeffs(fam, n, alpha)))
            rebuilt = c0[n] / c0[n + 1] * power_coeffs(fam, n + 1, alpha)
            rebuilt[: n + 1] += float(A[n]) * power_coeffs(fam, n, alpha)
            if n > 0:
                rebuilt[:n] += (
                    float(B[n]) * c0[n] / c0[n - 1]
                    * power_coeffs(fam, n - 1, alpha)
                )
            assert np.max(np.abs(x_pn - rebuilt)) < 1e-10 * np.max(np.abs(x_pn))
            ref_a, ref_b = _peel(fam, n, alpha)
            assert_allclose([float(A[n]), float(B[n])], [ref_a, ref_b], rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS
    )
    def test_array_alpha_rows_equal_one_alpha_calls(self, fam):
        # every kind takes an array of alphas, one row each, bit for bit
        alphas = [0, 1, 2, 5, 0.5]
        A, B = radial.recurrence(fam, np.array(alphas), 7)
        assert A.shape == B.shape == (len(alphas), 7)
        for row, alpha in enumerate(alphas):
            a, b = radial.recurrence(fam, alpha, 7)
            assert A[row].tolist() == a.tolist() and B[row].tolist() == b.tolist(), alpha

    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS
    )
    @pytest.mark.parametrize(
        "x",
        [0.3, np.array([0.05, -0.4, 0.9]), np.array([[0.05, 0.3, -0.7], [0.71, 0.9, 1.4]])],
        ids=["scalar", "1d", "2d"],
    )
    @pytest.mark.parametrize("nmax", [0, 1, 6])
    def test_array_alpha_phi_rows_equal_stacked_rows(self, fam, x, nmax):
        # one walk over the (alpha x point) grid gives every alpha's rows
        # bit for bit, leading coefficients and scale included
        alphas = [0, 1, 2, 5, 0.5]
        scale = [(-2.0) ** k for k in range(nmax + 1)]
        lead = radial.leading_coeffs(fam, np.array(alphas), nmax, scale)
        assert lead.shape == (len(alphas), nmax + 1) and lead.dtype == np.longdouble
        rows = radial.phi_rows(fam, np.array(alphas), nmax, scale)(x)
        assert rows.shape == (len(alphas), nmax + 1) + np.shape(x) and rows.dtype == np.longdouble
        for row, alpha in enumerate(alphas):
            assert lead[row].tolist() == radial.leading_coeffs(fam, alpha, nmax, scale).tolist()
            one = radial.phi_rows(fam, alpha, nmax, scale)(x)
            assert np.array_equal(rows[row], one), alpha

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_monic_values_match_tables(self, fam):
        A, B = radial.recurrence(fam, 1, 6)
        x = np.array([0.05, 0.3, 0.71])
        vals = radial.monic_values(A, B, x)
        assert vals.shape == (6, 3) and vals.dtype == np.longdouble
        for k in range(6):
            ref = table_values(fam, k, 1, x) / radial.radial_coeffs(fam, k, 1)[0]
            assert_allclose(vals[k].astype(float), ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=FAM_IDS)
    def test_phi_rows_match_tables(self, fam):
        scale = [1.0, -2.0, 6.0, -24.0, 120.0, -720.0]
        rows = radial.phi_rows(fam, 1, 5, scale)
        x = np.array([[0.05, 0.3], [0.71, 0.9]])
        vals = rows(x)
        assert vals.shape == (6, 2, 2) and vals.dtype == np.longdouble
        for k in range(6):
            ref = scale[k] * table_values(fam, k, 1, x)
            assert_allclose(vals[k].astype(float), ref, rtol=1e-9, atol=1e-12)
            # a scalar point gives the same numbers as the array
            assert rows(x[1, 0])[k] == vals[k, 1, 0]

    @pytest.mark.parametrize("fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS)
    def test_leading_coeff_is_the_table_head(self, fam):
        # the np.longdouble running products of leading_coeffs against the
        # float heads of the tables, which carry a few roundings each (4.7e-14
        # for jacobi past n = 20, from pochhammer's log-gamma; measured); a
        # subnormal head holds fewer digits
        alphas = [0, 1, 2.5, 7]
        lead = radial.leading_coeffs(fam, np.array(alphas), 30)
        heads = radial.coeff_rows(fam, np.tile(np.arange(31), 4), np.repeat(alphas, 31))[:, 0]
        assert_allclose(lead.ravel().astype(float), heads, rtol=1e-13, atol=TINY)

    def test_jacobi_matrix_rejects_nonpositive_measure(self):
        # alpha + beta = -1.5 has no positive Laguerre measure: B_1 = 1 + a < 0
        fam = radial.laguerre(-1.5)
        with pytest.raises(ValueError, match="nonpositive recurrence product"):
            radial.jacobi_matrix(*radial.recurrence(fam, 0, 3))
        with pytest.raises(ValueError, match="nonpositive recurrence product"):
            radial.radial_zeros(fam, 3, 0)
        with pytest.raises(ValueError, match="nonpositive recurrence product"):
            quad.golub_welsch(fam, 0, 3)

    def test_jacobi_matrix_is_the_lower_triangle(self):
        A, B = radial.recurrence(radial.laguerre(0.5), 1, 5)
        J = radial.jacobi_matrix(A, B)
        assert J.dtype == float and np.array_equal(np.triu(J, 1), np.zeros((5, 5)))
        assert np.array_equal(np.diagonal(J), A.astype(float))
        assert np.array_equal(np.diagonal(J, -1), np.sqrt(B[1:]).astype(float))


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


# The classical tables as scalar loops of term ratios from c_0, the q tables
# as the separate q-Pochhammer forms and the per-degree zeta, as they stood
# before coeff_rows built every table in one array pass and norms became the
# only home of the norms; the library must reproduce the tables bit for bit.
# The q-Pochhammer values are memoized here only to keep the grid fast:
# qcalc.qpochhammer is deterministic, so the memo changes no number.
_ref_qpoch = lru_cache(maxsize=None)(qpochhammer)


def _ref_classical_coeffs(fam, n, alpha):
    c = np.zeros(n + 1)
    if fam.kind == "laguerre":
        a = alpha + fam.beta
        c[0] = (-1.0) ** n / math.factorial(n)
        for j in range(n):
            c[j + 1] = c[j] * (-(n - j) * (a + n - j) / (j + 1.0))
    else:
        g = alpha + fam.gamma
        t = alpha + fam.beta + fam.gamma
        c[0] = (-1.0) ** n * pochhammer(t + n + 1, n) / math.factorial(n)
        for j in range(n):
            c[j + 1] = c[j] * (-(n - j) * (g + n - j) / ((j + 1.0) * (t + 2 * n - j)))
    return c


def _ref_radial_coeffs(fam, n, alpha):
    q = fam.q
    a = alpha + fam.beta
    c = np.zeros(n + 1)
    if fam.kind == "qlaguerre":
        qa = _ref_qpoch(q ** (a + 1), q, n)
        for j in range(n + 1):
            c[j] = (qa * q ** ((a + n - j) * (n - j)) * (-1.0) ** (n - j)
                    / (_ref_qpoch(q, q, j) * _ref_qpoch(q, q, n - j)
                       * _ref_qpoch(q ** (a + 1), q, n - j)))
    elif fam.kind == "wall":
        qn = _ref_qpoch(q, q, n)
        for j in range(n + 1):
            c[j] = (qn * q ** ((j - n) * (n + j - 1) / 2.0) * (-1.0) ** (n - j)
                    / (_ref_qpoch(q, q, j) * _ref_qpoch(q, q, n - j)
                       * _ref_qpoch(q ** (a + 1), q, n - j)))
    else:
        g = fam.gamma
        qn = _ref_qpoch(q, q, n)
        for j in range(n + 1):
            c[j] = (qn * _ref_qpoch(q ** (a + g + n + 1), q, n - j)
                    * q ** (j * (j - 1) / 2.0 - n * (n - 1) / 2.0) * (-1.0) ** (n - j)
                    / (_ref_qpoch(q, q, j) * _ref_qpoch(q, q, n - j)
                       * _ref_qpoch(q ** (a + 1), q, n - j)))
    return c


def _ref_zeta(fam, n, alpha):
    a = alpha + fam.beta
    if fam.kind == "laguerre":
        return math.gamma(a + n + 1) / math.factorial(n)
    if fam.kind == "jacobi":
        g = alpha + fam.gamma
        t = alpha + fam.beta + fam.gamma
        scale = math.gamma(t + n + 1) * (t + 2 * n + 1) if n else math.gamma(t + 2)
        return math.gamma(g + n + 1) * math.gamma(fam.beta + n + 1) / (math.factorial(n) * scale)
    q, c = fam.q, fam.c
    head = (_ref_qpoch(q, q) * _ref_qpoch(-c * q ** (a + 1), q)
            * _ref_qpoch(-(q ** (-a)) / c, q) * c ** (a + 1)
            / (_ref_qpoch(q ** (a + 1), q) * _ref_qpoch(-c, q) * _ref_qpoch(-q / c, q)))
    return head * _ref_qpoch(q ** (a + 1), q, n) / (_ref_qpoch(q, q, n) * q ** n)


ORACLE_QS = (0.1, 0.3, 0.5, 0.8, 0.9, 0.999)
ORACLE_BETAS = (-0.5, 0.0, 0.5, 1.813518, 2.0)
ORACLE_GAMMAS = (-0.5, 0.0, 0.5, 2.0)
ORACLE_CS = (1.0, 2.5)
ORACLE_ALPHAS = range(16)


def _oracle_q_families(q):
    return ([radial.q_laguerre(b, q, c) for b in ORACLE_BETAS for c in ORACLE_CS]
            + [radial.wall(b, q) for b in ORACLE_BETAS]
            + [radial.little_q_jacobi(b, g, q) for b in ORACLE_BETAS for g in ORACLE_GAMMAS])


class TestClosedFormsAgainstTheSeparateForms:
    @pytest.mark.parametrize("q", ORACLE_QS)
    def test_q_tables_and_leading_coeffs(self, q):
        # one coeff_rows call per family for the whole grid; the leading
        # coefficients are np.longdouble running products, which agree with
        # the normal float table heads to the heads' roundings (measured:
        # wall and qjacobi 2.3e-15 for q <= 0.9 and 2.8e-13 at q = 0.999,
        # where the float prefix products lose digits; qlaguerre 1.2e-13,
        # from the rounded exponent of q^((a+n)n))
        ns = np.tile(np.arange(26), len(ORACLE_ALPHAS))
        alphas = np.repeat(ORACLE_ALPHAS, 26)
        for fam in _oracle_q_families(q):
            rows = radial.coeff_rows(fam, ns, alphas)
            assert rows.shape == (len(ns), 26)
            for row, n, alpha in zip(rows, ns.tolist(), alphas.tolist()):
                ref = _ref_radial_coeffs(fam, n, alpha)
                assert np.array_equal(row[:n + 1], ref), (fam, n, alpha)
                assert not row[n + 1:].any()
            lead = radial.leading_coeffs(fam, np.array(ORACLE_ALPHAS), 25).ravel()
            rtol = 5e-13 if q == 0.999 or fam.kind == "qlaguerre" else 3e-15
            assert_allclose(lead.astype(float), rows[:, 0], rtol=rtol, atol=TINY, err_msg=str(fam))

    @pytest.mark.parametrize(
        "families",
        [[radial.laguerre(b) for b in ORACLE_BETAS],
         [radial.shifted_jacobi(b, g) for b in ORACLE_BETAS for g in ORACLE_GAMMAS],
         # the separate infinite products leave the float range at q = 0.999,
         # where they read NaN at a cost of 20 ms each: one family there
         [radial.q_laguerre(b, q, c)
          for q in ORACLE_QS[:-1] for b in ORACLE_BETAS for c in ORACLE_CS]
         + [radial.q_laguerre(0.5, 0.999, 2.5)]],
        ids=["laguerre", "jacobi", "qlaguerre"],
    )
    def test_norms_and_zeta(self, families):
        for fam in families:
            table = radial.norms(fam, ORACLE_ALPHAS, [30] * len(ORACLE_ALPHAS))
            for alpha in ORACLE_ALPHAS:
                ref = np.array([_ref_zeta(fam, n, alpha) for n in range(31)])
                z = table[alpha]
                assert z.dtype == np.longdouble
                assert np.all(np.isfinite(z)), (fam, alpha)
                # the classical norms are running products from the mass,
                # and q-Laguerre's one product of factor ratios, not the
                # separate float forms: TestQLaguerreNorms is the 50-digit
                # oracle of the latter, and the separate forms, where
                # finite, agree to 1.2e-14 (q-Laguerre) and 1.4e-14
                # (math.gamma; measured)
                if fam.q < 0.999:
                    assert_allclose(z.astype(float), ref, rtol=2e-14, atol=0,
                                    err_msg=str((fam, alpha)))
                zetas = [radial.zeta(fam, n, alpha) for n in (0, 1, 7, 30)]
                assert np.array_equal(zetas, z[[0, 1, 7, 30]])
                # phi_0 = 1, so zeta_0 is the mass
                assert radial.radial_coeffs(fam, 0, alpha)[0] == 1.0
                if not fam.is_q():
                    assert radial.measure_mass(fam, alpha) == z[0]


def _oracle_table(fam, n, alpha):
    return (_ref_radial_coeffs if fam.is_q() else _ref_classical_coeffs)(fam, n, alpha)


def _assert_rows_are_the_tables(fam, ns, alphas):
    """One coeff_rows call over the (n, alpha) pairs: each row the oracle
    table bit for bit, then zeros."""
    rows = radial.coeff_rows(fam, ns, alphas)
    assert rows.shape == (len(ns), max(ns) + 1) and rows.dtype == np.float64
    for row, n, alpha in zip(rows, np.asarray(ns).tolist(), np.asarray(alphas).tolist()):
        assert row[:n + 1].tobytes() == _oracle_table(fam, n, alpha).tobytes(), (fam, n, alpha)
        assert not row[n + 1:].any()


class TestCoeffRows:
    @pytest.mark.parametrize(
        "families",
        [[radial.laguerre(b) for b in ORACLE_BETAS],
         [radial.shifted_jacobi(b, g) for b in ORACLE_BETAS for g in ORACLE_GAMMAS]],
        ids=["laguerre", "jacobi"],
    )
    def test_classical_rows_are_the_scalar_loop(self, families):
        # degrees past 20 reach pochhammer's log-gamma form of the Jacobi head
        ns = np.tile(np.arange(31), 20)
        alphas = np.repeat(list(range(18)) + [0.5, 2.5], 31)
        for fam in families:
            _assert_rows_are_the_tables(fam, ns, alphas)

    @pytest.mark.parametrize(
        "fam", ALL_FAMILIES + REMOVABLE_CASES, ids=FAM_IDS + REMOVABLE_IDS
    )
    def test_removable_cases_and_every_kind(self, fam):
        ns = np.tile(np.arange(17), 4)
        _assert_rows_are_the_tables(fam, ns, np.repeat([0, 1, 2.5, 7], 17))

    def test_far_box(self):
        # the harmonic indices a = 671..704 of the identity sweep's far tile
        a, n = np.meshgrid(np.arange(671, 705), np.arange(17))
        _assert_rows_are_the_tables(radial.laguerre(0.5), n.ravel(), a.ravel())

    def test_nan_rows_past_the_float_range(self):
        # 1 / n! leaves the float range at n = 171: the whole row reads NaN,
        # not c_0 = 0, and the one-row call raises, naming the degree
        fam = radial.laguerre(0.5)
        n, a = (v.ravel() for v in np.meshgrid(np.arange(160, 176), np.arange(4)))
        rows = radial.coeff_rows(fam, n, a)
        for row, k, alpha in zip(rows, n.tolist(), a.tolist()):
            if k <= 170:
                assert row[:k + 1].tobytes() == _ref_classical_coeffs(fam, k, alpha).tobytes()
            else:
                assert np.isnan(row).all(), (k, alpha)
        for fam, k in [(fam, 171), (radial.shifted_jacobi(0.5, 0.5), 171), (radial.wall(0.5, 0.5), 200)]:
            with pytest.raises(OverflowError, match=f"{fam.kind} table of degree {k} at alpha = 0"):
                radial.radial_coeffs(fam, k, 0)

    def test_one_row_call(self):
        for fam in ALL_FAMILIES:
            assert np.array_equal(radial.radial_coeffs(fam, 6, 2), radial.coeff_rows(fam, [6], [2])[0])

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.999])
    def test_wall_and_qjacobi_leading_coeffs_match_mpmath(self, q):
        # c_0(k) = (-1)^k q^(-k(k-1)/2) / (q^(a+1); q)_k, times
        # (q^(s+k); q)_k for qjacobi (s = a + gamma + 1), at 30 digits
        mp = pytest.importorskip("mpmath")
        families = ([radial.wall(b, q) for b in (-0.5, 0.5, 2.0)]
                    + [radial.little_q_jacobi(b, g, q) for b in (-0.5, 2.0) for g in (-0.5, 2.0)])
        if q == 0.5:
            families += [radial.little_q_jacobi(-0.5, g, 0.25) for g in (-0.5, 0.5)]
        alphas = [0, 2.5, 15]
        for fam in families:
            lead = radial.leading_coeffs(fam, np.array(alphas), 30)
            for row, alpha in zip(lead, alphas):
                with mp.workdps(30):
                    qq, a = mp.mpf(fam.q), mp.mpf(alpha) + mp.mpf(fam.beta)
                    for k in range(31):
                        ref = (-1) ** k * qq ** (-mp.mpf(k * (k - 1)) / 2) / mp.qp(qq ** (a + 1), qq, k)
                        if fam.kind == "qjacobi":
                            ref *= mp.qp(qq ** (a + mp.mpf(fam.gamma) + 1 + k), qq, k)
                        assert abs(mp.mpf(str(row[k])) / ref - 1) < 1e-15, (fam, alpha, k)

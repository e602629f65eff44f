"""Tests for quadrature rules, lattice sums, Gram assembly and zero tables."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bivarortho import bivariate, qcalc, quad, radial
from bivarortho.qcalc import qpochhammer


class TestGolubWelsch:
    def test_laguerre_moments(self):
        # moments of x^alpha e^-x dx are Gamma(alpha + k + 1)
        rule = quad.golub_welsch(radial.laguerre(0.5), 1.0, 6)
        for k in range(rule.exactness + 1):
            assert_allclose(rule.weights @ rule.nodes**k, math.gamma(2.5 + k), rtol=1e-11)

    def test_jacobi_moments(self):
        # moments of x^(alpha+gamma) (1-x)^beta dx on (0,1) are Beta integrals
        b, g, alpha = 0.7, 0.4, 1.0
        rule = quad.golub_welsch(radial.shifted_jacobi(b, g), alpha, 5)
        for k in range(rule.exactness + 1):
            a_exp = alpha + g + k
            ref = math.gamma(a_exp + 1) * math.gamma(b + 1) / math.gamma(a_exp + b + 2)
            assert_allclose(rule.weights @ rule.nodes**k, ref, rtol=1e-11)

    def test_weights_positive_nodes_sorted(self):
        rule = quad.golub_welsch(radial.laguerre(0.0), 0.0, 8)
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.exactness == 15

    def test_rejects_q_family(self):
        with pytest.raises(ValueError):
            quad.golub_welsch(radial.wall(0.5, 0.5), 0.0, 4)

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            quad.golub_welsch(radial.laguerre(0.0), 0.0, 0)

    def test_nodes_are_the_radial_zeros(self):
        # zeros and nodes share one path: the eigenvalues of jacobi_matrix
        for fam in (radial.laguerre(0.5), radial.shifted_jacobi(2.0, -0.5)):
            for n in (1, 7, 30):
                rule = quad.golub_welsch(fam, 2, n)
                assert np.array_equal(rule.nodes, radial.radial_zeros(fam, n, 2))
                assert rule.rows.shape == (n, n) and rule.rows.dtype == np.longdouble

    @pytest.mark.parametrize("n", [5, 20, 41])
    @pytest.mark.parametrize(
        "fam",
        [radial.laguerre(b) for b in (-0.5, 0.5, 3.0)]
        + [radial.shifted_jacobi(0.5, 0.5), radial.shifted_jacobi(2.0, -0.5)],
        ids=["laguerre-0.5", "laguerre0.5", "laguerre3", "jacobi0.5-0.5", "jacobi2--0.5"],
    )
    def test_matches_40_digit_rule(self, fam, n):
        # nodes: mpmath's findroot on p_n / p_(n-1) of the KLS 9.12 and 9.8
        # recurrences at 40 digits, from a secant pair at each float node;
        # weights: the Christoffel sum there.  Measured: nodes 1.5e-15 of
        # the largest, weights 2.5e-13 relative; the eigenvector weights
        # this rule replaced read 4e12 relative at Laguerre n = 41
        mp = pytest.importorskip("mpmath")
        alpha = 2
        rule = quad.golub_welsch(fam, alpha, n)
        with mp.workdps(40):
            if fam.kind == "laguerre":
                a = alpha + mp.mpf(fam.beta)
                A = [2 * k + a + 1 for k in range(n)]
                B = [k * (k + a) for k in range(n)]
                mass = mp.gamma(a + 1)
            else:
                g, b = alpha + mp.mpf(fam.gamma), mp.mpf(fam.beta)
                t = g + b
                A = [(1 - (b - g) / (t + 2)) / 2] + [
                    (1 - (b - g) * t / ((2 * k + t) * (2 * k + t + 2))) / 2 for k in range(1, n)]
                B = [k * (k + g) * (k + b) * (k + t)
                     / ((2 * k + t) ** 2 * (2 * k + t + 1) * (2 * k + t - 1)) for k in range(n)]
                mass = mp.beta(g + 1, b + 1)

            def rows(x):
                p = [mp.mpf(1), x - A[0]]
                for k in range(1, n):
                    p.append((x - A[k]) * p[k] - B[k] * p[k - 1])
                return p

            h = [mass]
            for k in range(1, n):
                h.append(h[-1] * B[k])
            nodes = [mp.findroot(lambda x: rows(x)[n] / rows(x)[n - 1],
                                 (mp.mpf(x0), mp.mpf(x0) * (1 + mp.mpf(2) ** -40)))
                     for x0 in rule.nodes]
            weights = [1 / sum(pk ** 2 / hk for pk, hk in zip(rows(x), h)) for x in nodes]
        ref_x = np.array([float(x) for x in nodes])
        ref_w = np.array([float(w) for w in weights])
        assert np.all(np.diff(ref_x) > 0)  # n distinct roots
        assert np.max(np.abs(rule.nodes - ref_x)) <= 4e-15 * np.max(np.abs(ref_x))
        assert np.max(np.abs(rule.weights.astype(float) - ref_w) / ref_w) <= 1e-12


def _ref_golub_welsch(fam, alpha, npts):
    """The one-block Gauss rule, relative to the mass, as golub_welsch
    formed it before the rules of a Gram came from one pass: its own
    recurrence, Jacobi matrix, monic walk and weights."""
    if npts < 1:
        raise ValueError("need at least one quadrature point")
    if fam.is_q():
        raise ValueError("q-lattice measures are summed, not quadratured")
    A, B = radial.recurrence(fam, alpha, npts)
    nodes = np.linalg.eigvalsh(radial.jacobi_matrix(A, B))
    monic = radial.monic_values(A, B, nodes)
    B[0] = 1.0  # so that cumprod(B) is h over the mass
    weights = 1.0 / (monic ** 2 / np.cumprod(B)[:, None]).sum(axis=0)
    return quad.QuadratureRule(nodes, weights, 2 * npts - 1, monic)


# the radial families of Z, H and M: the removable 0/0 of the Jacobi forms
# (alpha + beta + gamma = -1 and 0), beta near -1, past math.gamma and past
# the np.longdouble range of the mass (1700, 1e6)
GAUSS_FAMILIES = ([radial.laguerre(b) for b in (0.5, 0.0, 3.0, -0.999, 1700.0, 1e6)]
                  + [radial.shifted_jacobi(b, g) for b, g in
                     ((0.5, 0.5), (2.0, -0.5), (-0.5, -0.5), (0.5, -0.5), (-0.999, -0.999),
                      (1700.0, 2.0), (1e6, 0.5))])
GAUSS_IDS = ["Z", "H", "Z3", "Z-0.999", "Z1700", "Z1e6", "M", "M-negative", "M-t-1", "M-t0",
             "M-0.999", "M1700", "M1e6"]


class TestGaussRules:
    @pytest.mark.parametrize("fam", GAUSS_FAMILIES, ids=GAUSS_IDS)
    def test_every_block_is_its_one_rule_bit_for_bit(self, fam):
        # the Gram's blocks: alpha = 0..cap of order cap + 1 - alpha; cap 60
        # walks in more than one group
        for cap in ((0, 1, 4) if fam.beta == 1e6 else (0, 1, 4, 15, 60)):
            alphas = range(cap + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rules = list(quad.gauss_rules(fam, alphas, [cap + 1 - a for a in alphas]))
            assert len(rules) == cap + 1
            for a, rule in zip(alphas, rules):
                with np.errstate(over="ignore"):
                    ref = _ref_golub_welsch(fam, a, cap + 1 - a)
                assert rule.exactness == ref.exactness
                for got, want in ((rule.nodes, ref.nodes), (rule.weights, ref.weights),
                                  (rule.rows, ref.rows)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want, equal_nan=True), (cap, a)
            if cap == 60:
                assert len({id(rule.rows.base) for rule in rules}) > 1

    def test_any_order_of_blocks(self):
        # blocks in rising, repeated and mixed orders, each its one rule
        fam = radial.shifted_jacobi(0.7, 0.4)
        alphas, npts = [3, 0, 5, 1, 2], [2, 9, 9, 1, 4]
        for alpha, n, rule in zip(alphas, npts, quad.gauss_rules(fam, alphas, npts)):
            ref = _ref_golub_welsch(fam, alpha, n)
            assert np.array_equal(rule.nodes, ref.nodes)
            assert np.array_equal(rule.weights, ref.weights)
            assert np.array_equal(rule.rows, ref.rows)

    def test_walks_stay_within_the_lattice_bound(self):
        # a group holds at most qcalc.MAX_ENTRIES rows times nodes, and a
        # larger block walks alone: no walk grows with the cube of the cap
        cap = 150
        rules = quad.gauss_rules(radial.laguerre(0.5), range(cap + 1),
                                 [cap + 1 - a for a in range(cap + 1)])
        walks = []
        for a, rule in enumerate(rules):
            n = cap + 1 - a
            assert rule.rows.base.size <= max(qcalc.MAX_ENTRIES, n * n)
            if not any(rule.rows.base is w for w in walks):
                walks.append(rule.rows.base)
        assert 1 < len(walks) < cap + 1

    def test_rejects_empty_rules_and_q_families(self):
        with pytest.raises(ValueError, match="at least one"):
            list(quad.gauss_rules(radial.laguerre(0.0), [0, 1], [3, 0]))
        with pytest.raises(ValueError, match="summed"):
            list(quad.gauss_rules(radial.wall(0.5, 0.5), [0], [2]))


class TestQLatticeSum:
    @pytest.mark.parametrize(
        "fam",
        [radial.wall(0.5, 0.5), radial.little_q_jacobi(0.5, 0.7, 0.5)],
        ids=["wall", "qjacobi"],
    )
    def test_mass_matches_closed_form(self, fam):
        total = quad.q_lattice_sum(fam, 1.0, lambda x: 1.0)
        assert_allclose(total, radial.zeta(fam, 0, 1.0), rtol=1e-12)

    def test_bilateral_mass(self):
        fam = radial.q_laguerre(0.5, 0.5, c=1.0)
        total = quad.q_lattice_sum(fam, 1.0, lambda x: 1.0)
        assert_allclose(total, radial.zeta(fam, 0, 1.0), rtol=1e-12)

    def test_unilateral_brute_force(self):
        # independently coded lattice sum for the wall weight
        fam = radial.wall(0.3, 0.4)
        q, a = fam.q, 1.0 + fam.beta

        def integrand(x):
            return x ** 2 - 0.5 * x

        ref = 0.0
        for k in range(200):
            x = q ** k
            w = q ** ((a + 1) * k) * qpochhammer(q ** (k + 1), q)
            ref += w * integrand(x)
        val = quad.q_lattice_sum(fam, 1.0, integrand)
        assert_allclose(val, ref, rtol=1e-13)

    def test_unilateral_needs_integrable_exponent(self):
        with pytest.raises(ValueError):
            quad.q_lattice_sum(radial.wall(0.0, 0.5), -1.5, lambda x: 1.0)

    def test_rejects_continuous_family(self):
        with pytest.raises(ValueError):
            quad.q_lattice_sum(radial.laguerre(0.0), 0.0, lambda x: 1.0)

    @pytest.mark.parametrize(
        "fam",
        [radial.wall(0.5, 0.5), radial.little_q_jacobi(0.5, 0.7, 0.5), radial.q_laguerre(0.5, 0.5)],
        ids=["wall", "qjacobi", "qlaguerre"],
    )
    def test_non_finite_term_raises_at_once(self, fam):
        calls = []

        def integrand(x):
            calls.append(x)
            return np.stack([np.ones_like(x), np.full_like(x, math.nan)], axis=-1)

        with pytest.raises(RuntimeError, match="non-finite term at lattice index 0"):
            quad.q_lattice_sum(fam, 1.0, integrand)
        assert len(calls) == 1

    def test_underflowed_weight_raises(self):
        # the orthonormal rows of ZQ(0; 0.3) to degree 70 stay in range
        # where the downward weights underflow to 0, at x = 4.3e71; a stop
        # there would read the sum as converged
        rad = radial.q_laguerre(0.0, 0.3)
        rows = _summed_rows(rad, 0, 70)
        with pytest.raises(RuntimeError, match="weight underflows at lattice index -137$"):
            quad.q_lattice_sum(rad, 0, lambda x: rows(x).T ** 2)
        # the rows to degree 59 reach their norms before it
        assert_allclose(quad.q_lattice_sum(rad, 0, lambda x: rows(x)[:60].T ** 2), 1.0,
                        rtol=1e-15)

    def test_non_finite_term_raises_on_downward_branch(self):
        # the bilateral lattice reaches x > c only on its downward branch
        fam = radial.q_laguerre(0.5, 0.5, c=1.0)
        with pytest.raises(RuntimeError, match="non-finite term at lattice index -1"):
            quad.q_lattice_sum(fam, 1.0, lambda x: np.where(x > 1.0, math.inf, 1.0))

    def test_stops_at_the_point_cap(self):
        # weight ~ q^{0.01 k} at q = 0.99: not below the tail bound in
        # 100000 points, taken in chunks of at most LATTICE_MAX_CHUNK
        calls = []

        def integrand(x):
            calls.append(len(x))
            return 1.0

        with pytest.raises(RuntimeError, match="did not converge"):
            quad.q_lattice_sum(radial.wall(-0.99, 0.99), 0.0, integrand)
        assert sum(calls) == quad.LATTICE_MAX_POINTS
        assert calls[0] == quad.LATTICE_CHUNK
        assert max(calls) == quad.LATTICE_MAX_CHUNK

    def test_stop_floor_at_working_precision(self):
        # a mass far below the float64 range is still summed to relative
        # accuracy: the stop test floors the running sum at the longdouble
        # tiny, not at a float64 bound
        fam = radial.wall(0.5, 0.5)
        tiny = np.longdouble("1e-400")
        total = quad.q_lattice_sum(fam, 1.0, lambda x: np.full_like(x, tiny))
        assert_allclose(float(total / tiny), radial.zeta(fam, 0, 1.0), rtol=1e-12)

    def test_slow_decay_under_float64_range_does_not_stop_early(self):
        # every weight is below 1e-300; the 64th alone is 9.9e-611, so a
        # sum stopped at its second point (7.4e-710) is wrong by far
        with pytest.raises(RuntimeError, match="did not converge in 100000 points"):
            quad.q_lattice_sum(radial.wall(-0.99, 0.999), 0.0, lambda x: 1.0)

    def test_array_integrand_sums_entrywise(self):
        fam = radial.wall(0.5, 0.5)
        vec = quad.q_lattice_sum(fam, 1.0, lambda x: np.stack([np.ones_like(x), x, x * x], axis=-1))
        for k, val in enumerate(vec):
            assert_allclose(val, quad.q_lattice_sum(fam, 1.0, lambda x: x**k), rtol=1e-14)


def _scalar_lattice_sum(fam, alpha, integrand):
    """The point-by-point lattice sum that q_lattice_sum replaced, kept as
    its oracle: one hand-written loop per lattice direction, the integrand
    called with one point at a time."""
    q = np.longdouble(fam.q)
    a = alpha + fam.beta
    if fam.kind == "wall" or fam.kind == "qjacobi":
        if a + 1 <= 0:
            raise ValueError("unilateral lattice needs alpha + 1 > 0")
        tail_factor = 1.0 / (1.0 - q ** (a + 1))
        upper = qpochhammer(q, q)  # (q^{k+1}; q)_inf at k = 0... updated below
        lower = qpochhammer(q ** (fam.gamma + 1), q) if fam.kind == "qjacobi" else 1.0
        total = np.longdouble(0.0)
        x = np.longdouble(1.0)
        qa = np.longdouble(1.0)  # q^{(a+1) k}
        for k in range(100000):
            if k > 0:
                upper = upper / (1.0 - q ** k)
                if fam.kind == "qjacobi":
                    lower = lower / (1.0 - q ** (fam.gamma + k))
                x *= q
                qa *= q ** (a + 1)
            w = qa * upper / lower
            term = w * integrand(x)
            total += term
            size = np.max(np.abs(term))
            if not size < math.inf:
                raise RuntimeError(
                    f"unilateral lattice sum: non-finite term at lattice index {k}"
                )
            # the weight decays at least geometrically with ratio q^{a+1}
            # and the integrand is bounded on (0, 1], so the dropped tail is
            # below |term| * tail_factor once past the first node
            if k > 0 and size * tail_factor <= quad.LATTICE_TAIL_TOL * max(
                np.max(np.abs(total)), 1e-300
            ):
                return total
        raise RuntimeError("unilateral lattice sum did not converge")
    if fam.kind == "qlaguerre":
        c = np.longdouble(fam.c)
        total = np.longdouble(0.0)
        # upward direction k >= 0: x -> 0, mass ~ x^{a+1}, formed as the
        # running product c^{a+1} q^{(a+1)k}
        denom = qpochhammer(-c, q)  # (-c q^k; q)_inf at k = 0
        x = c
        xa = c ** (a + 1)
        for k in range(100000):
            w = xa / denom
            term = w * integrand(x)
            total += term
            size = np.max(np.abs(term))
            if not size < math.inf:
                raise RuntimeError(
                    f"bilateral lattice sum: non-finite term at lattice index {k}"
                )
            # advance: (-c q^{k+1}; q)_inf = (-c q^k; q)_inf / (1 + c q^k)
            denom = denom / (1.0 + x)
            x = x * q
            xa = xa * q ** (a + 1)
            if k > 5 and size / (1.0 - q ** (a + 1)) <= quad.LATTICE_TAIL_TOL * max(
                np.max(np.abs(total)), 1e-300
            ):
                break
        else:
            raise RuntimeError("bilateral lattice sum (upward) did not converge")
        # downward direction k <= -1: x -> infinity, (-x; q)_inf growth wins
        denom = qpochhammer(-c, q)
        x = c
        xa = c ** (a + 1)  # x^{a+1} = c^{a+1} q^{-(a+1)(k+1)}, a running product
        prev = math.inf
        bad = 0
        for k in range(100000):
            # step from q^{-k} to q^{-k-1}: (-c q^{-k-1}; q)_inf = (1 + c q^{-k-1}) (-c q^{-k}; q)_inf
            x = x / q
            xa = xa * q ** -(a + 1)
            denom = denom * (1.0 + x)
            w = xa / denom
            term = w * integrand(x)
            total += term
            size = np.max(np.abs(term))
            if not size < math.inf:
                raise RuntimeError(
                    f"bilateral lattice sum: non-finite term at lattice index {-k - 1}"
                )
            if size <= quad.LATTICE_TAIL_TOL * max(np.max(np.abs(total)), 1e-300) and k > 2:
                return total
            if size >= prev:
                bad += 1
                if bad > 50:
                    raise RuntimeError("bilateral lattice sum diverges downward")
            else:
                bad = 0
            prev = size
        raise RuntimeError("bilateral lattice sum (downward) did not converge")
    raise ValueError(f"not a q-lattice family: {fam.kind!r}")



# the q-family blocks whose sums must match the scalar loop bit for bit
ORACLE_FAMILIES = {
    **{f"{tag}-q{q}": fam
       for q in (0.3, 0.5, 0.8)
       for tag, fam in (("ZQ", bivariate.ZQ(0.5, q)), ("WALL", bivariate.WALL(0.5, q)),
                        ("MQ", bivariate.MQ(0.5, 0.5, q)))},
    "ZQ-c2": bivariate.ZQ(0.5, 0.5, 2.0),
    "WALL-beta0": bivariate.WALL(0.0, 0.5),
    "WALL-large-beta": bivariate.WALL(1.81, 0.31),
    "MQ-large-beta": bivariate.MQ(1.8, 0.5, 0.3),
}


def _orthonormal(rad, alphas, nmaxes):
    """The ratios of the orthonormal scale of the blocks of alphas, as gram
    passes them to radial_grams for every family but H: 1 / sqrt(zeta_0),
    then sqrt(zeta_(k-1) / zeta_k) from the closed-form norm steps (row 0
    of a continuous family reads 1, its Gauss weights being relative to
    the mass)."""
    ratios = np.ones((len(alphas), max(nmaxes) + 1), np.longdouble)
    ratios[:, 1:] = 1 / np.sqrt(radial.norm_steps(rad, alphas, max(nmaxes)))
    if rad.is_q():
        ratios[:, 0] = [1 / np.sqrt(z[0]) for z in radial.norms(rad, alphas, nmaxes)]
    return ratios


def _unit(rad, alpha, nmax):
    """Unit ratios of one block, but for row 0 of a continuous family: the
    square root of the mass, which its Gauss weights leave out, so that
    the block holds the raw radial Gram."""
    ratios = np.ones((1, nmax + 1), np.longdouble)
    if not rad.is_q():
        ratios[0, 0] = np.sqrt(radial.measure_mass(rad, alpha))
    return ratios


def _one_block(rad, alpha, nmax, ratios=None):
    """The radial Gram block of phi_0..phi_nmax(x; alpha) in the
    orthonormal scale, or with row k times the running product of
    ``ratios[0, 0..k]`` when given: a one-block quad.radial_grams request."""
    if ratios is None:
        ratios = _orthonormal(rad, [alpha], [nmax])
    return quad.radial_grams(rad, [alpha], [nmax], ratios)[0]


def _summed_rows(rad, alpha, nmax):
    """The rows a one-block radial_grams request sums over the lattice of a
    q family, in the orthonormal scale, as rows(x) at a point or a 1-D
    array of points."""
    rows = radial.block_rows(rad, [alpha], [nmax], _orthonormal(rad, [alpha], [nmax]))
    return lambda x: rows(np.atleast_1d(x), np.ones(1, bool))


class TestLatticeSumAgainstScalarLoop:
    @pytest.mark.parametrize("fam", list(ORACLE_FAMILIES.values()), ids=list(ORACLE_FAMILIES))
    def test_gram_blocks_bit_identical(self, fam, monkeypatch):
        # every radial block of the Grams at caps 2..15, its rows in the
        # orthonormal scale of gram: q_lattice_sum of the outer product
        # equals the scalar loop bit for bit; the walk of
        # radial_grams, stopped on the diagonal, keeps exactly the points the
        # scalar loop visits and sums the same diagonal bit for bit; its
        # block, one np.dot over those points, is within 2.2e-16 of the
        # loop relative to the diagonal
        rad = bivariate.radial_of(fam)
        walks = []
        walk = quad._lattice_walk

        def spy(*args):
            walks.append(walk(*args))
            return walks[-1]

        monkeypatch.setattr(quad, "_lattice_walk", spy)
        for cap in range(2, 16):
            for alpha in range(cap + 1):
                rows = _summed_rows(rad, alpha, cap - alpha)

                def outer(x):
                    v = rows(x).T
                    return v[:, :, None] * v[:, None, :]

                visited = []

                def scalar_outer(x):
                    visited.append(x)
                    return np.outer(rows(x), rows(x))

                ref = _scalar_lattice_sum(rad, alpha, scalar_outer)
                assert ref.dtype == np.longdouble
                assert np.array_equal(quad.q_lattice_sum(rad, alpha, outer), ref), (cap, alpha)
                block = _one_block(rad, alpha, cap - alpha)
                # the one-block walk of radial_grams: its block's sums and chunks
                diagonal, kept = (per_block[0] for per_block in walks[-1])
                points = np.concatenate([x for x, _, _ in kept])
                assert np.array_equal(points, np.array(visited)), (cap, alpha)
                assert np.array_equal(diagonal, np.diagonal(ref)), (cap, alpha)
                d = np.abs(np.diagonal(ref))
                bound = 2.2e-16 * np.sqrt(np.multiply.outer(d, d))
                assert np.all(np.abs(block - ref) <= bound), (cap, alpha)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95])
    def test_qlaguerre_weights_match_np_power(self, q, c, monkeypatch):
        # the q-Laguerre weights x^(a+1) / (-x; q)_inf, x^(a+1) a running
        # product c^(a+1) q^(+-(a+1)k), against np.power(x, a + 1) over the
        # same running denominators, at every point the walk of a cap-15
        # Gram keeps, in both directions.  The bound is a few np.longdouble
        # ulps plus the rounding np.power amplifies from the running point x,
        # about k / 2 ulps after k steps, times a + 1; the difference reads
        # at most 1.4 of it (q = 0.8), and 540 ulps (6e-17) at q = 0.95 and
        # cap 60
        fam = bivariate.ZQ(0.5, q, c)
        walks = []
        walk = quad._lattice_walk
        monkeypatch.setattr(quad, "_lattice_walk", lambda *args: walks.append(walk(*args))
                            or walks[-1])
        quad.gram(fam, 15)
        rad = bivariate.radial_of(fam)
        kept = [np.concatenate([x for x, _, _ in chunks]) for chunks in walks[-1][1]]
        counts = (max(np.sum(x <= c) for x in kept), max(np.sum(x > c) for x in kept))
        exps = np.arange(16) + rad.beta
        eps = np.finfo(np.longdouble).eps
        lq, lc = np.longdouble(q), np.longdouble(c)
        head = qpochhammer(-lc, lq)  # (-c; q)_inf
        for (points_weights, *_), n, up in zip(quad._lattice_directions(rad, exps), counts,
                                               (True, False)):
            x, w = points_weights(int(n))
            # (-x; q)_inf: x = c q^k divides out 1 + c q^(k-1), x = c q^(-k-1)
            # multiplies in 1 + x
            denom = (np.divide.accumulate(np.concatenate(([head], 1.0 + x[:-1]))) if up
                     else np.multiply.accumulate(np.concatenate(([head], 1.0 + x)))[1:])
            ref = np.power(x, exps[:, None] + 1) / denom
            bound = eps * (4 + (np.arange(n) + 1) * (exps[:, None] + 1) / 2)
            assert np.all(np.abs(w / ref - 1) <= bound), (q, c, up)

    @pytest.mark.parametrize(
        "fam", [radial.wall(0.5, 0.99), radial.q_laguerre(0.5, 0.99)], ids=["wall", "qlaguerre"]
    )
    def test_many_chunks_bit_identical(self, fam):
        # q = 0.99 needs thousands of points: chunks past LATTICE_MAX_CHUNK
        rows = radial.phi_rows(fam, 1, 3)
        calls = []

        def outer(x):
            calls.append(len(x))
            v = rows(x).T
            return v[:, :, None] * v[:, None, :]

        ref = _scalar_lattice_sum(fam, 1, lambda x: np.outer(rows(x), rows(x)))
        assert np.array_equal(quad.q_lattice_sum(fam, 1, outer), ref)
        assert max(calls) == quad.LATTICE_MAX_CHUNK

    @pytest.mark.parametrize(
        "fam,directions",
        [(bivariate.ZQ(0.5, 0.5), 2), (bivariate.WALL(0.5, 0.5), 1),
         (bivariate.MQ(0.5, 0.5, 0.5), 1)],
        ids=["ZQ", "WALL", "MQ"],
    )
    def test_integrand_called_per_chunk(self, fam, directions, monkeypatch):
        # a cap-8 block at q = 0.5 needs 44 points per direction (up to 74
        # for ZQ's two), all inside the first chunk or the doubled one
        calls = []

        def counting(make_rows):
            def make(*args):
                rows = make_rows(*args)

                def counted(x, live):
                    calls.append(len(x))
                    return rows(x, live)

                return counted

            return make

        monkeypatch.setattr(radial, "block_rows", counting(radial.block_rows))
        _one_block(bivariate.radial_of(fam), 0, 8)
        assert 1 <= len(calls) <= 2 * directions


def _block_walked_alone(rad, alpha, nmax):
    """One Gram block by the composition the one-pass walk replaced, kept
    as its oracle: a lattice walk of its own, with the rows of a one-block
    radial.block_rows and one np.dot over the kept points.  Returns the
    block and the walk's diagonal sums and kept chunks."""
    rows = _summed_rows(rad, alpha, nmax)
    totals, kept = quad._lattice_walk(rad, [alpha], lambda x, live: rows(x), np.square, [nmax + 1])
    vals = np.concatenate([f for _, _, f in kept[0]], axis=1)
    weights = np.concatenate([w for _, w, _ in kept[0]])
    block = np.dot(vals * weights, vals.T)
    return block.astype(float), totals[0], kept[0]


Q_KINDS = ("qlaguerre", "wall", "qjacobi")


class TestOnePassWalk:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(Q_KINDS),
        beta=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
        gamma=st.floats(-0.9, 3.0, exclude_min=True, exclude_max=True),
        q=st.floats(0.05, 0.95),
        c=st.floats(0.3, 3.0),
        cap=st.integers(0, 10),
        data=st.data(),
    )
    def test_every_block_equals_its_walk_alone(self, kind, beta, gamma, q, c, cap, data):
        # one walk for all blocks of a Gram, requested in any order: each
        # block keeps the points, diagonal sums and block of its own walk,
        # bit for bit, its norms read from one table as it scales its rows
        rad = radial.RadialFamily(kind, beta, gamma, q, c)
        alphas = data.draw(st.permutations(range(cap + 1)))
        nmaxes = [cap - a for a in alphas]
        walks = []
        walk = quad._lattice_walk

        def spy(*args):
            walks.append(walk(*args))
            return walks[-1]

        # the ratios as gram passes them, from one radial.norms call
        ratios = _orthonormal(rad, alphas, nmaxes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "_lattice_walk", spy)
            blocks = quad.radial_grams(rad, alphas, nmaxes, ratios)
        assert len(walks) == 1
        totals, kept = walks[0]
        for b, (alpha, nmax) in enumerate(zip(alphas, nmaxes)):
            block, diagonal, alone = _block_walked_alone(rad, alpha, nmax)
            assert np.array_equal(blocks[b], block), (alpha, nmax)
            assert np.array_equal(totals[b], diagonal), (alpha, nmax)
            assert np.array_equal(np.concatenate([x for x, _, _ in kept[b]]),
                                  np.concatenate([x for x, _, _ in alone])), (alpha, nmax)

    @pytest.mark.parametrize(
        "fam",
        [bivariate.ZQ(0.5, 0.5), bivariate.ZQ(0.7, 0.8, 2.0), bivariate.WALL(0.5, 0.5),
         bivariate.MQ(0.5, 0.5, 0.3)],
        ids=["ZQ", "ZQ-c2-q0.8", "WALL", "MQ"],
    )
    def test_non_finite_terms_against_the_stop_point(self, fam):
        # a NaN in a block's rows past its stop point, in a chunk the other
        # blocks still walk, changes nothing; one at its stop point raises
        # and names its lattice index
        rad = bivariate.radial_of(fam)
        cap = 6
        alphas = list(range(cap + 1))
        widths = np.array([cap - a + 1 for a in alphas])
        rows = radial.block_rows(rad, alphas, widths - 1, _orthonormal(rad, alphas, widths - 1))
        totals, kept = quad._lattice_walk(rad, alphas, rows, np.square, widths)
        b = 3
        points = np.concatenate([x for x, _, _ in kept[b]])

        poisoned_points = []

        def poisoned(where):
            def integrand(x, live):
                vals = rows(x, live)
                if live[b]:
                    first = widths[:b][live[:b]].sum()
                    vals[first:first + widths[b], where(x)] = np.nan
                    poisoned_points.append(np.count_nonzero(where(x)))
                return vals

            return integrand

        past = poisoned(lambda x: ~np.isin(x, points))
        totals2, kept2 = quad._lattice_walk(rad, alphas, past, np.square, widths)
        assert sum(poisoned_points) > 0
        for t1, t2, k1, k2 in zip(totals, totals2, kept, kept2):
            assert np.array_equal(t1, t2)
            assert all(np.array_equal(x1, x2) and np.array_equal(f1, f2)
                       for (x1, _, f1), (x2, _, f2) in zip(k1, k2))
        c = fam.c if fam.tag == "ZQ" else 1.0
        up = points[points <= c]
        stops = [(up[-1], len(up) - 1)]
        if fam.tag == "ZQ":
            down = points[points > c]
            stops.append((down[-1], -len(down)))
        for point, index in stops:
            at_stop = poisoned(lambda x: x == point)
            with pytest.raises(RuntimeError, match=f"non-finite term at lattice index {index}$"):
                quad._lattice_walk(rad, alphas, at_stop, np.square, widths)
            # with a faults dict the walk stops the block there instead, and
            # every other block reads its sums and points unchanged
            faults = {}
            totals3, kept3 = quad._lattice_walk(rad, alphas, at_stop, np.square, widths, faults)
            assert faults == {b: f"non-finite term at lattice index {index}"}
            assert np.isnan(totals3[b]).any()
            for a in (a for a in alphas if a != b):
                assert np.array_equal(totals3[a], totals[a])
                for at in (0, 2):
                    assert np.array_equal(np.concatenate([c[at] for c in kept[a]], axis=-1),
                                          np.concatenate([c[at] for c in kept3[a]], axis=-1))

    def test_rows_times_points_capped(self):
        # a cap-15 Gram's 136 rows take at most qcalc.MAX_ENTRIES entries
        # per call, as one cap-15 block took at LATTICE_MAX_CHUNK points
        fam = radial.wall(0.5, 0.95)
        alphas = list(range(16))
        rows = radial.block_rows(fam, alphas, [15 - a for a in alphas], np.ones((16, 16)))
        sizes = []

        def counted(x, live):
            vals = rows(x, live)
            sizes.append(vals.size)
            return vals

        quad._lattice_walk(fam, alphas, counted, np.square, np.array([16 - a for a in alphas]))
        assert len(sizes) > 3
        assert max(sizes) <= qcalc.MAX_ENTRIES


class TestGram:
    def test_plane_family_diagonal(self):
        res = quad.gram(bivariate.Z(0.5), 3)
        assert res.passed
        assert res.max_offdiag < 1e-11
        for (m, n) in res.indices:
            ref = math.pi * math.gamma(0.5 + max(m, n) + 1) / math.factorial(min(m, n))
            assert_allclose(res.diag_ref[(m, n)], ref, rtol=1e-13)
            assert_allclose(res.entries[((m, n), (m, n))], ref, rtol=1e-10)

    @pytest.mark.parametrize("fam", [bivariate.Z(0.5), bivariate.Z(2.0), bivariate.H(),
                                     bivariate.M(0.5, 0.7), bivariate.M(2.0, -0.5)],
                             ids=["Z", "Z2", "H", "M", "M-negative"])
    def test_raw_diagonal_reads_the_textbook_norms(self, fam):
        # sqrt(zeta_i) G_ii sqrt(zeta_i) of the orthonormal blocks against
        # the Laguerre and Jacobi norms written from math.gamma (4.8e-15 and
        # 7.7e-15 at most, measured)
        def textbook(m, n):
            k, a = min(m, n), abs(m - n)
            if fam.tag == "Z":
                return math.pi * math.gamma(fam.beta + k + a + 1) / math.factorial(k)
            if fam.tag == "H":
                return math.pi * math.factorial(k + a) * math.factorial(k)
            g, b = a + fam.gamma, fam.beta
            return (math.gamma(k + g + 1) * math.gamma(k + b + 1)
                    / ((2 * k + g + b + 1) * math.factorial(k) * math.gamma(k + g + b + 1)))

        for cap in (0, 4, 15):
            res = quad.gram(fam, cap)
            for i in res.indices:
                assert_allclose(res.entries[(i, i)], textbook(*i), rtol=1e-13)

    def test_rescaled_plane_family(self):
        # diagonal carries the square of the n! rescaling
        res = quad.gram(bivariate.H(), 2)
        assert res.passed
        for (m, n) in res.indices:
            ref = math.pi * math.factorial(max(m, n)) * math.factorial(min(m, n))
            assert_allclose(res.diag_ref[(m, n)], ref, rtol=1e-13)

    def test_disc_family(self):
        res = quad.gram(bivariate.M(0.5, 2.0), 3)
        assert res.passed

    @pytest.mark.parametrize("q", [0.3, 0.8])
    def test_q_families(self, q):
        for fam in (
            bivariate.ZQ(0.5, q),
            bivariate.WALL(0.5, q),
            bivariate.MQ(0.5, 0.5, q),
        ):
            res = quad.gram(fam, 2, offdiag_tol=1e-9, diag_rel_tol=1e-7)
            assert res.passed, (fam.tag, res.max_offdiag, res.max_diag_relerr)

    def test_negative_cap_raises(self):
        # an empty Gram would pass vacuously
        with pytest.raises(ValueError, match="degree_cap must be nonnegative"):
            quad.gram(bivariate.Z(0.0), -1)

    @pytest.mark.parametrize(
        "fam",
        [bivariate.Z(-1.5), bivariate.M(0.5, -1.2), bivariate.M(-1.0, 0.5),
         bivariate.ZQ(-1.5, 0.5), bivariate.Z(math.nan), bivariate.M(math.inf, 0.5),
         bivariate.ZQ(0.5, 1.0),
         bivariate.WALL(0.5, 0.0), bivariate.MQ(0.5, 0.5, math.nan), bivariate.ZQ(0.5, 0.5, 0.0),
         bivariate.ZQ(0.5, 0.5, -2.0), bivariate.MQ(0.5, -1.0, 0.5)],
        ids=["Z-beta", "M-gamma", "M-beta", "ZQ-beta", "Z-nan", "M-inf", "ZQ-q1", "WALL-q0",
             "MQ-q-nan", "ZQ-c0", "ZQ-c-neg", "MQ-gamma"],
    )
    def test_non_measures_raise_before_any_work(self, fam, monkeypatch):
        # Z(-1.5) and M(0.5, -1.2) once certified at cap 0 on a mass of the
        # wrong sign; no norm, rule or lattice point is formed for them
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(radial, "norms", no_work)
        monkeypatch.setattr(quad, "radial_grams", no_work)
        for cap in (0, 3):
            with pytest.raises(ValueError, match=f"family {fam.tag} needs"):
                quad.gram(fam, cap)

    def test_parameters_a_family_does_not_read_are_free(self):
        # H reads no parameter, and Z no gamma, q or c
        for fam in (bivariate.FamilyId("H", beta=math.nan, q=2.0),
                    bivariate.Z(0.5).with_params(gamma=-3.0, q=1.5, c=0.0)):
            assert quad.gram(fam, 2).passed

    def test_cap_zero(self):
        res = quad.gram(bivariate.Z(0.0), 0)
        assert res.indices == [(0, 0)]
        assert_allclose(res.entries[((0, 0), (0, 0))], math.pi, rtol=1e-12)

    @pytest.mark.parametrize("fam", [bivariate.M(0.5, 2.0), bivariate.WALL(0.5, 0.5)],
                             ids=["M", "WALL"])
    def test_entries_vanish_across_harmonic_blocks(self, fam):
        # the circle average pairs only members of one harmonic index m - n
        res = quad.gram(fam, 3)
        for ((m, n), (s, t)), val in res.entries.items():
            if m - n != s - t:
                assert val == 0.0
        assert res.entries[((2, 0), (3, 1))] != 0.0

    def test_wall_at_beta_zero(self):
        # phi_1(x; 0) vanishes exactly at the lattice point x = q; a stop
        # test on a single entry would cut that lattice sum after 2 points
        res = quad.gram(bivariate.WALL(0.0, 0.5), 4)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)

    @pytest.mark.parametrize(
        "fam",
        [bivariate.WALL(1.813518, 0.311057), bivariate.MQ(1.8, 0.5, 0.3)],
        ids=["WALL", "MQ"],
    )
    def test_q_families_at_large_beta_small_q(self, fam):
        res = quad.gram(fam, 4, diag_rel_tol=1e-7)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)

    @pytest.mark.parametrize(
        "fam,cap",
        [
            (bivariate.Z(0.5), 15),
            (bivariate.H(), 15),
            (bivariate.M(0.5, 0.5), 15),
            (bivariate.ZQ(0.5, 0.5), 15),
            (bivariate.WALL(0.5, 0.5), 15),
            (bivariate.MQ(0.5, 0.5, 0.5), 15),
        ]
        # the Christoffel weights certify the Gauss families to cap 40 with
        # max_offdiag <= 6.5e-14 and diag relerr <= 1.6e-13 (measured); the
        # eigenvector weights failed Z and H from cap 25
        + [(fam, cap) for fam in (bivariate.Z(0.5), bivariate.H(), bivariate.Z(3.0),
                                  bivariate.M(0.5, 0.5))
           for cap in (20, 25, 30, 40)]
        # the q-Laguerre leading coefficients in np.longdouble: in float they
        # underflowed at q = 0.3 and cap 25 (diag relerr 1.0); these read
        # max_offdiag <= 8.4e-16 and diag relerr <= 5.8e-14 (measured), with
        # norms up to 8e242
        + [(fam, cap) for fam in (bivariate.ZQ(0.0, 0.3), bivariate.ZQ(0.5, 0.3),
                                  bivariate.ZQ(0.7, 0.3, 2.0))
           for cap in (25, 30)],
        ids=["Z", "H", "M", "ZQ", "WALL", "MQ"]
        + [f"{tag}-{cap}" for tag in ("Z", "H", "Z3", "M") for cap in (20, 25, 30, 40)]
        + [f"{tag}-{cap}" for tag in ("ZQ0-q0.3", "ZQ-q0.3", "ZQ-c2-q0.3") for cap in (25, 30)],
    )
    @pytest.mark.filterwarnings("error")
    def test_certified_degree_caps(self, fam, cap):
        res = quad.gram(fam, cap, offdiag_tol=1e-9, diag_rel_tol=1e-8)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)
        if cap > 15:
            assert res.max_offdiag < 1e-12 and res.max_diag_relerr < 1e-12

    @pytest.mark.parametrize(
        "fam",
        [bivariate.WALL(1.813518, 0.311057), bivariate.MQ(1.8, 0.5, 0.3),
         bivariate.MQ(-0.5, -0.5, 0.5), bivariate.WALL(2.0, 0.8)],
        ids=["WALL-large-beta", "MQ-large-beta", "MQ-negative", "WALL-q0.8"],
    )
    def test_lattice_families_certify_cap_20(self, fam):
        # the Newton rows of radial.block_rows, summed in orthonormal scale,
        # read max_offdiag <= 7.3e-17 and diag relerr <= 1.5e-14 here
        res = quad.gram(fam, 20, offdiag_tol=1e-9, diag_rel_tol=1e-8)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)
        assert res.max_offdiag < 1e-15 and res.max_diag_relerr < 1e-13

    @pytest.mark.parametrize("fam", [bivariate.Z(0.0), bivariate.M(0.0, 0.0)], ids=["Z", "M"])
    @pytest.mark.filterwarnings("error")
    def test_continuous_families_certify_cap_90(self, fam):
        res = quad.gram(fam, 90, offdiag_tol=1e-9, diag_rel_tol=1e-8)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)

    def test_diagonal_never_negative(self):
        # each diagonal is a positively weighted sum of squares, so the
        # off-diagonal normalization cannot take the root of a negative
        res = quad.gram(bivariate.WALL(0.5, 0.3), 12)
        assert all(res.entries[(i, i)] >= 0.0 for i in res.indices)

    # the cases where the float norms and products of the raw scale left
    # the range: ZQ(0; 0.3) failed from cap 34 and ZQ(0.5; 0.5) from cap 45
    # (the ZQ norm at degree 0 of the top harmonic index, with
    # (-q^(-a) / c; q)_inf near q^(-a^2 / 2), passed 1e308), WALL(0.5; 0.3)
    # at cap 50 (its norm R q^((a+1) n) ... fell under the subnormals) and H
    # from cap 98 (pi (98!)^2 passed 1e308).  In the orthonormal scale with
    # np.longdouble norms they certify, and a raw entry past the float
    # range reads inf
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fam,cap",
        [(bivariate.ZQ(0.0, 0.3), 60), (bivariate.ZQ(0.5, 0.5), 50),
         (bivariate.WALL(0.5, 0.3), 50), (bivariate.H(), 98), (bivariate.H(), 100),
         (bivariate.H(), 110)],
        ids=["ZQ0-q0.3-cap60", "ZQ-q0.5-cap50", "WALL-q0.3-cap50", "H-cap98", "H-cap100",
             "H-cap110"],
    )
    def test_norms_past_the_float_range_pass(self, fam, cap):
        res = quad.gram(fam, cap)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)
        assert res.notes == ""
        tiny = np.finfo(float).tiny
        normal = [tiny <= res.diag_ref[i] < math.inf for i in res.indices]
        assert not all(normal)
        for i, inside in zip(res.indices, normal):
            if inside:
                assert abs(res.entries[(i, i)] - res.diag_ref[i]) <= 1e-12 * res.diag_ref[i]
            elif res.diag_ref[i] == math.inf:
                assert res.entries[(i, i)] == math.inf

    # math.gamma(a + n + 1) of the classical norms raised OverflowError
    # ("math range error") here
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fam,cap", [(bivariate.Z(0.0), 175), (bivariate.M(2.0, -0.5), 140)],
                             ids=["Z0-cap175", "M-cap140"])
    def test_gauss_norms_past_math_gamma_give_a_result(self, fam, cap):
        res = quad.gram(fam, cap)
        assert res.passed or re.fullmatch(r"harmonic index \d+, degree \d+: .+", res.notes), (
            res.max_offdiag, res.max_diag_relerr, res.notes)

    # math.gamma(beta + 1) of the Jacobi mass raised OverflowError past
    # beta = 170
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("beta", [171.0, 200.0, 1000.0])
    def test_jacobi_mass_past_math_gamma_passes(self, beta):
        for cap in (2, 10, 30):
            res = quad.gram(bivariate.M(beta, 0.5), cap)
            assert res.passed, (cap, res.max_offdiag, res.max_diag_relerr, res.notes)

    @pytest.mark.filterwarnings("error")
    def test_mass_past_the_extended_range_passes(self):
        # Gamma(1801) of the Z(1800) mass overflows np.longdouble; the Gauss
        # weights, relative to the mass, and the ratios of the orthonormal
        # scale never form it, so the blocks read the identity (4e-15) and
        # only the norms, which the raw entries carry, read inf
        res = quad.gram(bivariate.Z(1800), 2)
        assert res.passed and res.notes == ""
        assert res.max_offdiag < 1e-14 and res.max_diag_relerr < 1e-14
        assert all(res.diag_ref[i] == math.inf for i in res.indices)

    @pytest.mark.parametrize(
        "fam,cap,stopped,fault",
        [(bivariate.ZQ(0, 0.3), 70, 13, "weight underflows at lattice index -137"),
         (bivariate.WALL(0.5, 0.001), 45, 9, "non-finite term at lattice index 0"),
         (bivariate.WALL(0, 0.1), 140, 105, "non-finite term at lattice index 0")],
        ids=["ZQ-q0.3", "WALL-q0.001", "WALL-q0.1"],
    )
    def test_lattice_edge_is_a_diagnosed_failure(self, fam, cap, stopped, fault):
        # a non-finite lattice term, or a weight under the np.longdouble
        # range, stops its block and fails the Gram, whose notes name the
        # first harmonic index it stopped, what it met and its lattice
        # index; ZQ(0; 0.3) keeps its rows in range at cap 70, but its
        # weights underflow to 0 on the way out, which the stop rule would
        # have read as a converged sum (max_diag_relerr 0.96)
        res = quad.gram(fam, cap)
        assert res.passed is False
        assert res.notes.startswith(
            f"harmonic index 0: {fault} ({stopped} of {cap + 1} harmonic indices stopped so)"
        ), res.notes

    def test_continuous_gram_forms_each_mass_once(self, monkeypatch):
        # the masses are formed once, for the norm rows; the Gauss rules,
        # relative to them, never form them
        want = quad.gram(bivariate.M(0.5, 0.5), 15)
        calls = []
        mass = radial.measure_mass
        monkeypatch.setattr(radial, "measure_mass",
                            lambda *args: calls.append(args) or mass(*args))
        got = quad.gram(bivariate.M(0.5, 0.5), 15)
        assert len(calls) == 1
        for (_, g1, z1), (_, g2, z2) in zip(got.blocks, want.blocks):
            assert np.array_equal(g1, g2) and np.array_equal(z1, z2)

    def test_range_note_names_an_overflowed_entry(self):
        # norms past the np.longdouble range, and an infinite Gram entry
        norms = [np.array([1.0, 2.0], np.longdouble), np.array([1.0, 1.0], np.longdouble)]
        grams = [np.eye(2), np.array([[1.0, np.inf], [np.inf, 1.0]])]
        assert quad._range_note(norms, grams) == (
            "harmonic index 1, degree 0: a Gram entry leaves the float range")
        grams[1][:] = np.nan
        assert quad._range_note(norms, grams) == ""
        with np.errstate(over="ignore", under="ignore"):
            norms[1][1] = np.longdouble(1e-4000) * 1e-4000
            assert quad._range_note(norms, grams) == (
                "harmonic index 1, degree 1: the closed-form norm underflows to 0")
            norms[0][1] = np.longdouble(1e4000) * 1e4000
        assert quad._range_note(norms, grams) == (
            "harmonic index 0, degree 1: the closed-form norm overflows the extended range")


GAUSS_GRAM_FAMILIES = (bivariate.Z(0.5), bivariate.H(), bivariate.M(0.5, 0.5))


class TestGaussGramsCanFail:
    # the rows are walked with the closed-form ratios of the leading
    # coefficients and norms, and the Gauss weights come from the recurrence
    # alone: a diagonal entry is r_0^2 prod r_i^2 B_i, which reads 1 only
    # where the recurrence and the closed forms agree

    @pytest.mark.parametrize("fam", GAUSS_GRAM_FAMILIES, ids=["Z", "H", "M"])
    def test_recurrence_off_by_a_thousandth_fails_the_diagonal(self, fam, monkeypatch):
        true = radial.recurrence

        def off(*args):
            A, B = true(*args)
            B[..., 5:] *= 1.001
            return A, B

        assert quad.gram(fam, 15).passed
        monkeypatch.setattr(radial, "recurrence", off)
        res = quad.gram(fam, 15)
        assert not res.passed
        assert res.max_diag_relerr > 1e-3, res.max_diag_relerr

    @pytest.mark.parametrize("fam", GAUSS_GRAM_FAMILIES, ids=["Z", "H", "M"])
    def test_one_norm_step_off_by_a_millionth_fails(self, fam, monkeypatch):
        true = radial.norm_steps

        def off(*args):
            steps = true(*args)
            steps[:, 6] *= 1 + 1e-6  # zeta_7 / zeta_6 of every block
            return steps

        monkeypatch.setattr(radial, "norm_steps", off)
        res = quad.gram(fam, 15)
        assert not res.passed
        assert res.max_diag_relerr > 4e-7, res.max_diag_relerr


# The Gram grids and cap ladders of the gram_frontier benchmark workload,
# and digests of their results: the raw entries, norms and maxima.  The Z,
# H and M digests, and the grid digest of Z and M, pin those families bit
# for bit as their recurrence rows at the nodes and Christoffel weights of
# golub_welsch give them; TestGolubWelsch.test_matches_40_digit_rule, the
# certified caps of TestGram and test_raw_diagonal_reads_the_textbook_norms
# are their oracles.  The q-family blocks are one np.dot over the points
# the lattice walk keeps, whose oracle is
# TestLatticeSumAgainstScalarLoop.test_gram_blocks_bit_identical.  The ZQ
# digests pin the recurrence rows on the q-Laguerre lattice, with the
# np.longdouble leading-coefficient ratios, against the one-product norms, whose
# oracle is tests/test_radial.py TestQLaguerreNorms.  The WALL and MQ
# digests pin the Newton rows of radial.block_rows; tests/test_radial.py
# TestLatticeRows and TestLatticeNorms and the certified caps of TestGram
# are their oracles.  Every digest was re-recorded when every block took
# one orthonormal scale, its rows divided by the square roots of
# np.longdouble norms (before: grids 557ad928ddeb6530, grids-ZQ
# 2fe45496d9ae8957, grids-WALL-MQ 650453198a4562f8, Z c91ed1ce8e1bb088, H
# 549bda9b5b356049, M eb827d853d45b9f2, ZQ 74210797b3fa0db8, WALL
# 5369749b2e5fd01d, MQ 9ba9db3ba3a75ceb).  Before the q blocks were one
# np.dot (the outer products summed point by point), ZQ read
# 68a22e2d93a667f4, WALL 050c35697422d195, MQ 12cdfd69395e4fbd and
# grids-WALL-MQ 9073153e4c43af53, and the grid digest held ZQ too
# (c381c7f8f9ed2947).  The M and grid digests were re-recorded when
# radial.measure_mass formed the Jacobi mass B(g + 1, beta + 1) from B(f, e)
# with f, e in (0, 1] and two running products (before: grids
# f5a14962dce8717d, M 272715febe06e571); every entry moved by at most
# 2.6e-16 of its diagonal, and the oracle of the new mass is
# tests/test_radial.py TestNorms.test_jacobi_mass_matches_mpmath_beta.
# Every digest was re-recorded when the rows were walked with the ratios
# of the leading coefficients and of the orthonormal scale inside the
# recurrence (radial.monic_values), the Gauss weights became relative to
# the mass and the Newton rows took the ratios into P_n (before: grids
# 0999a986e6ae92dd, grids-ZQ fef214d4746d9274, grids-WALL-MQ
# 89bfaf2a8161a6cc, Z c28e69b9decd9e1f, H ac1730a612d11360, M
# 4511e05854e53bc9, ZQ f4bbac2bf520c5b7, WALL e900afbfbc351cce, MQ
# a599b1363887ee4b); every orthonormal entry moved by at most 1.1e-16,
# and tests/test_radial.py TestRowsAgainstMpmath is the 30-digit oracle
# of the rows, beside those named above.
# The grids-ZQ and ZQ digests were re-recorded when the q-Laguerre lattice
# weights took x^(a+1) as the running product c^(a+1) q^(+-(a+1)k) in
# place of np.power per exponent (before: grids-ZQ ceb19e1094ddeec0, ZQ
# 40a1a83d08fc3316); every entry moved by at most 4.1e-19 of its diagonal,
# and TestLatticeSumAgainstScalarLoop.test_qlaguerre_weights_match_np_power
# is the oracle of the weights.
GRAM_LADDER = (2, 4, 6, 8, 10, 12, 15)
LADDER_FAMILIES = (bivariate.Z(0.5), bivariate.H(), bivariate.M(0.5, 0.5),
                   bivariate.ZQ(0.5, 0.5), bivariate.WALL(0.5, 0.5),
                   bivariate.MQ(0.5, 0.5, 0.5))
GRAM_GROUPS = {
    "grids": [(bivariate.Z(b), 4, 1e-9, 1e-8) for b in (0.0, 0.5, 2.0)]
    + [(bivariate.M(b, g), 4, 1e-9, 1e-8) for b, g in ((0.0, 0.0), (0.5, 2.0), (2.0, 0.5))],
    "grids-ZQ": [(bivariate.ZQ(0.5, q), 4, 1e-9, 1e-7) for q in (0.3, 0.5, 0.8)],
    "grids-WALL-MQ": [(fam, 4, 1e-9, 1e-7) for q in (0.3, 0.5, 0.8)
                      for fam in (bivariate.WALL(0.5, q), bivariate.MQ(0.5, 0.5, q))],
    **{fam.tag: [(fam, cap, 1e-9, 1e-8) for cap in GRAM_LADDER] for fam in LADDER_FAMILIES},
}
GRAM_DIGESTS = {
    "grids": "33e6ecb3621a64be",
    "grids-ZQ": "361a8e9683657f73",
    "grids-WALL-MQ": "58a93f24227cee21",
    "Z": "eb0a1e70ab0d585e",
    "H": "ba00c48b4c899732",
    "M": "fd1c7dd6abd924ec",
    "ZQ": "fd256e8aaafe975b",
    "WALL": "5aa936b77181bceb",
    "MQ": "d293496c6c64b122",
}


class TestGramPinned:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63,
        reason="digests recorded with x87 80-bit extended np.longdouble",
    )
    @pytest.mark.parametrize("group", sorted(GRAM_DIGESTS))
    def test_results_bit_identical(self, group):
        h = hashlib.sha256()
        for fam, cap, off_tol, diag_tol in GRAM_GROUPS[group]:
            res = quad.gram(fam, cap, offdiag_tol=off_tol, diag_rel_tol=diag_tol)
            h.update(repr((sorted(res.entries.items()), sorted(res.diag_ref.items()),
                           res.max_offdiag, res.max_diag_relerr, res.passed)).encode())
        assert h.hexdigest()[:16] == GRAM_DIGESTS[group]


class TestRadialGram:
    def test_scale_multiplies_rows_and_columns(self):
        # ratios whose running products are the scale
        fam = radial.laguerre(0.0)
        scale = np.array([1.0, -2.0, 3.0])
        plain = _one_block(fam, 1, 2, np.ones((1, 3)))
        scaled = _one_block(fam, 1, 2, np.array([[1.0, -2.0, -1.5]]))
        assert_allclose(scaled, np.outer(scale, scale) * plain, rtol=1e-13, atol=1e-13)


def _table_block(fam, alpha, nmax):
    """Radial Gram block from the exact power-basis tables evaluated in
    np.longdouble at the same Gauss nodes or lattice points."""
    coeffs = np.zeros((nmax + 1, nmax + 1), dtype=np.longdouble)
    for k in range(nmax + 1):
        coeffs[k, nmax - k:] = radial.radial_coeffs(fam, k, alpha)
    powers = np.arange(nmax, -1, -1)

    def values(x):
        return coeffs @ x[None, :] ** powers[:, None]

    if fam.is_q():
        def integrand(x):
            v = values(x).T
            return v[:, :, None] * v[:, None, :]

        return quad.q_lattice_sum(fam, alpha, integrand).astype(float)
    rule = quad.golub_welsch(fam, alpha, nmax + 1)
    vals = values(rule.nodes.astype(np.longdouble))
    return ((vals * rule.weights) @ vals.T).astype(float)


class TestRadialGramAgainstTables:
    @pytest.mark.parametrize(
        "fam,cap",
        [
            (bivariate.Z(0.5), 8),
            (bivariate.M(0.5, 0.5), 8),
            (bivariate.ZQ(0.5, 0.5), 8),
            (bivariate.WALL(0.5, 0.5), 4),
            (bivariate.MQ(0.5, 0.5, 0.5), 4),
        ],
        ids=["Z", "M", "ZQ", "WALL", "MQ"],
    )
    def test_recurrence_blocks_match_power_basis(self, fam, cap):
        # the rows of radial_grams (the recurrence, or for WALL and MQ the
        # lattice Newton form) and the exact tables give the same Gram; the
        # alternating q tables lose digits to cancellation in the power
        # basis beyond cap 4 (3e-11 at cap 6), so WALL and MQ stop there
        rad = bivariate.radial_of(fam)
        for alpha in range(cap + 1):
            block = _one_block(rad, alpha, cap - alpha, _unit(rad, alpha, cap - alpha))
            ref = _table_block(rad, alpha, cap - alpha)
            scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
            assert np.max(np.abs(block - ref) / scale) < 1e-12, alpha


class TestSummarize:
    def test_repeated_block_measured_once(self):
        # gram's blocks of index a and -a share one G, one after the other;
        # it is measured once, and the result is that of measuring every
        # block
        class Counted(np.ndarray):
            differences = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Counted.differences += ufunc is np.subtract
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        g = np.array([[1.2, 0.1], [0.1, 0.8]]).view(Counted)
        zeta = np.array([2.0, 10.0])
        other = (np.array([[1.0, 1e-3], [1e-3, 1.0 + 1e-9]]), np.array([1.0, 3.0]))
        blocks = [([0, 1], g, zeta), ([2, 3], g, zeta), ([4, 5], *other), ([6, 7], g, zeta)]
        res = quad.summarize(blocks, 1e-9, 0.5)
        assert Counted.differences == 2
        copies = [(idxs, np.array(g), z.copy()) for idxs, g, z in blocks]
        full = quad.summarize(copies, 1e-9, 0.5)
        assert (res.max_offdiag, res.max_diag_relerr, res.diag_ref) == (
            full.max_offdiag, full.max_diag_relerr, full.diag_ref)

    def test_reports_worst_entries(self):
        blocks = [([0, 1], np.array([[1.0, 0.025], [0.025, 0.8]]), np.array([2.0, 10.0]))]
        res = quad.summarize(blocks, 1e-9, 0.5, notes="x")
        assert res.max_offdiag == 0.025
        assert res.max_diag_relerr == pytest.approx(0.2)
        assert not res.passed
        assert res.notes == "x"
        assert res.diag_ref == {0: 2.0, 1: 10.0}
        assert quad.summarize(blocks, 0.1, 0.5).passed

    def test_matches_all_pairs_loop(self):
        # the maxima equal a loop over every pair, exact zeros included;
        # normalized by the closed-form norms, the raw entries read them to
        # rounding
        def all_pairs(indices, entries):
            max_off = max_rel = 0.0
            for i in indices:
                max_rel = max(max_rel, abs(entries[(i, i)] - 1.0))
                for j in indices:
                    if i != j:
                        max_off = max(max_off, abs(entries[(i, j)]))
            return max_off, max_rel

        def raw_pairs(res):
            max_off = max_rel = 0.0
            for i in res.indices:
                z = res.diag_ref[i]
                max_rel = max(max_rel, abs(res.entries[(i, i)] - z) / z)
                for j in res.indices:
                    if i != j:
                        scale = math.sqrt(z * res.diag_ref[j])
                        max_off = max(max_off, abs(res.entries[(i, j)]) / scale)
            return max_off, max_rel

        rng = np.random.default_rng(3)
        indices = list(range(6))
        entries = {}
        for i in indices:
            for j in indices:
                if i == j:
                    entries[(i, j)] = 1.0 + rng.normal(scale=1e-6)
                else:
                    entries[(i, j)] = 0.0 if (i + j) % 3 else rng.normal(scale=1e-3)
        g = np.array([[entries[(i, j)] for j in indices] for i in indices])
        zeta = rng.uniform(1.0, 5.0, len(indices))
        res = quad.summarize([(indices, g, zeta)], 1e-9, 1e-8)
        assert (res.max_offdiag, res.max_diag_relerr) == all_pairs(indices, entries)
        assert res.max_offdiag > 0.0
        assert_allclose(raw_pairs(res), all_pairs(indices, entries), rtol=1e-12, atol=1e-15)
        res = quad.gram(bivariate.M(0.5, 0.5), 4)
        blocks = {i: (idxs, g) for idxs, g, _ in res.blocks for i in idxs}
        entries = {(i, j): g[idxs.index(i), idxs.index(j)] if j in idxs else 0.0
                   for i, (idxs, g) in blocks.items() for j in res.indices}
        assert (res.max_offdiag, res.max_diag_relerr) == all_pairs(res.indices, entries)
        assert_allclose(raw_pairs(res), all_pairs(res.indices, entries), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "g",
        [[[1.0, math.nan], [math.nan, 1.0]], [[1.0, math.nan], [0.0, 1.0]]],
        ids=["symmetric", "one-sided"],
    )
    def test_nan_offdiagonal_fails(self, g):
        res = quad.summarize([([0, 1], np.array(g), np.ones(2))], 1e-9, 1e-8)
        assert math.isnan(res.max_offdiag)
        assert res.max_diag_relerr == 0.0
        assert not res.passed

    def test_nan_diagonal_fails(self):
        g = np.array([[math.nan, 0.0], [0.0, 1.0]])
        res = quad.summarize([([0, 1], g, np.ones(2))], 1e-9, 1e-8)
        assert math.isnan(res.max_diag_relerr)
        assert not res.passed

    def test_nan_in_a_later_block_fails(self):
        blocks = [([0], np.array([[1.0]]), np.ones(1)),
                  ([1, 2], np.array([[1.0, math.nan], [math.nan, 1.0]]), np.ones(2)),
                  ([3], np.array([[1.0]]), np.ones(1))]
        res = quad.summarize(blocks, 1e-9, 1e-8)
        assert math.isnan(res.max_offdiag)
        assert not res.passed

    def test_zero_diagonal_under_nonzero_offdiagonal_fails(self):
        # in the orthonormal scale a zero diagonal is a diagonal error of 1
        g = np.array([[0.0, 1e-3], [1e-3, 1.0]])
        res = quad.summarize([([0, 1], g, np.ones(2))], 1e-9, 2.0)
        assert (res.max_offdiag, res.max_diag_relerr) == (1e-3, 1.0)
        assert not res.passed

    def test_overflowing_diagonal_product(self):
        # norms whose product 1e200 * 1e200 overflows: the pair reads 0.5,
        # its orthonormal entry, and the raw entry 0.5e300 * ... reads inf
        g = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = quad.summarize([([0, 1], g, np.full(2, 1e200))], 1e-9, 1e-8)
        assert (res.max_offdiag, res.max_diag_relerr) == (0.5, 0.0)
        assert not res.passed
        assert res.entries[(0, 1)] == pytest.approx(0.5e200, rel=1e-15)
        big = np.full(2, np.longdouble(1e300) * 1e100)
        res = quad.summarize([([0, 1], g, big)], 1e-9, 1e-8)
        assert res.max_offdiag == 0.5
        assert res.entries[(0, 1)] == res.diag_ref[0] == math.inf

    def test_underflowing_diagonal_product(self):
        # norms whose product 1e-200 * 1e-200 underflows to 0: the pair
        # reads 1e-20, not inf
        g = np.array([[1.0, 1e-20], [1e-20, 1.0]])
        res = quad.summarize([([0, 1], g, np.full(2, 1e-200))], 1e-9, 1e-8)
        assert res.max_offdiag == 1e-20
        assert res.passed

    def test_blocks_read_as_alone_when_the_gram_spans_the_range(self):
        # the norms of different blocks span the float range, which the
        # orthonormal blocks do not see
        blocks = [([0, 1], np.array([[1.0, 3e-3], [3e-3, 1.0]]), np.full(2, 1e-170)),
                  ([2, 3], np.array([[1.0, 2e-2], [2e-2, 1.0]]), np.full(2, 1e170)),
                  ([4, 5], np.array([[1.0, 0.5], [0.5, 1.0]]), np.full(2, 1e200))]
        alone = [quad.summarize([b], 1e-9, 1e-8).max_offdiag for b in blocks]
        assert alone == [3e-3, 2e-2, 0.5]
        for k in (2, 3):
            assert quad.summarize(blocks[:k], 1e-9, 1e-8).max_offdiag == max(alone[:k])
        res = quad.summarize([], 1e-9, 1e-8)
        assert (res.indices, res.max_offdiag, res.passed) == ([], 0.0, True)

    def test_exact_zeros_never_count(self):
        # an exact zero cannot raise the maximum, inside a block or across
        # blocks, even next to a zero diagonal
        blocks = [([0, 1], np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([1e-300, 1.0])),
                  ([2], np.array([[1.0]]), np.ones(1))]
        res = quad.summarize(blocks, 1e-9, 2.0)
        assert res.max_offdiag == 0.0
        assert res.passed
        assert res.entries[(0, 2)] == 0.0


def _old_entries(fam, cap):
    """The (cap+1)^4 entry dict as gram assembled it before block results:
    one float per index pair, the raw radial block value within a harmonic
    index, sqrt(zeta_i) G_ij sqrt(zeta_j) of its orthonormal block G and
    norms zeta, and 0.0 across."""
    rad = bivariate.radial_of(fam)
    norm_const = math.pi if fam.tag in ("Z", "H") else 1.0
    blocks = []
    for a in range(cap + 1):
        zeta = radial.norms(rad, [a], [cap - a])[0] * bivariate.harmonic_scale(fam, cap - a) ** 2
        root = np.sqrt(norm_const * zeta)
        ratios = _orthonormal(rad, [a], [cap - a])
        if fam.tag == "H":  # the ratios -k of its harmonic scale
            h = bivariate.harmonic_ratios(fam, cap - a)[1:]
            ratios[:, 1:] = h / np.sqrt(h * h * radial.norm_steps(rad, [a], cap - a))
        g = _one_block(rad, a, cap - a, ratios)
        blocks.append((root[:, None] * g * root).astype(float))
    indices = [(m, n) for m in range(cap + 1) for n in range(cap + 1)]
    entries = {}
    for (m, n) in indices:
        for (s, t) in indices:
            val = float(blocks[abs(m - n)][min(m, n), min(s, t)]) if m - n == s - t else 0.0
            entries[((m, n), (s, t))] = val
    return indices, entries


class TestEntriesView:
    @pytest.mark.parametrize("fam", LADDER_FAMILIES, ids=[f.tag for f in LADDER_FAMILIES])
    @pytest.mark.parametrize("cap", [0, 1, 4])
    def test_equals_the_old_entry_dict(self, fam, cap):
        indices, old = _old_entries(fam, cap)
        res = quad.gram(fam, cap)
        assert res.indices == indices
        assert len(res.entries) == len(old) == (cap + 1) ** 4
        assert list(res.entries.items()) == list(old.items())
        assert all(type(v) is float for v in res.entries.values())
        assert res.entries == old
        assert list(res.diag_ref) == indices
        foreign = [((0, 0), (cap + 1, 0)), ((cap + 1, cap + 1), (0, 0)), (0, 0),
                   ((0, 0),), ((0, 0), (0, 0), (0, 0)), "ab"]
        for key in foreign:
            with pytest.raises(KeyError):
                res.entries[key]
            assert key not in res.entries
        assert ((0, 0), (0, 0)) in res.entries

    def test_read_only(self):
        res = quad.gram(bivariate.Z(0.5), 1)
        with pytest.raises(TypeError):
            res.entries[((0, 0), (0, 0))] = 1.0

    def test_blocks_one_per_harmonic_index(self):
        res = quad.gram(bivariate.M(0.5, 0.5), 3)
        assert sorted(idxs[0][0] - idxs[0][1] for idxs, _, _ in res.blocks) == list(range(-3, 4))
        for idxs, g, zeta in res.blocks:
            assert g.shape == (len(idxs), len(idxs)) == (len(zeta), len(zeta))
            assert zeta.dtype == np.longdouble
            assert len({m - n for m, n in idxs}) == 1
            assert [res.diag_ref[i] for i in idxs] == [float(z) for z in zeta]


def _scalar_values(fam, n, alpha):
    """phi_n(x; alpha) at one float x, rounded to float."""
    rows = radial.phi_rows(fam, alpha, n)
    return lambda x: float(rows(x)[n])


def _ref_zero_circles(rad, n, m_range):
    """The zero-circle table m by m, each m certified by scalar sign tests
    of phi_n at the ends of its intervals [z_i - w, z_i + w] and by their
    disjointness; max_dev is the largest w, inf when some m is not
    certified."""
    radii_table = []
    max_dev = 0.0
    for m in m_range:
        zeros = radial.radial_zeros(rad, n, m - n)
        w = quad.ZERO_HALF_WIDTH * zeros[-1]
        f = _scalar_values(rad, n, m - n)
        ends = [(z - w, z + w) for z in zeros.tolist()]
        values = [(f(a), f(b)) for a, b in ends]
        certified = (all(fa < 0 < fb or fa > 0 > fb for fa, fb in values)
                     and all(b < a for (_, b), (a, _) in zip(ends, ends[1:])))
        max_dev = max(max_dev, w if certified else math.inf)
        radii_table.append((m, np.sqrt(zeros)))
    monotone = all(np.all(cur > prev) for (_, prev), (_, cur) in zip(radii_table, radii_table[1:]))
    return monotone, radii_table, max_dev


def _moved(monkeypatch, move):
    """Patch radial.radial_zeros so that every row of zeros passes through
    move(zeros, w), w the half-width of its m, before the check reads it."""
    true_zeros = radial.radial_zeros

    def moved_zeros(*args):
        zeros = true_zeros(*args)
        move(zeros, quad.ZERO_HALF_WIDTH * zeros[:, -1])
        return zeros

    monkeypatch.setattr(radial, "radial_zeros", moved_zeros)


# the zero-circle grid of the per-m reference: Laguerre and Jacobi, each n
# from m = n and from m = n + 3, six m each
REF_FAMILIES = [radial.laguerre(b) for b in (-0.9, -0.5, 0.0, 0.5, 1.3, 3.1, 10.0)] + [
    radial.shifted_jacobi(b, g) for b in (-0.5, 0.5, 2.0) for g in (-0.9, -0.5, 0.5, 2.0)]


class TestZeros:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 15])
    def test_matches_the_per_m_reference(self, n):
        for fam in REF_FAMILIES:
            for m0 in (n, n + 3):
                m_range = range(m0, m0 + 6)
                mono, table, dev = quad.zero_circle_monotonicity(fam, n, m_range)
                ref_mono, ref_table, ref_dev = _ref_zero_circles(fam, n, m_range)
                assert mono is ref_mono and dev.hex() == ref_dev.hex()
                assert [m for m, _ in table] == list(m_range)
                assert b"".join(r.tobytes() for _, r in table) == b"".join(
                    r.tobytes() for _, r in ref_table)

    def test_certified_intervals_hold_a_sign_change_of_phi_n(self):
        # 30-digit mpmath values of phi_n, from mpmath's L_n^(alpha+beta)(x)
        # and P_n^(alpha+gamma, beta)(1 - 2x), at the float ends of every
        # interval of m = n and m = n + 30 change sign across it
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for fam in REF_FAMILIES:
                for n in (1, 3, 15, 26):
                    _, table, dev = quad.zero_circle_monotonicity(fam, n, [n, n + 30])
                    widths = []
                    for alpha in (0, 30):
                        zeros = radial.radial_zeros(fam, n, alpha)
                        w = quad.ZERO_HALF_WIDTH * zeros[-1]
                        for ends in zip((zeros - w).tolist(), (zeros + w).tolist()):
                            x = [mp.mpf(end) for end in ends]
                            if fam.kind == "laguerre":
                                lo, hi = (mp.laguerre(n, alpha + fam.beta, t) for t in x)
                            else:
                                lo, hi = (mp.jacobi(n, alpha + fam.gamma, fam.beta, 1 - 2 * t)
                                          for t in x)
                            assert mp.sign(lo) * mp.sign(hi) < 0, (fam, n, alpha)
                        widths.append(w)
                    assert dev == max(widths), (fam, n)

    @pytest.mark.parametrize("fam", [radial.laguerre(0.5), radial.shifted_jacobi(0.5, -0.5)],
                             ids=["laguerre", "jacobi"])
    def test_zero_moved_by_ten_widths_is_an_infinite_deviation(self, fam, monkeypatch):
        # no interval may certify a zero it does not hold, in either
        # direction and at any place among the zeros
        assert quad.zero_circle_monotonicity(fam, 4, range(4, 7))[2] < math.inf
        for i in range(4):
            for sign in (1.0, -1.0):
                def move(zeros, w, i=i, sign=sign):
                    zeros[:, i] += sign * 10.0 * w
                with monkeypatch.context() as patch:
                    _moved(patch, move)
                    assert quad.zero_circle_monotonicity(fam, 4, range(4, 7))[2] == math.inf

    @pytest.mark.parametrize("fam", [radial.laguerre(0.5), radial.shifted_jacobi(0.5, -0.5)],
                             ids=["laguerre", "jacobi"])
    def test_zero_moved_by_half_a_width_stays_certified(self, fam, monkeypatch):
        # an interval holds its zero over its whole half-width w, so a zero
        # off by w / 2 either way is certified, and the deviation stays w
        dev = quad.zero_circle_monotonicity(fam, 4, range(4, 7))[2]
        for i in range(4):
            for sign in (1.0, -1.0):
                def move(zeros, w, i=i, sign=sign):
                    zeros[:, i] += sign * 0.5 * w
                with monkeypatch.context() as patch:
                    _moved(patch, move)
                    moved_dev = quad.zero_circle_monotonicity(fam, 4, range(4, 7))[2]
                    assert moved_dev == pytest.approx(dev, rel=1e-12), (i, sign)

    @pytest.mark.parametrize("n", [40, 100])
    def test_certifies_every_zero_at_high_degree(self, n):
        # the recurrence walk keeps the sign of p_n at every interval end
        # far past the degrees of the reference grid
        for fam in (radial.laguerre(0.5), radial.laguerre(-0.9),
                    radial.shifted_jacobi(0.5, 0.5), radial.shifted_jacobi(-0.5, -0.9)):
            mono, _, dev = quad.zero_circle_monotonicity(fam, n, range(n, n + 20))
            largest = radial.radial_zeros(fam, n, np.arange(20))[:, -1].max()
            assert mono, (fam, n)
            assert dev == quad.ZERO_HALF_WIDTH * largest, (fam, n)

    def test_two_zeros_in_one_interval_are_an_infinite_deviation(self, monkeypatch):
        # both intervals change sign across the one zero they share, so
        # only their overlap keeps them from certifying the zero left out
        fam = radial.shifted_jacobi(0.5, -0.5)

        def move(zeros, w):
            zeros[:, 1] = zeros[:, 0] + w / 2

        _moved(monkeypatch, move)
        assert quad.zero_circle_monotonicity(fam, 3, range(3, 6))[2] == math.inf

    def test_nan_walk_value_is_an_infinite_deviation(self, monkeypatch):
        # a breakdown of the walk fails the check; it does not raise
        true_walk = radial.monic_values

        def nan_walk(*args):
            rows = true_walk(*args)
            rows[-1] = np.nan
            return rows

        monkeypatch.setattr(radial, "monic_values", nan_walk)
        mono, _, dev = quad.zero_circle_monotonicity(radial.laguerre(0.5), 3, range(3, 6))
        assert mono and dev == math.inf

    def test_groups_of_m_read_the_one_group_numbers(self, monkeypatch):
        # a range past qcalc.MAX_ENTRIES is taken in groups of m, three m
        # a group here, each m reading the same numbers
        fam = radial.shifted_jacobi(1.3, 0.7)
        mono, table, dev = quad.zero_circle_monotonicity(fam, 3, range(3, 11))
        monkeypatch.setattr(qcalc, "MAX_ENTRIES", 3 * 36)
        calls = []
        true_zeros = radial.radial_zeros
        monkeypatch.setattr(radial, "radial_zeros",
                            lambda *args: calls.append(args[2]) or true_zeros(*args))
        assert quad.zero_circle_monotonicity(fam, 3, range(3, 11))[0] is mono
        _, grouped, grouped_dev = quad.zero_circle_monotonicity(fam, 3, range(3, 11))
        assert [len(alphas) for alphas in calls] == [3, 3, 2] * 2
        assert grouped_dev.hex() == dev.hex()
        assert all(r.tobytes() == g.tobytes() for (_, r), (_, g) in zip(table, grouped))

    def test_unbracketed_zero_is_an_infinite_deviation(self, monkeypatch):
        # eigensolver zeros off by +50 hold no zero in their intervals and
        # must not certify themselves
        fam = radial.laguerre(0.5)
        true = radial.radial_zeros(fam, 3, [1])
        monkeypatch.setattr(radial, "radial_zeros", lambda *args: true + 50.0)
        _, _, dev = quad.zero_circle_monotonicity(fam, 3, range(4, 5))
        assert dev == math.inf

    def test_monotone_radii(self):
        mono, table, dev = quad.zero_circle_monotonicity(
            radial.laguerre(0.5), 2, range(2, 6)
        )
        assert mono
        assert dev < 1e-9
        assert [m for m, _ in table] == [2, 3, 4, 5]
        for _, radii in table:
            assert np.all(np.diff(radii) > 0) or radii.size == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_degrees_without_zeros_before_any_work(self, n, monkeypatch):
        # degree 0 has no zeros: a check of none would pass vacuously
        def no_work(*args):
            raise AssertionError("zeros formed")

        monkeypatch.setattr(radial, "radial_zeros", no_work)
        with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
            quad.zero_circle_monotonicity(radial.laguerre(0.0), n, range(max(n, 0), 3))

    def test_rejects_empty_m_range(self):
        with pytest.raises(ValueError, match="nonempty range of m"):
            quad.zero_circle_monotonicity(radial.laguerre(0.0), 2, range(3, 2))

    def test_rejects_indices_outside_wedge(self, monkeypatch):
        # any m < n fails the whole range before its first eigensolve
        def no_work(*args):
            raise AssertionError("zeros formed")

        monkeypatch.setattr(radial, "radial_zeros", no_work)
        for m_range in (range(1, 4), [5, 4, 2], [3, 2]):
            with pytest.raises(ValueError, match="needs m >= n"):
                quad.zero_circle_monotonicity(radial.laguerre(0.0), 3, m_range)

"""Tests for the sparse bivariate coefficient tables and their operators."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from bivarortho import polycore
from bivarortho.polycore import (
    MAX_EXPONENT,
    BivariatePoly,
    DiagFactor,
    DiagTables,
    Tolerance,
    identity_residual,
    pack,
)


def table(pairs):
    """The table over a dict keyed by exponent pairs (j, k)."""
    return BivariatePoly({pack(j, k): v for (j, k), v in pairs.items()})


# random sparse tables with small integer exponents and tame coefficients
coeffs = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
polys = st.dictionaries(keys, coeffs, max_size=8).map(table)
complex_coeffs = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
# small exact real and complex values, so sums and differences cancel exactly
exact_coeffs = st.sampled_from([1.0, -1.0, 2.5, -2.5, 0.5j, -0.5j, 1.0 + 1.0j])


# helpers that only these tests call, kept here rather than in polycore


def residual(p, r):
    return identity_residual(p, r)[0]


def _passes(tol, res, scale):
    """The gate's verdict on one residual and scale, as a one-entry batch."""
    return bool(tol.gate(np.array([res]), np.array([scale]))[0])


def negated(p):
    """-p, term by term."""
    return table({k: -v for k, v in p.pairs().items()})


def row_table(t, row):
    """Row ``row`` of a DiagTables as a dict table; its entries at a
    negative exponent must be 0.0."""
    top1, top2 = int(t.m[row]) + t.i, int(t.n[row]) + t.j
    out = {}
    for d, v in enumerate(t.c[row].tolist()):
        if top1 - d < 0 or top2 - d < 0:
            assert v == 0.0, (row, d, v)
        else:
            out[(top1 - d, top2 - d)] = v
    return table(out)


def count_tables(monkeypatch):
    """Record each table made from now on, through the operators'
    constructor or through __init__, as (route, dict)."""
    built = []
    make, init = polycore._table, BivariatePoly.__init__

    def counting_table(terms):
        built.append(("_table", terms))
        return make(terms)

    def counting_init(poly, terms=None):
        built.append(("__init__", terms))
        init(poly, terms)

    monkeypatch.setattr(polycore, "_table", counting_table)
    monkeypatch.setattr(BivariatePoly, "__init__", counting_init)
    return built


def is_zero(p):
    return not p.terms


def total_degree(p):
    if not p.terms:
        return -1
    return max(j + k for (j, k) in p.pairs())


def degree(p, var):
    """Degree in z1 (var=1) or z2 (var=2); -1 for the zero polynomial."""
    if not p.terms:
        return -1
    i = 0 if var == 1 else 1
    return max(key[i] for key in p.pairs())


def shift_exponent(p, dj, dk):
    """Multiply by z1^dj z2^dk; negative shifts must divide exactly."""
    out = {}
    for (j, k), v in p.pairs().items():
        jj, kk = j + dj, k + dk
        if jj < 0 or kk < 0:
            raise ValueError("exponent shift produced a negative power")
        out[(jj, kk)] = v
    return table(out)


def max_abs_coeff(p):
    """Largest |coefficient| of one table; NaN when its coefficients sum to
    NaN (the residual's NaN rule, applied to p - 0)."""
    return residual(p, BivariatePoly.zero())


def reference_product(p, q):
    """Table product by accumulating every pair of terms in p-major order."""
    out = {}
    for (j1, k1), v1 in p.pairs().items():
        for (j2, k2), v2 in q.pairs().items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    return table(out)


def diff_qpartial(p, var, q):
    """Forward q-derivative D_q f(z) = (f(z) - f(qz)) / ((1-q) z)."""
    i = 0 if var == 1 else 1
    out = {}
    for key, v in p.pairs().items():
        e = key[i]
        if e == 0:
            continue
        nk = (key[0] - 1, key[1]) if var == 1 else (key[0], key[1] - 1)
        out[nk] = out.get(nk, 0) + v * (1.0 - q ** e) / (1.0 - q)
    return table(out)


class TestConstruction:
    def test_zero_pruning(self):
        p = table({(1, 2): 0.0, (0, 0): 3.0})
        assert p.pairs() == {(0, 0): 3.0}

    def test_zero_pruning_keeps_nan_and_prunes_negative_zero(self):
        p = table({(0, 0): -0.0, (1, 0): math.nan, (0, 1): 0j})
        assert list(p.pairs()) == [(1, 0)]
        assert math.isnan(p.pairs()[(1, 0)])

    def test_table_takes_ownership_of_its_dict(self):
        # without a zero to prune the dict is kept, not copied
        terms = {pack(1, 0): 2.0, pack(0, 0): -1.0}
        assert BivariatePoly(terms).terms is terms
        with_zero = {pack(1, 0): 2.0, pack(0, 0): 0.0}
        p = BivariatePoly(with_zero)
        assert p.terms is not with_zero and p.pairs() == {(1, 0): 2.0}

    def test_zero_const_monomial(self):
        assert is_zero(BivariatePoly.zero())
        assert table({(0, 0): 2.0}).pairs() == {(0, 0): 2.0}
        assert BivariatePoly.monomial(2, 1, -3.0).pairs() == {(2, 1): -3.0}

    def test_equality_is_table_equality(self):
        assert table({(1, 0): 2.0}) == table({(1, 0): 2.0})
        assert table({(1, 0): 2.0}) != table({(0, 1): 2.0})

    def test_degrees(self):
        p = table({(3, 1): 1.0, (0, 4): 2.0})
        assert total_degree(p) == 4
        assert degree(p, 1) == 3
        assert degree(p, 2) == 4
        assert total_degree(BivariatePoly.zero()) == -1


class TestArithmetic:
    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_distributes(self, p, q, r):
        lhs = p * (q + r)
        rhs = p * q + p * r
        assert residual(lhs, rhs) <= 1e-9 * max(
            1.0, max_abs_coeff(p) * (max_abs_coeff(q) + max_abs_coeff(r))
        )

    @given(polys, polys, st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates_pointwise(self, p, q, z1, z2):
        direct = (p * q).evaluate(z1, z2)
        split = p.evaluate(z1, z2) * q.evaluate(z1, z2)
        assert_allclose(direct, split, rtol=1e-8, atol=1e-8)

    @given(
        st.dictionaries(keys, exact_coeffs, max_size=8),
        st.dictionaries(keys, exact_coeffs, max_size=8),
        st.sampled_from([0.0, 2.0, -1.5, 0.5 - 1.0j]),
    )
    @settings(max_examples=100, deadline=None)
    def test_subtraction_is_adding_the_negation(self, a, b, c):
        # the one subtraction the tables carry is the reflected one, s - p
        p = table(a)
        assert (c - p).terms == (negated(p) + c).terms

    def test_subtraction_prunes_and_keeps_complex(self):
        p = table({(0, 0): 1.0 + 2.0j, (1, 0): 3.0})
        q = table({(0, 0): 1.0 + 2.0j, (0, 1): 1.0j})
        assert (p + negated(q)).pairs() == {(1, 0): 3.0, (0, 1): -1.0j}
        assert (p + -(1.0 + 2.0j)).pairs() == {(1, 0): 3.0}

    def test_scalar_ops(self):
        p = table({(1, 1): 2.0})
        assert (3.0 * p).pairs() == {(1, 1): 6.0}
        assert is_zero(p + negated(p))
        assert (1.0 - p).pairs() == {(0, 0): 1.0, (1, 1): -2.0}


def _bits(p):
    """Keys, in dict order, with each coefficient's type and exact bits."""
    def bits(v):
        if isinstance(v, complex):
            return v.real.hex(), v.imag.hex()
        return v.hex() if isinstance(v, float) else repr(v)
    return [(k, type(v).__name__, bits(v)) for k, v in p.terms.items()]


SCALAR_TABLES = {
    "with-const": {(1, 0): 1.0, (0, 0): 2.5, (0, 2): -0.75},
    "no-const": {(1, 1): 2.0, (2, 0): -3.0},
    "complex": {(0, 0): 1.0 + 2.0j, (0, 1): 0.5j},
    "nan-const": {(0, 0): math.nan, (1, 0): 1.0},
    # adding a zero here would turn -0.0 parts into 0.0: a zero scalar adds nothing
    "signed-zero-parts": {(0, 0): complex(-0.0, 1.0), (1, 0): 2.0},
    "empty": {},
}
SCALARS = [2.5, -2.5, 0.0, -0.0, 1e-300, math.nan, -math.inf, 1.0 + 2.0j, -0.5j, 0j, 3, 0, -2]


class TestScalarOperands:
    """A scalar operand acts on key (0, 0) bit for bit as the constant
    table c = {(0, 0): s} does: p + s and s + p as p + c, and s - p as
    (-p) + c."""

    @pytest.mark.parametrize("s", SCALARS, ids=repr)
    @pytest.mark.parametrize("name", list(SCALAR_TABLES))
    def test_matches_the_constant_table(self, name, s):
        p = table(SCALAR_TABLES[name])
        c = table({(0, 0): s})
        assert _bits(p + s) == _bits(p + c)
        assert _bits(s + p) == _bits(p + c)
        assert _bits(s - p) == _bits(negated(p) + c)

    def test_cancelled_constant_is_pruned(self):
        p = table({(0, 0): 2.5, (1, 0): 1.0})
        assert list((p + -2.5).pairs()) == [(1, 0)]
        assert list((-2.5 + p).pairs()) == [(1, 0)]
        assert list((2.5 - p).pairs()) == [(1, 0)]
        assert (2.5 - p).pairs()[(1, 0)] == -1.0

    @pytest.mark.parametrize("s", [0.0, -0.0, 0, 0j])
    def test_zero_scalar_adds_no_term(self, s):
        p = table({(1, 1): 2.0})
        for out in (p + s, s + p):
            assert _bits(out) == _bits(p)
        assert _bits(s - p) == _bits(negated(p))

    def test_one_table_per_operation(self, monkeypatch):
        p = table({(0, 0): 1.0, (1, 0): 2.0})
        built = count_tables(monkeypatch)
        for op in (lambda: p + 1.5, lambda: 1.5 + p, lambda: 1.5 - p,
                   lambda: 1.5 * p, lambda: p * 1.5):
            built.clear()
            op()
            assert [how for how, _ in built] == ["_table"]

    def test_right_product_is_the_product(self):
        p = table({(0, 0): 1.0 + 1.0j, (2, 1): -3.0})
        assert _bits(0.3 * p) == _bits(p * 0.3)
        assert BivariatePoly.__rmul__ is BivariatePoly.__mul__


class TestMonomialProducts:
    @given(st.dictionaries(keys, st.one_of(coeffs, complex_coeffs), max_size=8),
           keys, st.one_of(coeffs, complex_coeffs))
    @settings(max_examples=100, deadline=None)
    def test_shift_matches_accumulated_product(self, terms, key, c):
        # the same keys in the same order and equal values, on either side;
        # float values bit for bit (the accumulated product adds each term
        # to an int 0, which can flip the sign of a complex zero part)
        p, mono = table(terms), table({key: c})
        for lhs, rhs in ((p, mono), (mono, p)):
            got = list((lhs * rhs).terms.items())
            want = list(reference_product(lhs, rhs).terms.items())
            assert got == want
            assert [v.hex() for _, v in got if isinstance(v, float)] == [
                v.hex() for _, v in want if isinstance(v, float)
            ]

    def test_shift_keeps_nan_and_prunes_underflow(self):
        p = table({(0, 0): math.nan, (1, 0): 1e-200})
        prod = p * BivariatePoly.monomial(1, 2, 1e-200)
        assert list(prod.pairs()) == [(1, 2)]
        assert math.isnan(prod.pairs()[(1, 2)])


def _operator_results(p, q):
    mono = BivariatePoly.monomial(1, 2, -1.5)
    return [
        p + q, q + p, 2.0 + p, 2.0 - p,
        p * 3.0, 3.0 * p, p * q, p * mono, mono * p,
        p.swap_vars(), p.dilate(1, 0.5), p.dilate(2, 2.0),
        p.diff_partial(1), p.diff_partial(2),
    ]


class TestOwnership:
    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_results_share_no_dict_with_operands(self, p, q):
        before = (dict(p.terms), dict(q.terms))
        operands = {id(p.terms), id(q.terms)}
        results = _operator_results(p, q)
        assert not operands & {id(r.terms) for r in results}
        assert len({id(r.terms) for r in results}) == len(results)
        # and no operator changed an operand
        assert (p.terms, q.terms) == before

    def test_results_of_a_one_term_table_share_no_dict(self):
        p = BivariatePoly.monomial(2, 1, 3.0)
        for r in _operator_results(p, p):
            assert r.terms is not p.terms


class TestStructuralOps:
    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_swap_is_involution(self, p):
        assert p.swap_vars().swap_vars() == p

    @given(polys, st.floats(0.1, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_dilate_matches_substitution(self, p, factor):
        z1, z2 = 0.7, -0.4
        assert_allclose(
            p.dilate(1, factor).evaluate(z1, z2),
            p.evaluate(factor * z1, z2),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_shift_exponent(self):
        p = table({(1, 0): 2.0})
        assert shift_exponent(p, 1, 2).pairs() == {(2, 2): 2.0}
        with pytest.raises(ValueError):
            shift_exponent(p, 0, -1)


class TestDerivatives:
    def test_partial_on_monomial(self):
        p = BivariatePoly.monomial(3, 2, 2.0)
        assert p.diff_partial(1).pairs() == {(2, 2): 6.0}
        assert p.diff_partial(2).pairs() == {(3, 1): 4.0}
        assert is_zero(table({(0, 0): 5.0}).diff_partial(1))

    @given(polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, p, q):
        lhs = (p * q).diff_partial(1)
        rhs = p.diff_partial(1) * q + p * q.diff_partial(1)
        scale = max(1.0, max_abs_coeff(p) * max_abs_coeff(q))
        assert residual(lhs, rhs) <= 1e-9 * 20.0 * scale

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_euler_operator_factorization(self, data):
        # z d/dz equals the exponent-multiplication operator (the Euler
        # operators act on the catalog's diagonal batches)
        t, _ = data.draw(diag_batches(coeffs))
        for var in (1, 2):
            mono = BivariatePoly.monomial(1, 0) if var == 1 else BivariatePoly.monomial(0, 1)
            theta = t.diff_theta(var)
            for row in range(len(t.m)):
                assert row_table(theta, row) == mono * row_table(t, row).diff_partial(var)

    @given(st.data(), st.floats(0.2, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_qtheta_is_z_times_qpartial(self, data, q):
        t, _ = data.draw(diag_batches(coeffs))
        for var in (1, 2):
            mono = BivariatePoly.monomial(1, 0) if var == 1 else BivariatePoly.monomial(0, 1)
            qtheta = t.diff_qtheta(var, q)
            for row in range(len(t.m)):
                p = row_table(t, row)
                rhs = mono * diff_qpartial(p, var, q)
                assert residual(row_table(qtheta, row), rhs) <= 1e-10 * max(1.0, max_abs_coeff(p))

    @given(polys, st.floats(0.2, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_qpartial_difference_quotient(self, p, q):
        # D_q f at a point equals (f(z) - f(qz)) / ((1-q) z)
        z1, z2 = 0.8, -0.6
        lhs = diff_qpartial(p, 1, q).evaluate(z1, z2)
        rhs = (p.evaluate(z1, z2) - p.evaluate(q * z1, z2)) / ((1.0 - q) * z1)
        assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-8)

    def test_qinv_partial_uses_inverse_base(self):
        # the backward q-derivative (f(z) - f(z/q)) / ((1 - 1/q) z) is the
        # forward one at base 1/q
        q, z1, z2 = 0.5, 0.7, -0.4
        p = table({(2, 0): 1.0, (1, 1): -3.0})
        lhs = diff_qpartial(p, 1, 1.0 / q).evaluate(z1, z2)
        rhs = (p.evaluate(z1, z2) - p.evaluate(z1 / q, z2)) / ((1.0 - 1.0 / q) * z1)
        assert_allclose(lhs, rhs, rtol=1e-13)

    @given(polys, st.floats(0.2, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_qpartial_classical_limit(self, p, q):
        # D_q -> d/dz as q -> 1: check at q close to 1
        qq = 0.999999
        lhs = diff_qpartial(p, 2, qq)
        rhs = p.diff_partial(2)
        assert residual(lhs, rhs) <= 1e-4 * max(1.0, max_abs_coeff(p))


class TestResidualsAndTolerance:
    def test_identity_residual(self):
        p = table({(1, 0): 1.0})
        r = table({(1, 0): 1.0 + 1e-12, (0, 1): 5.0})
        res, scale = identity_residual(p, r)
        assert_allclose(res, 5.0)
        assert_allclose(scale, 5.0)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_coefficient_propagates(self, where):
        # the builtin max keeps a NaN only when it comes first
        vals = [1e-12, 2e-12, 3e-12]
        vals[where] = math.nan
        p = table({(k, 0): v for k, v in enumerate(vals)})
        assert math.isnan(max_abs_coeff(p))
        res, _ = identity_residual(p, BivariatePoly.zero())
        assert math.isnan(res)
        assert math.isnan(residual(BivariatePoly.zero(), p))
        assert not _passes(Tolerance(), res, 1.0)

    def test_nan_after_a_passing_coefficient_fails_the_gate(self):
        p = table({(0, 0): 1e-12, (1, 0): math.nan})
        res, scale = identity_residual(p, BivariatePoly.zero())
        assert math.isnan(res)
        assert not _passes(Tolerance(), res, scale)

    def test_complex_nan_propagates(self):
        p = table({(0, 0): 0.5j, (1, 0): complex(math.nan, 0.0)})
        assert math.isnan(max_abs_coeff(p))

    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_nan_on_either_side_gives_nan_residual(self, side):
        clean = table({(0, 0): 1.0, (1, 0): 2.0})
        dirty = table({(0, 0): 1.0, (2, 0): math.nan})
        lhs, rhs = (dirty, clean) if side == "lhs" else (clean, dirty)
        res, _ = identity_residual(lhs, rhs)
        assert math.isnan(res)

    @pytest.mark.parametrize(
        "lhs,rhs",
        [
            ({(0, 0): math.inf, (1, 0): -math.inf}, {}),
            ({(0, 0): math.inf}, {(1, 0): math.inf}),
            ({(0, 0): math.inf}, {(0, 0): math.inf}),
        ],
        ids=["both-signs-in-lhs", "one-each-side", "inf-minus-inf"],
    )
    def test_infinities_of_both_signs_give_nan_residual(self, lhs, rhs):
        res, _ = identity_residual(table(lhs), table(rhs))
        assert math.isnan(res)
        assert not _passes(Tolerance(), res, 1.0)

    def test_residual_builds_no_table(self, monkeypatch):
        p = table({(0, 0): 1.0, (1, 0): 2.0})
        r = table({(0, 0): 1.5})
        built = count_tables(monkeypatch)
        assert residual(p, r) == 2.0
        assert identity_residual(p, r) == (2.0, 2.0)
        assert built == []

    @pytest.mark.parametrize(
        "lhs,rhs",
        [
            ({(0, 0): math.nan, (1, 0): 5.0}, {(0, 0): 7.0}),
            ({(0, 0): 1.0, (1, 0): math.nan, (2, 0): 5.0}, {(0, 0): 3.0}),
            ({(0, 0): 1.0}, {(0, 0): math.nan, (1, 0): 9.0}),
            ({}, {(0, 0): math.nan, (1, 0): 9.0}),
            ({(0, 0): math.nan}, {}),
            ({}, {}),
            ({(0, 0): -4.0, (1, 0): 3.0 + 4.0j}, {(2, 2): -math.inf}),
        ],
    )
    def test_scale_is_the_larger_side_maximum(self, lhs, rhs):
        # each side's builtin max keeps a NaN only when it comes first, and
        # the larger of the two keeps lhs's NaN but not rhs's
        def top_abs(terms):
            return max(map(abs, terms.values())) if terms else 0.0

        _, scale = identity_residual(table(lhs), table(rhs))
        ref = max(top_abs(lhs), top_abs(rhs))
        assert float(scale).hex() == float(ref).hex()

    def test_infinite_coefficient_reads_inf(self):
        p = table({(0, 0): 1.0, (1, 0): -math.inf})
        assert max_abs_coeff(p) == math.inf

    def test_tolerance_gates(self):
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
        assert _passes(tol, 5e-11, 0.0)
        assert _passes(tol, 5e-7, 1e3)
        assert not _passes(tol, 5e-7, 1.0)


class TestPackedKeys:
    def test_key_layout(self):
        assert pack(0, 0) == 0
        assert pack(1, 0) == 1 << 20
        assert pack(2, 3) == (2 << 20) + 3
        assert pack(MAX_EXPONENT, MAX_EXPONENT) == MAX_EXPONENT << 20 | MAX_EXPONENT

    @pytest.mark.parametrize("j,k", [(-1, 0), (0, -1), (MAX_EXPONENT + 1, 0),
                                     (0, MAX_EXPONENT + 1), (-1, MAX_EXPONENT + 1)])
    def test_out_of_range_exponents_raise_before_any_table(self, j, k, monkeypatch):
        built = count_tables(monkeypatch)
        with pytest.raises(ValueError, match="outside"):
            pack(j, k)
        with pytest.raises(ValueError, match="outside"):
            BivariatePoly.monomial(j, k)
        with pytest.raises(ValueError, match="outside"):
            table({(0, 0): 1.0, (j, k): 2.0})
        assert built == []

    @given(st.dictionaries(st.tuples(st.integers(0, MAX_EXPONENT), st.integers(0, MAX_EXPONENT)),
                           coeffs, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_read_view_packs_back_to_the_same_table(self, pairs):
        p = table(pairs)
        back = BivariatePoly({pack(j, k): v for (j, k), v in p.pairs().items()})
        assert list(back.terms.items()) == list(p.terms.items())
        # sorted keys read in (j, k) order
        assert [p.pairs()[pair] for pair in sorted(p.pairs())] == [
            p.terms[key] for key in sorted(p.terms)]


class TestOperatorZeros:
    """The operators drop the zeros they make while they build the result
    dict, so the constructor never copies it; a NaN or infinite coefficient
    at exponent 0, or times a zero scalar, still yields a kept NaN."""

    def test_zeros_are_dropped_without_a_copy(self, monkeypatch):
        copies = []
        nonzero = polycore._nonzero
        monkeypatch.setattr(polycore, "_nonzero", lambda terms: copies.append(terms) or nonzero(terms))
        p = table({(0, 0): 2.0, (1, 2): 3.0, (0, 3): 1.5})
        assert p.diff_partial(1).pairs() == {(0, 2): 3.0}
        q = table({(1, 2): 3.0, (2, 2): 1.0})
        assert (p + q * -1.0).pairs() == {(0, 0): 2.0, (0, 3): 1.5, (2, 2): -1.0}
        assert (-2.0 + p).pairs() == {(1, 2): 3.0, (0, 3): 1.5}
        assert (2.0 - p).pairs() == {(1, 2): -3.0, (0, 3): -1.5}
        for zero in (0.0, -0.0, 0, 0j):
            assert (zero * p).terms == {} and (p * zero).terms == {}
        assert copies == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0)],
                             ids=["nan", "inf", "-inf", "complex-nan"])
    def test_nan_or_inf_at_exponent_zero_stays_as_nan(self, bad):
        p = table({(0, 0): bad, (0, 1): 2.0, (1, 0): bad})
        # the Euler operators act on the float batches: the one-term tables
        # at (0, 0), (0, 1) and (1, 0), one row each
        real_bad = bad.real if isinstance(bad, complex) else bad
        t = DiagTables([[real_bad], [2.0], [real_bad]], np.array([0, 0, 1]), np.array([0, 1, 0]))
        with np.errstate(invalid="ignore"):  # 0 * inf is the NaN this test wants
            theta = [t.diff_theta(var) for var in (1, 2)]
            qtheta = [t.diff_qtheta(var, 0.5) for var in (1, 2)]
        for out in (theta[0], qtheta[0]):
            assert np.isnan(out.c[0, 0]) and out.c[1, 0] == 0.0 and out.c[2, 0] != 0.0
        for out in (theta[1], qtheta[1]):
            assert np.isnan(out.c[0, 0]) and out.c[1, 0] != 0.0 and np.isnan(out.c[2, 0])
        for out in (0.0 * p, p * 0):
            got = out.pairs()
            assert list(got) == [(0, 0), (1, 0)]
            assert cmath.isnan(got[(0, 0)]) and cmath.isnan(got[(1, 0)])


# --- a tuple-keyed reference of every operator, bit for bit ----------------
# Each works on a dict keyed by (j, k), makes the whole result dict with the
# same float operations in the same order, and prunes exact zeros at the end.


def _ref_prune(d):
    return {k: v for k, v in d.items() if v != 0}


def _ref_add(a, b, sign):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v if sign > 0 else out.get(k, 0) - v
    return _ref_prune(out)


def _ref_scalar(a, s, sign):
    """a + s (sign 1), a - s (sign -1) and s - a (sign 0)."""
    out = {k: -v for k, v in a.items()} if sign == 0 else dict(a)
    if s != 0:
        out[(0, 0)] = out.get((0, 0), 0) - s if sign < 0 else out.get((0, 0), 0) + s
    return _ref_prune(out)


def _ref_mul(a, b):
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        ((dj, dk), c), = b.items()
        return _ref_prune({(j + dj, k + dk): v * c for (j, k), v in a.items()})
    out = {}
    for (j1, k1), v1 in a.items():
        for (j2, k2), v2 in b.items():
            key = (j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    return _ref_prune(out)


def _ref_unary(a, var, q, factor):
    """Results of the one-table operators on a, in _UNARY order."""
    i = 0 if var == 1 else 1
    if var == 1:
        partial = {(j - 1, k): j * v for (j, k), v in a.items() if j > 0}
    else:
        partial = {(j, k - 1): k * v for (j, k), v in a.items() if k > 0}
    return [
        {k: -v for k, v in a.items()},
        {(k, j): v for (j, k), v in a.items()},
        {key: v * factor ** key[i] for key, v in a.items()},
        partial,
        {key: key[i] * v for key, v in a.items()},
        {key: v * (1.0 - q ** key[i]) / (1.0 - q) for key, v in a.items()},
    ]


def _unary(p, var, q, factor):
    """The one-table operators of BivariatePoly, in _ref_unary order."""
    return [p.swap_vars(), p.dilate(var, factor), p.diff_partial(var)]


def _ref_modulus(v):
    return math.hypot(v.real, v.imag)


def _ref_residual(a, b):
    scale = max(max(map(_ref_modulus, a.values()), default=0.0),
                max(map(_ref_modulus, b.values()), default=0.0))
    diff = dict(a)
    for k, v in b.items():
        diff[k] = diff.get(k, 0) - v
    values = diff.values()
    try:
        total = math.fsum(values)
    except (TypeError, ValueError, OverflowError):
        total = sum(values)
    return (max(map(_ref_modulus, values), default=0.0) if total == total else math.nan), scale


def _ref_evaluate(a, z1, z2):
    total = 0.0
    for (j, k) in sorted(a):
        total = total + a[(j, k)] * z1 ** j * z2 ** k
    return total


def _value_bits(v):
    if isinstance(v, complex):
        return "complex", v.real.hex(), v.imag.hex()
    return type(v).__name__, v.hex() if isinstance(v, float) else repr(v)


def _pair_bits(pairs):
    return [(k, _value_bits(v)) for k, v in pairs.items()]


# small exponents, so keys collide, and values that cancel, overflow or are NaN
_any_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 2.5, -2.5, 0.5j, -0.5j, 1.0 + 1.0j, math.nan, math.inf,
                     -math.inf, complex(math.nan, 0.0)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)
_any_tables = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _any_coeffs,
                              max_size=6)
_scalars = st.one_of(st.sampled_from([0, 0.0, -0.0, 0j, 3, 2.5, -2.5, math.nan]),
                     st.floats(allow_nan=True, allow_infinity=True),
                     st.complex_numbers(allow_nan=True, allow_infinity=True))
_ratios = st.floats(0.1, 2.0).filter(lambda x: x != 1.0)


class TestMatchesTupleKeyedReference:
    @given(_any_tables, _any_tables, _scalars, st.sampled_from([1, 2]), _ratios, _ratios,
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=300, deadline=None)
    # finite parts whose modulus overflows: the scale and residual read inf
    @example(da={(0, 0): complex(-1.7976931348623157e+308, 1.7976931348623157e+308)}, db={},
             s=0, var=1, q=0.5, factor=0.5, z1=0.0, z2=0.0)
    def test_every_operator(self, da, db, s, var, q, factor, z1, z2):
        a, b = _ref_prune(da), _ref_prune(db)
        p, r = table(da), table(db)
        assert _pair_bits(p.pairs()) == _pair_bits(a)
        pairs = [
            (p + r, _ref_add(a, b, 1)),
            (p * r, _ref_mul(a, b)),
            (r * p, _ref_mul(b, a)),
            (p + s, _ref_scalar(a, s, 1)),
            (s + p, _ref_scalar(a, s, 1)),
            (s - p, _ref_scalar(a, s, 0)),
            (p * s, _ref_prune({k: v * s for k, v in a.items()})),
            (s * p, _ref_prune({k: v * s for k, v in a.items()})),
        ]
        ref_unary = _ref_unary(a, var, q, factor)
        pairs += zip(_unary(p, var, q, factor), map(_ref_prune, ref_unary[1:4]))
        for got, want in pairs:
            assert _pair_bits(got.pairs()) == _pair_bits(want)
        res, scale = identity_residual(p, r)
        ref_res, ref_scale = _ref_residual(a, b)
        assert (_value_bits(res), _value_bits(scale)) == (_value_bits(ref_res),
                                                          _value_bits(ref_scale))
        assert _value_bits(p.evaluate(z1, z2)) == _value_bits(_ref_evaluate(a, z1, z2))


# --- the diagonal batches, row by row against the dict tables --------------


@st.composite
def diag_batches(draw, entries):
    """Two DiagTables on the same index pairs (m, n <= 4) and diagonal: the
    first with top (m, n), the second with top (m + s, n + s), s in -1..1;
    every entry at a negative exponent 0.0."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=4))
    m = np.array([p[0] for p in pairs])
    n = np.array([p[1] for p in pairs])
    s = draw(st.integers(-1, 1))

    def rows(shift):
        last = np.minimum(m, n) + shift
        width = max(int(last.max()) + 1, 0)
        return [[draw(entries) if d <= k else 0.0 for d in range(width)] for k in last.tolist()]

    return DiagTables(rows(0), m, n), DiagTables(rows(s), m, n, s, s)


# exact zeros of both signs, NaN and tame finite values: the difference of
# two rows never overflows, so the dict residual's sums see no infinity
_diag_entries = st.one_of(st.sampled_from([0.0, -0.0, math.nan, 1.0, -2.5]),
                          st.floats(-1e6, 1e6))
_factor_coeffs = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))


def _sorted_bits(p):
    return sorted((k, float(v).hex()) for k, v in p.pairs().items())


def _without_nan(p):
    return table({k: v for k, v in p.pairs().items() if v == v})


class TestDiagTables:
    """Each batch operator equals, row by row and bit for bit, the dict
    operator (or the tuple-keyed reference) on that row's table."""

    @given(st.data(), _factor_coeffs, st.sampled_from([1, 2]), _ratios, _ratios)
    @settings(max_examples=200, deadline=None)
    def test_every_operator_matches_the_dict_tables(self, data, s, var, q, factor):
        t, u = data.draw(diag_batches(_diag_entries))
        rows = len(t.m)
        per_pair = np.array(data.draw(st.lists(_factor_coeffs, min_size=rows, max_size=rows)))
        alpha = data.draw(st.one_of(st.none(), _factor_coeffs))
        beta = data.draw(_factor_coeffs) if alpha is None else data.draw(
            st.one_of(st.none(), _factor_coeffs, st.just(per_pair)))
        shift = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1)]))
        factor_table = DiagFactor(alpha, beta, shift)
        results = [t + u, t - u, -t, t * s, s * t, t * per_pair, factor_table * t,
                   t.dilate(var, factor), t.diff_partial(var), t.diff_theta(var),
                   t.diff_qtheta(var, q)]
        res, scale = t.residual(u)
        for row in range(rows):
            p, r = row_table(t, row), row_table(u, row)
            a, b = p.pairs(), r.pairs()
            f_terms = {}
            if alpha is not None:
                f_terms[shift] = alpha
            if beta is not None:
                f_terms[(shift[0] + 1, shift[1] + 1)] = (beta[row] if isinstance(beta, np.ndarray)
                                                         else beta)
            ref_unary = _ref_unary(a, var, q, factor)
            want = [p + r, table(_ref_add(a, b, -1)), table(ref_unary[0]), p * s, p * s,
                    p * float(per_pair[row]), table(f_terms) * p, p.dilate(var, factor),
                    p.diff_partial(var), table(ref_unary[4]), table(ref_unary[5])]
            for got, ref in zip(results, want):
                assert _sorted_bits(row_table(got, row)) == _sorted_bits(ref)
            ref_res = identity_residual(p, r)[0]
            ref_scale = identity_residual(_without_nan(p), _without_nan(r))[1]
            assert (float(res[row]).hex(), float(scale[row]).hex()) == (
                float(ref_res).hex(), float(ref_scale).hex())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_residual_across_two_diagonals(self, data):
        # tables on two diagonals share no key: the residual reads both sides
        t, _ = data.draw(diag_batches(_diag_entries))
        u = DiagTables(np.ones((len(t.m), 1)), t.m, t.n, 0, 1)
        res, _ = t.residual(u)
        for row in range(len(t.m)):
            ref = identity_residual(row_table(t, row), row_table(u, row))[0]
            assert float(res[row]).hex() == float(ref).hex()

    def test_a_row_equals_its_batch_of_one(self):
        m, n = np.array([3, 1, 2]), np.array([1, 1, 0])
        t = DiagTables([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]], m, n)
        whole = (DiagFactor(2.0, -1.0) * t.diff_qtheta(2, 0.5)).dilate(1, 0.3)
        for row in range(3):
            alone = DiagTables(t.c[row:row + 1], m[row:row + 1], n[row:row + 1])
            one = (DiagFactor(2.0, -1.0) * alone.diff_qtheta(2, 0.5)).dilate(1, 0.3)
            assert one.c[0].tolist() == whole.c[row, :one.c.shape[1]].tolist()

    def test_sums_need_one_diagonal(self):
        m, n = np.array([2]), np.array([1])
        with pytest.raises(ValueError, match="diagonals"):
            DiagTables([[1.0]], m, n) + DiagTables([[1.0]], m, n, 1, 0)

    def test_both_signed_infinities_give_nan_and_one_sign_inf(self):
        m, n = np.array([1, 1]), np.array([1, 1])
        t = DiagTables([[math.inf, -math.inf], [math.inf, 1.0]], m, n)
        res, _ = t.residual(None)
        assert math.isnan(res[0]) and res[1] == math.inf


class TestGate:
    """A NaN or infinite residual never passes, scalar or batched."""

    @pytest.mark.parametrize("scale", [0.0, 1.0, math.inf, math.nan])
    @pytest.mark.parametrize("res", [math.inf, math.nan])
    def test_non_finite_residual_fails(self, res, scale):
        assert not _passes(Tolerance(), res, scale)

    def test_one_sided_inf_fails(self):
        # inf against a finite side: the residual and scale both read inf
        res, scale = identity_residual(table({(0, 0): math.inf}), table({(0, 0): 1.0}))
        assert (res, scale) == (math.inf, math.inf)
        assert not _passes(Tolerance(), res, scale)

    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.one_of(st.floats(min_value=0.0, allow_infinity=True), st.just(math.nan)))
    @settings(max_examples=200, deadline=None)
    def test_batched_gate_is_the_scalar_gate(self, res, scale):
        # the gate's rule on one float: finite, and below the floor or the
        # relative bound times the scale (at least 1)
        tol = Tolerance()
        expected = math.isfinite(res) and (res <= tol.abs_tol
                                           or res <= tol.rel_tol * max(scale, 1.0))
        assert _passes(tol, res, scale) == expected

"""Tests for the bivariate families: construction, the identity catalog,
connections, generating functions, the series solver, and the q -> 1 limit."""

import ast
import copy
import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivarortho import bivariate as bv
from bivarortho import radial
from bivarortho.polycore import BivariatePoly, DiagTables, Tolerance, identity_residual
from bivarortho.qcalc import pochhammer

FAMILIES = [
    bv.Z(0.5),
    bv.H(),
    bv.M(0.5, 0.7),
    bv.ZQ(0.5, 0.5),
    bv.WALL(0.5, 0.5),
    bv.MQ(0.5, 0.7, 0.5),
]
FAM_IDS = [f.tag for f in FAMILIES]


class TestConstruct:
    def test_frozen_small_tables(self):
        # degree (1,1) member at beta = 0 is 1 - z1 z2
        f = bv.construct(bv.Z(0.0), 1, 1)
        assert f.terms == {(0, 0): 1.0, (1, 1): -1.0}
        # the rescaled family flips the sign and clears the 1/n!
        h = bv.construct(bv.H(), 1, 1)
        assert h.terms == {(0, 0): -1.0, (1, 1): 1.0}
        # pure circle harmonic at n = 0
        f = bv.construct(bv.Z(0.7), 3, 0)
        assert f.terms == {(3, 0): 1.0}

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_index_symmetry(self, fam):
        for m in range(4):
            for n in range(4):
                assert bv.construct(fam, m, n) == bv.construct(fam, n, m).swap_vars()

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_degrees_and_sparsity(self, fam):
        f = bv.construct(fam, 4, 2).terms
        assert max(j for j, _ in f) == 4 and max(k for _, k in f) == 2
        # terms live on the diagonal ray (4-j, 2-j)
        assert set(f) <= {(4, 2), (3, 1), (2, 0)}

    def test_radial_factorization(self):
        # f_{m,n}(z1, z2) = z1^(m-n) phi_n(z1 z2) at sample points
        fam, m, n = bv.M(0.5, 0.7), 5, 2
        rad = bv.radial_of(fam)
        for (z1, z2) in ((0.4, 0.9), (-0.3, 0.5)):
            phi = np.polynomial.polynomial.polyval(
                z1 * z2, radial.radial_coeffs(rad, n, m - n)[::-1]
            )
            ref = z1 ** (m - n) * phi
            assert_allclose(bv.construct(fam, m, n).evaluate(z1, z2), ref, rtol=1e-12)

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            bv.construct(bv.Z(0.0), -1, 0)

    def test_generic_construction_matches_plane_family(self):
        assert bv.radial_of(bv.Z(0.7)) == radial.laguerre(0.7)
        assert bv.radial_of(bv.H()) == radial.laguerre(0.0)

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError):
            bv.radial_of(bv.FamilyId("XX"))


# (equal ids made two ways, a different id)
ID_CASES = [
    (bv.Z(0.5), bv.FamilyId("Z", beta=0.5), bv.Z(0.25)),
    (bv.Z(0.0), bv.Z(-0.0), bv.Z(1e-300)),
    (bv.M(0.5, 0.7).with_params(gamma=1), bv.M(0.5, 1.0), bv.M(0.5, 0.7)),
    (bv.MQ(0.5, 0.7, 0.3).with_params(), bv.MQ(0.5, 0.7, 0.3), bv.MQ(0.5, 0.7, 0.5)),
    (radial.laguerre(0.0), radial.laguerre(-0.0), radial.laguerre(0.5)),
    (radial.wall(0.5, 0.3), radial.RadialFamily("wall", beta=0.5, q=0.3), radial.wall(0.5, 0.4)),
]


class TestFamilyIds:
    """FamilyId and RadialFamily keep their hash from construction: equal
    ids hash equal, and repr, equality, pickling and copying read as they
    did for the plain frozen dataclasses."""

    @pytest.mark.parametrize("a,b,other", ID_CASES)
    def test_equal_ids_hash_equal(self, a, b, other):
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert hash(a) == hash(dataclasses.astuple(a))

    def test_repr_and_fields_unchanged(self):
        assert repr(bv.M(0.5, 0.7)) == "FamilyId(tag='M', beta=0.5, gamma=0.7, q=0.5, c=1.0)"
        assert repr(radial.wall(0.5, 0.3)) == (
            "RadialFamily(kind='wall', beta=0.5, gamma=0.0, q=0.3, c=1.0)")
        for cls in (bv.FamilyId, radial.RadialFamily):
            assert [f.name for f in dataclasses.fields(cls)][1:] == ["beta", "gamma", "q", "c"]

    @pytest.mark.parametrize("fam", [bv.M(0.5, 0.7), radial.wall(0.5, 0.3)], ids=["M", "wall"])
    def test_copies_are_equal_and_hash_equal(self, fam):
        for twin in (copy.copy(fam), copy.deepcopy(fam), pickle.loads(pickle.dumps(fam)),
                     dataclasses.replace(fam)):
            assert twin == fam and hash(twin) == hash(fam) and repr(twin) == repr(fam)

    def test_id_pickled_under_another_hash_seed_hits_the_cache(self):
        # a str hash differs between processes; an id unpickled here must
        # hash as one made here, or the caches keyed on it would miss
        fam = bv.M(0.5, 0.7)
        script = ("import pickle, sys; from bivarortho import bivariate as bv; "
                  "sys.stdout.write(repr((hash('M'), pickle.dumps(bv.M(0.5, 0.7)).hex())))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bv.__file__)))
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True).stdout
            their_hash, data = ast.literal_eval(out)
            if their_hash != hash("M"):
                break
        assert their_hash != hash("M")
        rad = bv.radial_of(fam)
        before = bv.radial_of.cache_info()
        loaded = pickle.loads(bytes.fromhex(data))
        assert loaded == fam and hash(loaded) == hash(fam)
        assert bv.radial_of(loaded) is rad
        after = bv.radial_of.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _uncached_table(fam, m, n):
    """f_{m,n} rebuilt from its radial table, as construct defines it."""
    if m < n:
        return _uncached_table(fam, n, m).swap_vars()
    coeffs = radial.radial_coeffs(bv.radial_of(fam), n, m - n)
    scale = (-1.0) ** n * math.factorial(n) if fam.tag == "H" else 1.0
    return BivariatePoly({(m - j, n - j): scale * coeffs[j] for j in range(n + 1)})


class TestTableCache:
    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_cached_table_equals_uncached(self, fam):
        for m in range(6):
            for n in range(6):
                assert bv.construct(fam, m, n) == _uncached_table(fam, m, n)

    @pytest.mark.parametrize("fam", [bv.M(0.5, 0.7), bv.MQ(0.5, 0.7, 0.3)], ids=["M", "MQ"])
    def test_sweep_identical_warm_and_cold(self, fam):
        def verdicts():
            return [
                (r.identity, r.m, r.n, r.residual, r.scale, r.passed, r.printed_residual)
                for r in bv.sweep(fam, None, 4)
            ]

        bv.sweep(fam, None, 4)
        warm = verdicts()
        bv._cube.cache_clear()
        cold = verdicts()
        assert warm == cold
        assert any(r[-1] is not None for r in cold)

    def test_shared_table_unchanged_by_a_sweep(self):
        # no sweep writes into the cached cubes, and construct's tables
        # read the same after every identity has used them
        for fam in FAMILIES:
            bv.sweep(fam, None, 6)
            for m in range(9):
                for n in range(9):
                    assert bv.construct(fam, m, n) == _uncached_table(fam, m, n), (fam, m, n)


def _batch(fam, domain, max_mn):
    """The batch of a family over the pairs m, n <= max_mn of an index
    domain, as sweep makes it."""
    pairs = [(m, n) for m in range(max_mn + 1) for n in range(max_mn + 1)
             if bv._in_domain(domain, m, n)]
    m, n = (np.array(v) for v in zip(*pairs))
    return bv._Batch(fam, m, n, (0, max_mn + 1, 0, max_mn + 1))


def _catalog_tables(fam, max_mn):
    """Both sides of every variant of every catalog identity of a family,
    each a batch over the pairs m, n <= max_mn of its declared index domain
    (None: the zero table)."""
    for name in bv.identity_ids_for(fam):
        _, builder, domain = bv.IDENTITIES[name]
        with np.errstate(all="ignore"):  # as the catalog runs its builders
            P = _batch(fam, domain, max_mn)
            variants = builder(fam, P, P.m, P.n)
        for _, lhs, rhs, *_ in variants:
            yield name, lhs
            if rhs is not None:
                yield name, rhs


class TestCoefficientType:
    """construct's tables hold Python floats, so the dict algebra runs on
    the interpreter's float paths; the catalog's batches are float64
    arrays."""

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_construct_coefficients_are_floats(self, fam):
        for m in range(9):
            for n in range(9):
                kinds = {type(v) for v in bv.construct(fam, m, n).terms.values()}
                assert kinds == {float}, (m, n, kinds)

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_identity_sides_hold_floats(self, fam):
        count = 0
        for name, table in _catalog_tables(fam, 6):
            count += np.count_nonzero(table.c)
            assert table.c.dtype == np.float64, name
        assert count > 0

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_radial_scalars_are_floats(self, fam):
        # the radial scalars a builder reads are float64 arrays, bit for bit
        # radial_coeffs' entries (times H's harmonic scale)
        rad = bv.radial_of(fam)
        P = _batch(fam, None, 6)
        scale = bv.harmonic_scale(fam, 4)
        for n in range(5):
            for alpha in range(3):
                k, a = np.array([n]), np.array([alpha])
                got = [P.coeff(k, a), P.coeff(k, a, k)]
                assert {v.dtype for v in got} == {np.dtype(np.float64)}
                row = radial.radial_coeffs(rad, n, alpha)
                want = [row[0], row[n]] if scale is None else [scale[n] * row[0], scale[n] * row[n]]
                assert [v[0].hex() for v in got] == [float(v).hex() for v in want], (n, alpha)


def criterion3_families():
    params = (-0.5, 0.0, 0.7, 2.0)
    qs = (0.3, 0.5, 0.8)
    fams = [bv.Z(b) for b in params] + [bv.H()]
    fams += [bv.M(b, g) for b in params for g in params]
    fams += [bv.ZQ(b, q) for b in params for q in qs]
    fams += [bv.WALL(b, q) for b in params for q in qs]
    fams += [bv.MQ(b, g, q) for b in params for g in params for q in qs]
    return fams


def _hex(x):
    return None if x is None else float(x).hex()


def deep_grid_families():
    """The nine families of the benchmark's deep identity probes."""
    fams = [bv.Z(0.7), bv.H(), bv.M(0.7, 0.7)]
    for q in (0.3, 0.5):
        fams += [bv.ZQ(0.7, q), bv.WALL(0.7, q), bv.MQ(0.7, 0.7, q)]
    return fams


def _sweep_digest(fams, max_mn):
    """Report count and sha256 prefix over every IdentityReport of the
    families' sweeps to max_mn, floats as their hex strings."""
    tol = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
    h = hashlib.sha256()
    count = 0
    for fam in fams:
        for rep in bv.sweep(fam, None, max_mn, tol=tol):
            count += 1
            h.update(repr((
                rep.identity, repr(fam), rep.m, rep.n, _hex(rep.residual),
                _hex(rep.scale), rep.passed, _hex(rep.printed_residual),
                rep.printed_passed,
            )).encode())
    return count, h.hexdigest()[:16]


class TestIdentityReportsPinned:
    # sha256 prefix over every IdentityReport of the criterion-3 grid,
    # recorded with the numpy-scalar tables that the Python-float tables,
    # the shifted monomial products and the one-pass residual replaced
    DIGEST = "aa5fa75a05e3df4e"
    # the same over the deep grid (m, n <= 14), recorded with the
    # tuple-keyed tables that the packed keys replaced
    DEEP_DIGEST = "bd805caeb9b715fb"

    def test_reports_bit_identical(self):
        assert _sweep_digest(criterion3_families(), 6) == (41545, self.DIGEST)

    def test_deep_grid_reports_bit_identical(self):
        assert _sweep_digest(deep_grid_families(), 14) == (17505, self.DEEP_DIGEST)


def _report_fields(rep):
    """Every field of a report, floats as their hex strings."""
    return tuple(float(v).hex() if isinstance(v, float) else v
                 for v in dataclasses.astuple(rep))


class TestIdentityCatalog:
    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_sweep_derived_all_pass(self, fam):
        reports = bv.sweep(fam, None, 4)
        assert reports
        bad = [r for r in reports if not r.passed]
        assert bad == []

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_printed_failures_are_all_flagged(self, fam):
        for r in bv.sweep(fam, None, 4):
            if r.printed_passed is False:
                assert r.known_discrepancy, r.identity
                assert r.identity in bv.KNOWN_DISCREPANCIES

    def test_expected_discrepancies_do_fail_as_printed(self):
        # the flagged printed variants are genuinely wrong, not borderline
        rep = bv.check_identity(bv.ZQ(0.5, 0.5), "ZQ_RR2", 3, 2)
        assert rep.passed and rep.printed_passed is False
        assert rep.printed_residual > 1e-3
        rep = bv.check_identity(bv.M(0.5, 0.7), "M_PDE2", 3, 2)
        assert rep.passed and rep.printed_passed is False

    def test_applicability_filter(self):
        ids = bv.identity_ids_for(bv.H())
        assert "GEN_EIGEN" in ids and "Z_RR1" not in ids
        with pytest.raises(bv.IdentityRangeError):
            bv.check_identity(bv.H(), "Z_RR1", 2, 1)

    def test_unknown_identity_raises(self):
        with pytest.raises(KeyError):
            bv.check_identity(bv.Z(0.0), "NOPE", 1, 1)

    def test_range_restriction_skipped_in_sweep(self):
        # identities that raise the second index are only stated inside the wedge
        with pytest.raises(bv.IdentityRangeError):
            bv.check_identity(bv.Z(0.5), "Z_SHIFT_UP", 2, 2)
        reports = bv.sweep(bv.Z(0.5), ["Z_SHIFT_UP"], 3)
        assert {(r.m, r.n) for r in reports} == {
            (m, n) for m in range(4) for n in range(4) if m > n
        }

    def test_sweep_rejects_identity_of_another_family(self):
        with pytest.raises(bv.IdentityRangeError, match="family Z: ZQ_RR1"):
            bv.sweep(bv.Z(0.5), ["Z_RR1", "ZQ_RR1"], 3)

    @pytest.mark.parametrize("first", [True, False], ids=["nan-first", "nan-second"])
    def test_nan_residual_is_reported(self, first, monkeypatch):
        # a NaN residual is the worst one, whichever variant carries it
        def variants(fam, P, m, n):
            good = DiagTables(np.ones((len(P.m), 1)), P.m, P.n)
            bad = DiagTables(np.full((len(P.m), 1), math.nan), P.m, P.n)
            out = [("derived", good, good), ("derived", bad, good)]
            return out[::-1] if first else out

        monkeypatch.setitem(bv.IDENTITIES, "Z_ODE", (("Z",), variants, None))
        rep = bv.check_identity(bv.Z(0.5), "Z_ODE", 1, 1)
        assert math.isnan(rep.residual)
        assert rep.passed is False
        swept = [r for r in bv.sweep(bv.Z(0.5), ["Z_ODE"], 2) if (r.m, r.n) == (1, 1)]
        assert math.isnan(swept[0].residual) and swept[0].passed is False

    @pytest.mark.parametrize("fam", FAMILIES, ids=FAM_IDS)
    def test_sweep_equals_check_identity(self, fam):
        # one check per builder and pair (GEN_REC2 and GEN_UV, Z_LADDER5 and
        # GEN_EIGEN) reads as the per-name checks, field for field
        expected = [
            _report_fields(bv.check_identity(fam, name, m, n))
            for name in bv.identity_ids_for(fam)
            for m in range(7)
            for n in range(7)
            if bv._in_domain(bv.IDENTITIES[name][2], m, n)
        ]
        assert [_report_fields(r) for r in bv.sweep(fam, None, 6)] == expected

    def test_sweep_equals_check_identity_deep(self):
        # the deep grid spans one check_identity tile; sweep's batches are
        # cut by max_mn instead, and every row reads the same
        fam = bv.MQ(0.7, 0.7, 0.3)
        expected = [
            _report_fields(bv.check_identity(fam, name, m, n))
            for name in bv.identity_ids_for(fam)
            for m in range(15)
            for n in range(15)
            if bv._in_domain(bv.IDENTITIES[name][2], m, n)
        ]
        assert [_report_fields(r) for r in bv.sweep(fam, None, 14)] == expected

    @pytest.mark.parametrize("fam,name", [(bv.Z(0.5), "Z_RR1"), (bv.M(0.5, 0.7), "M_LADDER2"),
                                          (bv.MQ(0.5, 0.7, 0.5), "MQ_LADDER1")])
    def test_far_pair_equals_its_sweep_row(self, fam, name):
        rep = bv.check_identity(fam, name, 40, 3)
        row = [r for r in bv.sweep(fam, [name], 40) if (r.m, r.n) == (40, 3)]
        assert [_report_fields(rep)] == [_report_fields(r) for r in row]
        assert rep.passed

    def test_printed_breakdown_is_not_a_known_discrepancy(self):
        # q^(n - m - 1) overflows at m - n = 700: the printed residual is not
        # finite, which is a breakdown of the printed form, not its typo
        rep = bv.check_identity(bv.MQ(0.5, 0.7, 0.3), "MQ_LADDER2", 700, 0)
        assert not math.isfinite(rep.printed_residual)
        assert rep.printed_passed is False and rep.known_discrepancy is False
        assert rep.note.startswith("printed form breaks down")
        # a finite printed failure stays the known typo
        typo = bv.check_identity(bv.MQ(0.5, 0.7, 0.3), "MQ_LADDER2", 5, 2)
        assert typo.printed_passed is False and typo.known_discrepancy is True
        assert typo.note == bv.KNOWN_DISCREPANCIES["MQ_LADDER2"]

    def test_far_box_cube_is_sized_by_its_a_span(self):
        # the box of tile (43, 0), which holds (700, 0): m 687..704 and
        # n 0..16 reach a = 671..704, the cube's rows and two spare
        fam = bv.Z(0.5)
        cube, a0 = bv._cube(fam, 687, 704, 0, 16)
        assert a0 == 671 and cube.shape == (704 - 671 + 3, 18, 17)
        rad = bv.radial_of(fam)
        for m, n in [(687, 16), (700, 0), (704, 16)]:
            a, k = m - n, n
            assert cube[a - a0, k, :k + 1].tolist() == radial.radial_coeffs(rad, k, a).tolist()

    @pytest.mark.parametrize("fam", [bv.Z(0.5), bv.H()], ids=["Z", "H"])
    def test_cube_past_the_float_range_reads_nan(self, fam):
        # 1 / k! leaves the float range at k = 171: those tables read NaN,
        # the rest are construct's
        cube, a0 = bv._cube(fam, 166, 174, 166, 174)
        assert a0 == 0
        for m, n in [(166, 166), (170, 168), (174, 170), (171, 171), (174, 172)]:
            a, k = m - n, n
            if k <= 170:
                table = bv.construct(fam, m, n).terms
                assert cube[a - a0, k, :k + 1].tolist() == [table[(m - j, n - j)] for j in range(k + 1)]
            else:
                assert np.isnan(cube[a - a0, k, :k + 1]).all(), (m, n)

    def test_tile_cache_keeps_verdicts_per_tolerance(self):
        # the same tile at two tolerances: the second call gates afresh
        fam, name = bv.MQ(0.5, 0.7, 0.3), "GEN_DIAG"
        tight = Tolerance(abs_tol=0.0, rel_tol=1e-300)
        loose = [bv.check_identity(fam, name, m, n) for m in range(5) for n in range(m + 1)]
        strict = [bv.check_identity(fam, name, m, n, tol=tight)
                  for m in range(5) for n in range(m + 1)]
        swept = bv.sweep(fam, [name], 4, tol=tight)
        assert [_report_fields(r) for r in strict] == [_report_fields(r) for r in swept]
        assert all(r.passed for r in loose) and not all(r.passed for r in strict)

    def test_negative_index_raises(self):
        # GEN_EIGEN is stated at every pair; a negative index is no pair
        with pytest.raises(ValueError, match="nonnegative"):
            bv.check_identity(bv.Z(0.5), "GEN_EIGEN", -1, 2)

    def test_tile_cache_is_bounded(self):
        fam = bv.Z(0.5)
        for m in range(0, 200, bv.TILE):
            bv.check_identity(fam, "Z_RR1", m, 0)
        info = bv._tile.cache_info()
        assert info.maxsize == bv.TILE_CACHE_SIZE and info.currsize <= bv.TILE_CACHE_SIZE

    @pytest.mark.parametrize("fam,name", [(bv.WALL(0.5, 0.3), "WALL_LADDER1"),
                                          (bv.MQ(0.5, 0.7, 0.3), "MQ_LADDER2"),
                                          (bv.ZQ(0.5, 0.3), "ZQ_QDE1")])
    def test_float_overflow_is_a_failed_report(self, fam, name):
        # q^(n - m) leaves the float range at m - n = 700 (a Python float
        # power raises there): the pair fails, with no exception or warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = bv.check_identity(fam, name, 700, 0)
        assert rep.passed is False and not math.isfinite(rep.residual)

    def test_printed_variant_left_out_where_its_denominator_vanishes(self):
        # MQ_LADDER1's printed denominator 1 - q^(m - n + beta) is 0 at
        # m = n when beta = 0
        reports = bv.sweep(bv.MQ(0.0, 0.7, 0.5), ["MQ_LADDER1"], 3)
        for rep in reports:
            assert (rep.printed_residual is None) == (rep.m == rep.n)
            assert (rep.printed_passed is None) == (rep.m == rep.n)
        rep = bv.check_identity(bv.MQ(0.0, 0.7, 0.5), "MQ_LADDER1", 2, 2)
        assert rep.printed_residual is None and rep.passed

    def test_shared_builder_checked_once_per_pair(self, monkeypatch):
        # one batch over the domain pairs serves both names
        calls = []

        def counted(fam, P, m, n):
            calls.append(list(zip(m.tolist(), n.tolist())))
            return bv._gen_uv(fam, P, m, n)

        for name in ("GEN_REC2", "GEN_UV"):
            tags, _, domain = bv.IDENTITIES[name]
            monkeypatch.setitem(bv.IDENTITIES, name, (tags, counted, domain))
        reports = bv.sweep(bv.Z(0.5), ["GEN_REC2", "GEN_UV"], 4)
        wedge = [(m, n) for m in range(5) for n in range(5) if m >= n]
        assert calls == [wedge]
        assert [(r.identity, r.m, r.n) for r in reports] == (
            [("GEN_REC2",) + p for p in wedge] + [("GEN_UV",) + p for p in wedge])

    @pytest.mark.parametrize("name", list(bv.IDENTITIES))
    def test_range_is_checked_before_any_table(self, name, monkeypatch):
        tags, _, domain = bv.IDENTITIES[name]
        fam = bv.FamilyId(tags[0], beta=0.5, gamma=0.7)

        def no_tables(*args):
            raise AssertionError("table built")

        # every batch gathers its tables from a coefficient cube
        bv._tile.cache_clear()
        monkeypatch.setattr(bv, "_cube", no_tables)
        if domain is None:
            outside, inside = [], [(0, 0), (0, 3), (3, 0)]
        else:
            gap, low = domain
            # one step across each edge of the domain, and its corners
            outside = [(low + gap - 1, low), (low + gap + 1, low + 2),
                       (low + gap - 1, low - 1), (gap + low, low - 1)]
            inside = [(low + gap, low), (low + gap + 2, low + 2)]
        for m, n in outside:
            with pytest.raises(bv.IdentityRangeError, match="index outside identity range"):
                bv.check_identity(fam, name, m, n)
        for m, n in inside:
            with pytest.raises(AssertionError, match="table built"):
                bv.check_identity(fam, name, m, n)

    def test_tolerance_is_respected(self):
        # an absurdly tight gate flips verdicts without raising
        tol = Tolerance(abs_tol=0.0, rel_tol=1e-300)
        reps = bv.sweep(bv.MQ(0.5, 0.7, 0.3), ["GEN_DIAG"], 4, tol=tol)
        assert any(not r.passed for r in reps)


class TestOperationalRepresentation:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    def test_matches_construction(self, beta):
        reports = bv.sweep(bv.Z(beta), ["Z_OPREP"], 4)
        assert len(reports) == 15
        for rep in reports:
            assert rep.residual <= 1e-12 * max(rep.scale, 1.0), (rep.m, rep.n)


def connection_Z_to_H(m, n, beta):
    """Residual of (-1)^n n! Z^(beta)_{m,n} =
    sum_j C(n,j) (beta)_j (-1)^j H_{m-j,n-j}."""
    rhs = BivariatePoly.zero()
    for j in range(n + 1):
        rhs = rhs + (
            math.comb(n, j) * pochhammer(beta, j) * (-1.0) ** j
        ) * bv.construct(bv.H(), m - j, n - j)
    lhs = (-1.0) ** n * math.factorial(n) * bv.construct(bv.Z(beta), m, n)
    return identity_residual(lhs, rhs)


def connection_H_to_Z(m, n, beta):
    """Residual of H_{m,n} =
    (-1)^n n! sum_j (-beta)_j / j! Z^(beta)_{m-j,n-j}."""
    rhs = BivariatePoly.zero()
    for j in range(n + 1):
        rhs = rhs + (
            (-1.0) ** n * math.factorial(n) * pochhammer(-beta, j) / math.factorial(j)
        ) * bv.construct(bv.Z(beta), m - j, n - j)
    return identity_residual(bv.construct(bv.H(), m, n), rhs)


def commutator_check(beta, rng, trials=5, degree=6):
    """Max coefficient residual of [A, B] = -A on random polynomials, where
    A = z1 d1 d2 + (beta - z1 z2) d2 (the cleared eigenvalue operator) and
    B = delta_{z1} - delta_{z2}."""

    def opA(f):
        return (
            BivariatePoly.monomial(1, 0) * f.diff_partial(1).diff_partial(2)
            + (beta - BivariatePoly.monomial(1, 1)) * f.diff_partial(2)
        )

    def opB(f):
        # delta_{z1} - delta_{z2} as z1 d1 - z2 d2
        return (BivariatePoly.monomial(1, 0) * f.diff_partial(1)
                + BivariatePoly.monomial(0, 1, -1.0) * f.diff_partial(2))

    worst = 0.0
    for _ in range(trials):
        f = BivariatePoly(
            {
                (j, k): rng.uniform(-1.0, 1.0)
                for j in range(degree + 1)
                for k in range(degree + 1)
            }
        )
        lhs = opA(opB(f)) + -1.0 * opB(opA(f))
        res, _ = identity_residual(lhs, -1.0 * opA(f))
        worst = max(worst, res)
    return worst


class TestConnections:
    @pytest.mark.parametrize("beta,gamma", [(1.0, 0.0), (0.5, 2.0), (2.0, -0.5)])
    def test_parameter_connection(self, beta, gamma):
        for m in range(5):
            for n in range(m + 1):
                coeffs, res, _ = bv.connection_Z(m, n, beta, gamma)
                assert res < 1e-11
                assert_allclose(coeffs[0], 1.0)

    def test_connection_coefficients_terminate(self):
        # integer parameter difference truncates the expansion
        coeffs, res, _ = bv.connection_Z(4, 4, 1.0, 3.0)
        assert res < 1e-12
        assert coeffs[3] == 0.0 and coeffs[4] == 0.0

    def test_rescaled_family_connections(self):
        for m in range(5):
            for n in range(m + 1):
                res, scale = connection_Z_to_H(m, n, 0.7)
                assert res <= 1e-11 * max(scale, 1.0)
                res, scale = connection_H_to_Z(m, n, 0.7)
                assert res <= 1e-11 * max(scale, 1.0)

    def test_wedge_restriction(self):
        with pytest.raises(ValueError):
            bv.connection_Z(1, 2, 0.5, 0.0)


def mp_value(fam, m, n, z1, z2):
    """f_{m,n}(z1, z2) of Z, H or M at 30 digits from mpmath's Laguerre and
    Jacobi polynomials: z^a L_k^(a+beta)(x), (-1)^k k! z^a L_k^(a)(x) and
    z^a P_k^(a+gamma, beta)(1 - 2x), with x = z1 z2, a = |m - n|,
    k = min(m, n) and z = z1 for m >= n, z2 otherwise."""
    with mpmath.workdps(30):
        z1, z2 = mpmath.mpf(z1), mpmath.mpf(z2)
        a, k = abs(m - n), min(m, n)
        x = z1 * z2
        if fam.tag == "Z":
            radial_value = mpmath.laguerre(k, a + fam.beta, x)
        elif fam.tag == "H":
            radial_value = (-1) ** k * mpmath.factorial(k) * mpmath.laguerre(k, a, x)
        else:
            radial_value = mpmath.jacobi(k, a + fam.gamma, fam.beta, 1 - 2 * x)
        return float((z1 if m >= n else z2) ** a * radial_value)


class TestValues:
    """bivariate.values: f_{m,n} at points from the radial recurrence."""

    DEGREES = (0, 1, 5, 12, 24, 30)

    @pytest.mark.parametrize("fam", [bv.Z(0.5), bv.H(), bv.M(0.5, 0.7)], ids=["Z", "H", "M"])
    def test_matches_mpmath(self, fam):
        z1, z2 = np.random.default_rng(17).uniform(-1.0, 1.0, (2, 4))
        for m in self.DEGREES:
            for n in self.DEGREES:
                vals = bv.values(fam, m, n, z1, z2)
                for val, p1, p2 in zip(vals, z1, z2):
                    ref = mp_value(fam, m, n, p1, p2)
                    assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), (m, n, val, ref)

    @pytest.mark.parametrize(
        "fam", [bv.ZQ(0.5, 0.5, 1.5), bv.WALL(0.5, 0.3), bv.MQ(0.5, 0.7, 0.6)],
        ids=["ZQ", "WALL", "MQ"],
    )
    def test_q_families_match_tables(self, fam):
        # judged against the size of the power-basis sum the table adds up
        z1, z2 = np.random.default_rng(19).uniform(-1.0, 1.0, (2, 4))
        for m in range(7):
            for n in range(7):
                table = bv.construct(fam, m, n)
                vals = bv.values(fam, m, n, z1, z2)
                for val, p1, p2 in zip(vals, z1, z2):
                    size = sum(abs(c * p1 ** j * p2 ** k) for (j, k), c in table.terms.items())
                    assert abs(val - table.evaluate(p1, p2)) <= 1e-12 * size, (m, n)

    def test_scalar_point_and_shape(self):
        fam = bv.M(0.5, 0.7)
        z1, z2 = np.random.default_rng(23).uniform(-1.0, 1.0, (2, 2, 3))
        vals = bv.values(fam, 7, 4, z1, z2)
        assert vals.shape == (2, 3) and vals.dtype == float
        assert bv.values(fam, 7, 4, z1[1, 2], z2[1, 2]) == vals[1, 2]

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            bv.values(bv.Z(0.5), -1, 2, 0.1, 0.2)


def _genfun_loop(fam, which, u, v, z1, z2, N):
    """genfun_check's series summed one harmonic index a at a time, each
    index with its own radial.phi_rows call: the oracle of the one-pass
    sum.  Returns (total, tail)."""
    u, v, z1, z2 = (np.asarray(t, dtype=float) for t in (u, v, z1, z2))
    uv = u * v
    rad = bv.radial_of(fam)
    x = z1.astype(np.longdouble) * z2
    uv_pow = uv ** np.arange(N + 2).reshape((-1,) + (1,) * uv.ndim)
    total = np.zeros(x.shape, dtype=np.longdouble)
    tail = np.zeros(x.shape)
    for a in range(N + 2):
        rows = radial.phi_rows(rad, a, N + 1 - a)(x)
        terms = uv_pow[: N + 2 - a] * rows
        weight = (u * z1) ** a
        size = np.abs(u * z1).astype(np.longdouble) ** a
        if which in ("Z_EXP", "M_EXP"):
            weight = weight / math.factorial(a)
            size = size / math.factorial(a)
        if which == "M_DOUBLE" and a > 0:
            size = np.maximum(size, np.abs(v * z2).astype(np.longdouble) ** a)
            weight = weight + (v * z2) ** a
        tail = np.maximum(tail, (size * np.abs(terms[-1])).astype(float))
        if a <= N:
            total += weight * np.cumsum(terms[:-1], axis=0)[-1]
    return total, tail


def _genfun_family(which):
    return bv.Z(0.5) if which[0] == "Z" else bv.M(0.5, 0.7)


class TestGeneratingFunctions:
    @pytest.mark.parametrize(
        "fam,which",
        [
            (bv.Z(0.5), "Z_EXP"),
            (bv.Z(0.5), "Z_PLAIN"),
            (bv.M(0.5, 0.7), "M_EXP"),
            (bv.M(0.5, 0.7), "M_PLAIN"),
            (bv.M(0.5, 0.7), "M_DOUBLE"),
        ],
    )
    def test_truncated_sum_matches_closed_form(self, fam, which):
        rng = np.random.default_rng(7)
        for _ in range(4):
            u, v = rng.uniform(-0.15, 0.15, 2)
            z1, z2 = rng.uniform(-1.0, 1.0, 2)
            res, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=30)
            assert res < 1e-9
            assert tail < 1e-9

    @pytest.mark.parametrize(
        "fam,which",
        [
            (bv.Z(0.5), "Z_EXP"),
            (bv.Z(0.5), "Z_PLAIN"),
            (bv.Z(0.0), "Z_PLAIN"),
            (bv.M(0.5, 0.7), "M_EXP"),
            (bv.M(0.5, 0.7), "M_PLAIN"),
            (bv.M(0.5, 0.7), "M_DOUBLE"),
        ],
    )
    def test_array_call_equals_scalar_calls(self, fam, which):
        rng = np.random.default_rng(13)
        u, v = rng.uniform(-0.15, 0.15, (2, 2, 3))
        z1, z2 = rng.uniform(-1.0, 1.0, (2, 2, 3))
        res, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=30)
        assert res.shape == tail.shape == (2, 3)
        # the series is summed in the same order for every shape; numpy's
        # vectorized exp and power may round the closed form differently
        # in the last bit
        for i in np.ndindex(2, 3):
            r, t = bv.genfun_check(fam, which, u[i], v[i], z1[i], z2[i], N=30)
            assert type(r) is float and type(t) is float
            assert t == tail[i]
            assert abs(r - res[i]) <= 1e-15, (r, res[i])

    @pytest.mark.parametrize("N", [5, 8])
    def test_tail_is_the_first_omitted_shell(self, N):
        # at the criterion-5 points the tail estimate, the largest term with
        # max(m, n) = N + 1, is at least a tenth of all that the truncation
        # drops, S_{N+20} - S_N, summed here term by term from values
        rng = np.random.default_rng(0)
        draws = [(*rng.uniform(-0.15, 0.15, 2), *rng.uniform(-1.0, 1.0, 2)) for _ in range(10)]
        u, v, z1, z2 = np.array(draws).T
        for fam, which in ((bv.Z(0.5), "Z_EXP"), (bv.M(0.5, 0.5), "M_PLAIN"),
                           (bv.M(0.5, 0.5), "M_DOUBLE")):
            _, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=N)
            dropped = np.zeros(len(u), dtype=np.longdouble)
            for m in range(N + 21):
                for n in range(N + 21):
                    if max(m, n) <= N or (m < n and which != "M_DOUBLE"):
                        continue
                    term = u**m * v**n * bv.values(fam, m, n, z1, z2)
                    if which == "Z_EXP":
                        term = term / math.factorial(m - n)
                    dropped += term
            assert np.all(tail >= 0.1 * np.abs(dropped)), (which, tail, dropped)

    @pytest.mark.parametrize("which", bv.GENFUNS)
    @pytest.mark.parametrize("N", [0, 1, 5, 30])
    @pytest.mark.parametrize("shape", [(), (2, 3)], ids=["scalar", "2x3"])
    def test_one_pass_equals_per_index_loop(self, which, N, shape):
        fam = _genfun_family(which)
        rng = np.random.default_rng(N)
        u, v = rng.uniform(-0.15, 0.15, (2,) + shape)
        z1, z2 = rng.uniform(-1.0, 1.0, (2,) + shape)
        residual, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=N)
        total, ref_tail = _genfun_loop(fam, which, u, v, z1, z2, N)
        closed = bv._closed_form(fam, which, *(np.asarray(t, dtype=float) for t in (u, v, z1, z2)))
        assert np.array_equal(residual, np.abs(total - closed).astype(float))
        assert np.array_equal(tail, ref_tail)

    @pytest.mark.parametrize("which", bv.GENFUNS)
    @pytest.mark.parametrize("chunk", [1, 4], ids=["one-point", "four-points"])
    def test_points_in_chunks_equal_one_grid(self, which, chunk, monkeypatch):
        fam = _genfun_family(which)
        rng = np.random.default_rng(11)
        u, v = rng.uniform(-0.15, 0.15, (2, 3, 7))
        z1, z2 = rng.uniform(-1.0, 1.0, (2, 3, 7))
        whole = bv.genfun_check(fam, which, u, v, z1, z2, N=30)
        monkeypatch.setattr(bv, "_GENFUN_GRID", chunk * 32 ** 2)
        residual, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=30)
        assert np.array_equal(residual, whole[0]) and np.array_equal(tail, whole[1])

    @pytest.mark.parametrize("which", ["Z_EXP", "M_EXP"])
    def test_past_the_float_factorials(self, which):
        # 1 / a! leaves the float range past a = 170 and adds 0, with no
        # raise and no warning
        fam = _genfun_family(which)
        rng = np.random.default_rng(3)
        u, v = rng.uniform(-0.15, 0.15, (2, 10))
        z1, z2 = rng.uniform(-1.0, 1.0, (2, 10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residual, tail = bv.genfun_check(fam, which, u, v, z1, z2, N=200)
        assert np.all(np.isfinite(residual)) and np.all(np.isfinite(tail))
        assert residual.max() <= bv.genfun_check(fam, which, u, v, z1, z2, N=30)[0].max()

    def test_rejects_divergent_point(self):
        with pytest.raises(ValueError):
            bv.genfun_check(bv.Z(0.0), "Z_EXP", 2.0, 1.0, 0.0, 0.0)

    def test_unknown_label_raises(self):
        with pytest.raises(ValueError):
            bv.genfun_check(bv.Z(0.0), "NOPE", 0.1, 0.1, 0.5, 0.5)

    @pytest.mark.parametrize(
        "fam,which",
        [(bv.M(0.5, 0.7), "Z_EXP"), (bv.Z(0.5), "M_PLAIN"), (bv.H(), "Z_EXP"),
         (bv.WALL(0.5, 0.5), "Z_PLAIN")],
        ids=["M-Z_EXP", "Z-M_PLAIN", "H-Z_EXP", "WALL-Z_PLAIN"],
    )
    def test_form_of_another_family_raises(self, fam, which):
        # the closed form of one family says nothing about another's sum
        with pytest.raises(ValueError, match=f"'{which}' for family {fam.tag}"):
            bv.genfun_check(fam, which, 0.1, 0.1, 0.5, 0.5)


class TestConvolution:
    def test_derived_form_holds_at_generic_points(self):
        rng = np.random.default_rng(3)
        pts = [tuple(rng.uniform(-1.0, 1.0, 4)) for _ in range(5)]
        for m in range(5):
            for n in range(min(m, 3) + 1):
                res = bv.convolution_Z_check(m, n, 0.5, 1.0, pts)
                assert res < 1e-12

    def test_literal_form_fails_off_its_locus(self):
        pts = [(0.7, 0.5, -0.3, 0.8)]
        res = bv.convolution_Z_check(4, 1, 0.5, 1.0, pts, printed=True)
        assert res > 1e-3

    def test_literal_form_holds_on_its_locus(self):
        # points with z1 z4 + z2 z3 = 0 and matching top index make the
        # radial arguments add, so the literal product-point version with
        # the factorial restored degenerates to the derived one
        rng = np.random.default_rng(5)
        for _ in range(5):
            z1, z2, z3 = rng.uniform(0.2, 1.0, 3)
            z4 = -z2 * z3 / z1
            for n in range(4):
                # m = n kills the factorial difference as well
                res = bv.convolution_Z_check(
                    n, n, 0.5, 1.0, [(z1, z2, z3, z4)], printed=True
                )
                assert res < 1e-11

    def test_wedge_restriction(self):
        with pytest.raises(ValueError):
            bv.convolution_Z_check(1, 2, 0.0, 0.0, [(0.1, 0.2, 0.3, 0.4)])


class TestSeriesSolver:
    @pytest.mark.parametrize("beta", [0.5, 1.5])
    @pytest.mark.parametrize("n", range(4))
    def test_first_branch_matches_closed_form(self, beta, n):
        for p in range(4):
            series = bv.pde_series_solution(beta, n, boundary_j0={p: 1.0})
            closed = bv.pde_closed_form(beta, n, p=p)
            res, scale = identity_residual(series, closed)
            assert res <= 1e-12 * max(scale, 1.0)
            # genuine solution: every row of the cleared equation vanishes
            assert bv.pde_operator_residual(beta, n, series) < 1e-12

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    @pytest.mark.parametrize("n", range(4))
    def test_second_branch_matches_closed_form(self, beta, n):
        for r in range(n + 1):
            series = bv.pde_series_solution(beta, n, boundary_0k={r: 1.0})
            closed = bv.pde_closed_form(beta, n, r=r)
            res, scale = identity_residual(series, closed)
            assert res <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("beta", [0.5, 1.5])
    def test_second_branch_interior_rows_only(self, beta):
        # the z2^r branch satisfies every recursion-determined row but
        # leaves exactly beta * r on the z1^0 boundary row
        n = 3
        for r in range(1, n + 1):
            series = bv.pde_series_solution(beta, n, boundary_0k={r: 1.0})
            interior, boundary = bv.pde_interior_residual(beta, n, series)
            assert interior < 1e-12
            assert_allclose(boundary, beta * r, rtol=1e-12)

    def test_superposition(self):
        s1 = bv.pde_series_solution(0.5, 2, boundary_j0={1: 2.0})
        s2 = bv.pde_series_solution(0.5, 2, boundary_0k={1: -3.0})
        both = bv.pde_series_solution(
            0.5, 2, boundary_j0={1: 2.0}, boundary_0k={1: -3.0}
        )
        res, _ = identity_residual(both, s1 + s2)
        assert res < 1e-13

    def test_closed_form_needs_a_branch(self):
        with pytest.raises(ValueError):
            bv.pde_closed_form(0.5, 2)

    def test_singular_parameter_raises(self):
        with pytest.raises(ValueError):
            bv.pde_series_solution(-1.0, 2, boundary_j0={0: 1.0})


class TestOperatorAlgebra:
    def test_commutator_relation(self):
        rng = np.random.default_rng(11)
        assert commutator_check(0.7, rng) < 1e-10


class TestQDegeneration:
    def test_residuals_decay_linearly_in_one_minus_q(self):
        out = bv.q_degeneration_residuals(0.7, 3, 2)
        qs = [q for q, _, _ in out]
        assert qs == [0.9, 0.99, 0.999]
        for q, table_res, rec_res in out:
            assert table_res < 6.0 * (1.0 - q)
            assert rec_res < 6.0 * (1.0 - q)
        # successive residual ratios track the factor-of-ten step in 1 - q
        for i in (1, 2):
            assert 5.0 < out[i - 1][1] / out[i][1] < 20.0
            assert 5.0 < out[i - 1][2] / out[i][2] < 20.0

"""Acceptance suite: nine numbered criteria covering Gram reproduction,
the identity catalog, connections, generating functions, the series
solver, zero monotonicity, the biorthogonal tensor systems, and the
q -> 1 limit.  Each test prints a single pass/fail line for its
criterion."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bivarortho import awbiortho as aw
from bivarortho import bivariate as bv
from bivarortho import quad, radial
from bivarortho.polycore import Tolerance, identity_residual


@contextmanager
def criterion(capsys, num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({label}): PASS  [{time.perf_counter() - t0:.1f}s]")


def test_criterion_1_gram_plane_family(capsys):
    # off-diagonals < 1e-9 normalized, diagonals within 1e-8 relative of
    # pi * Gamma(beta + max(m,n) + 1) / min(m,n)!; runtime < 5 s
    with criterion(capsys, 1, "plane-family Gram"):
        t0 = time.perf_counter()
        for beta in (0.0, 0.5, 2.0):
            res = quad.gram(bv.Z(beta), 4, offdiag_tol=1e-9, diag_rel_tol=1e-8)
            assert res.passed, (beta, res.max_offdiag, res.max_diag_relerr)
            for (m, n) in res.indices:
                ref = (
                    math.pi
                    * math.gamma(beta + max(m, n) + 1)
                    / math.factorial(min(m, n))
                )
                assert abs(res.entries[((m, n), (m, n))] - ref) <= 1e-8 * ref
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_gram_disc_and_q_families(capsys):
    # disc family plus the three q families at q in {0.3, 0.5, 0.8};
    # q-lattice diagonals within 1e-7 relative; runtime < 20 s total
    with criterion(capsys, 2, "disc and q-family Grams"):
        t0 = time.perf_counter()
        for (b, g) in ((0.0, 0.0), (0.5, 2.0), (2.0, 0.5)):
            res = quad.gram(bv.M(b, g), 4, offdiag_tol=1e-9, diag_rel_tol=1e-8)
            assert res.passed, (b, g, res.max_offdiag, res.max_diag_relerr)
        for q in (0.3, 0.5, 0.8):
            for fam in (bv.ZQ(0.5, q), bv.WALL(0.5, q), bv.MQ(0.5, 0.5, q)):
                res = quad.gram(fam, 4, offdiag_tol=1e-9, diag_rel_tol=1e-7)
                assert res.passed, (
                    fam.tag, q, res.max_offdiag, res.max_diag_relerr,
                )
        assert time.perf_counter() - t0 < 20.0


def test_criterion_3_identity_sweep(capsys):
    # every catalog identity passes (abs 1e-10 / rel 1e-9) for m, n <= 6
    # over the parameter grid; the flagged printed variants fail and are
    # reported as known discrepancies with their derived replacements
    # passing; runtime < 60 s
    with criterion(capsys, 3, "identity sweep"):
        t0 = time.perf_counter()
        params = (-0.5, 0.0, 0.7, 2.0)
        qs = (0.3, 0.5, 0.8)
        fams = [bv.Z(b) for b in params]
        fams += [bv.H()]
        fams += [bv.M(b, g) for b in params for g in params]
        fams += [bv.ZQ(b, q) for b in params for q in qs]
        fams += [bv.WALL(b, q) for b in params for q in qs]
        fams += [bv.MQ(b, g, q) for b in params for g in params for q in qs]
        tol = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
        n_reports = 0
        printed_failures = set()
        for fam in fams:
            for rep in bv.sweep(fam, None, 6, tol=tol):
                n_reports += 1
                assert rep.passed, (rep.identity, fam, rep.m, rep.n, rep.residual)
                if rep.printed_passed is False:
                    printed_failures.add(rep.identity)
                    assert rep.known_discrepancy, rep.identity
        assert n_reports > 40000
        # the two named expected exceptions must actually show up as
        # discrepancies, alongside the other flagged printed variants
        assert "ZQ_RR2" in printed_failures
        assert "M_PDE2" in printed_failures
        assert printed_failures <= set(bv.KNOWN_DISCREPANCIES)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_connection_relations(capsys):
    # coefficient-table reconstruction, m, n <= 6, residual < 1e-11
    with criterion(capsys, 4, "connection relations"):
        for (beta, gamma) in ((1.0, 0.0), (0.5, 2.0), (2.0, -0.5)):
            for m in range(7):
                for n in range(m + 1):
                    _, res, _ = bv.connection_Z(m, n, beta, gamma)
                    assert res < 1e-11, (beta, gamma, m, n, res)


def test_criterion_5_generating_functions_and_convolution(capsys):
    # truncated N = 30 sums within 1e-8 at 10 seeded points with
    # |u|, |v| <= 0.15 and |z| <= 1; convolution residual < 1e-9 at
    # 5 seeded points for (m, n) <= (4, 3)
    with criterion(capsys, 5, "generating functions and convolution"):
        rng = np.random.default_rng(0)
        checks = (
            (bv.Z(0.5), "Z_EXP"),
            (bv.M(0.5, 0.5), "M_PLAIN"),
            (bv.M(0.5, 0.5), "M_DOUBLE"),
        )
        for _ in range(10):
            u, v = rng.uniform(-0.15, 0.15, 2)
            z1, z2 = rng.uniform(-1.0, 1.0, 2)
            for fam, which in checks:
                res, _ = bv.genfun_check(fam, which, u, v, z1, z2, N=30)
                assert res < 1e-8, (which, u, v, z1, z2, res)
        rng = np.random.default_rng(1)
        pts = [tuple(rng.uniform(-1.0, 1.0, 4)) for _ in range(5)]
        for m in range(5):
            for n in range(min(m, 3) + 1):
                res = bv.convolution_Z_check(m, n, 0.5, 1.0, pts)
                assert res < 1e-9, (m, n, res)


def test_criterion_6_series_solver(capsys):
    # recursion-built series match the closed-form branches coefficientwise
    # within 1e-11 for n <= 3, beta in {0.5, 1.5}, boundaries delta_{j,p}
    # (p <= 3) and delta_{k,r} (r <= n); operator residual < 1e-11.  The
    # second branch satisfies every recursion-determined row; its exact
    # boundary-row leftover beta * r is checked as the known discrepancy of
    # the printed solution set.
    with criterion(capsys, 6, "series solver"):
        for beta in (0.5, 1.5):
            for n in range(4):
                for p in range(4):
                    series = bv.pde_series_solution(beta, n, boundary_j0={p: 1.0})
                    closed = bv.pde_closed_form(beta, n, p=p)
                    res, scale = identity_residual(series, closed)
                    assert res <= 1e-11 * max(scale, 1.0)
                    assert bv.pde_operator_residual(beta, n, series) < 1e-11
                for r in range(n + 1):
                    series = bv.pde_series_solution(beta, n, boundary_0k={r: 1.0})
                    closed = bv.pde_closed_form(beta, n, r=r)
                    res, scale = identity_residual(series, closed)
                    assert res <= 1e-11 * max(scale, 1.0)
                    interior, boundary = bv.pde_interior_residual(beta, n, series)
                    assert interior < 1e-11
                    assert_allclose(boundary, beta * r, rtol=1e-12, atol=1e-13)


def test_criterion_7_zero_monotonicity(capsys):
    # all zero-circle radii strictly increase in m for n in {1, 2, 3},
    # m in {n, ..., n+5}; a sign change of phi_n certifies every eigensolver
    # zero within a half-width under 1e-9
    with criterion(capsys, 7, "zero monotonicity"):
        for rad in (radial.laguerre(0.5), radial.shifted_jacobi(0.5, 0.5)):
            for n in (1, 2, 3):
                mono, table, dev = quad.zero_circle_monotonicity(
                    rad, n, range(n, n + 6)
                )
                assert mono, (rad.kind, n)
                assert dev < 1e-9, (rad.kind, n, dev)
                assert len(table) == 6


def test_criterion_8_biorthogonal_tensor_system(capsys):
    # 1D Gram within 1e-6 for degrees <= 3 at (0.2, -0.3, 0.1, 0.4, 0.5);
    # tensor system off-diagonals < 1e-6, diagonals within 1e-5 of the
    # product closed form for indices <= 2; runtime < 30 s
    with criterion(capsys, 8, "biorthogonal tensor system"):
        t0 = time.perf_counter()
        p1 = aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.5)
        res = aw.aw_gram_1d(p1, 3, diag_rel_tol=1e-6, offdiag_tol=1e-6)
        assert res.passed, (res.max_offdiag, res.max_diag_relerr)
        tp = aw.TensorParams(p1, aw.AWParams(0.3, -0.2, 0.15, 0.25, 0.5))
        for mode in ("self", "uv", "pq"):
            tres = aw.tensor_biortho_check(
                tp, 2, mode=mode, diag_rel_tol=1e-5, offdiag_tol=1e-6
            )
            assert tres.passed, (mode, tres.max_offdiag, tres.max_diag_relerr)
        assert time.perf_counter() - t0 < 30.0


def test_criterion_9_q_to_one_degeneration(capsys):
    # scaled q-family tables and recurrence converge to the classical ones
    # at observed rate O(1-q) over q in {0.9, 0.99, 0.999}
    with criterion(capsys, 9, "q -> 1 degeneration"):
        out = bv.q_degeneration_residuals(0.7, 3, 2, qs=(0.9, 0.99, 0.999))
        for q, table_res, rec_res in out:
            assert table_res < 6.0 * (1.0 - q), (q, table_res)
            assert rec_res < 6.0 * (1.0 - q), (q, rec_res)
        for i in (1, 2):
            # a factor-of-ten step in 1 - q shrinks both residuals tenfold
            assert 5.0 < out[i - 1][1] / out[i][1] < 20.0
            assert 5.0 < out[i - 1][2] / out[i][2] < 20.0

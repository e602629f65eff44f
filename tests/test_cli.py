"""Tests for the command-line interface: output formats, exit codes, and
determinism."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bivarortho import bivariate, cli, quad, radial
from bivarortho.polycore import Tolerance


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            [
                "eval", "--family", "Z", "--beta", "0", "--m", "1", "--n", "1",
                "--z1", "1.0", "--z2", "1.0", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["command"] == "eval"
        # 1 - z1 z2 vanishes at (1, 1)
        assert float(payload["rows"][0]["value"]) == 0.0

    def test_coefficient_dump(self, capsys):
        code, out, _ = run(
            [
                "eval", "--family", "Z", "--beta", "0", "--m", "1", "--n", "1",
                "--coeffs",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        table = {r["z1"]: float(r["value"]) for r in rows if r["z1"].startswith("coeff")}
        assert table == {"coeff[0,0]": 1.0, "coeff[1,1]": -1.0}

    def test_values_from_the_recurrence(self, capsys):
        z1, z2 = [0.4, -0.9, 0.75], [0.9, 0.3, -0.6]
        argv = ["eval", "--family", "M", "--beta", "0.5", "--gamma", "0.5",
                "--m", "24", "--n", "24", "--format", "json"]
        for a, b in zip(z1, z2):
            argv += ["--z1", repr(a), "--z2", repr(b)]
        code, out, _ = run(argv, capsys)
        assert code == 0
        got = [float(r["value"]) for r in json.loads(out)["rows"]]
        assert got == list(bivariate.values(bivariate.M(0.5, 0.5), 24, 24, z1, z2))

    # digests of the --coeffs rows (m, n) in COEFF_DEGREES, recorded before
    # eval took its values from the recurrence; the dump stays on the tables
    COEFF_DEGREES = ((0, 0), (5, 3), (3, 5), (9, 9), (12, 4))
    COEFF_DIGESTS = {
        "Z": (["--beta", "0.5"], "691e89412d1c1f9a"),
        "H": ([], "fba879642d2fd617"),
        "M": (["--beta", "0.5", "--gamma", "0.7"], "293550ee56d5cabf"),
        "ZQ": (["--beta", "0.5", "--q", "0.5", "--c", "1.5"], "5abd9ce149763e95"),
        "WALL": (["--beta", "0.5", "--q", "0.3"], "c5a8f7c226561d8c"),
        "MQ": (["--beta", "0.5", "--gamma", "0.7", "--q", "0.6"], "f3b628a9052c77de"),
    }

    @pytest.mark.parametrize("tag", sorted(COEFF_DIGESTS))
    def test_coefficient_rows_unchanged(self, tag, capsys):
        flags, digest = self.COEFF_DIGESTS[tag]
        text = ""
        for m, n in self.COEFF_DEGREES:
            code, out, _ = run(
                ["eval", "--family", tag, *flags, "--m", str(m), "--n", str(n),
                 "--z1", "0.3", "--z2", "0.4", "--coeffs"],
                capsys,
            )
            assert code == 0
            text += "".join(line for line in out.splitlines(keepends=True) if "coeff[" in line)
        assert text.count("\n") == 24
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_coefficient_rows_past_16_bit_exponents(self, capsys):
        # f_{m,0} = z1^m: one coefficient row at an exponent past 2^16 - 1
        code, out, _ = run(["eval", "--family", "Z", "--beta", "0.5", "--m", "70000", "--n", "0",
                            "--coeffs"], capsys)
        assert code == 0
        assert '"coeff[70000,0]",,1' in out.splitlines()

    @pytest.mark.parametrize(
        "flags,kind,degree",
        [(["--family", "H"], "laguerre", 171),
         (["--family", "Z"], "laguerre", 171),
         (["--family", "M", "--beta", "0.5", "--gamma", "0.5"], "jacobi", 171),
         (["--family", "WALL", "--beta", "0.5", "--q", "0.5"], "wall", 200)],
        ids=["H", "Z", "M", "WALL"],
    )
    def test_coefficient_rows_past_the_float_range_exit_1(self, flags, kind, degree, capsys):
        # one diagnosis, naming the degree, wherever a table leaves the range
        code, out, err = run(["eval", *flags, "--m", str(degree), "--n", str(degree), "--coeffs"],
                             capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: numerical breakdown: {kind} table of degree {degree} "
                       "at alpha = 0 leaves the float range\n")

    @pytest.mark.parametrize(
        "flags,degree",
        [(["--family", "H"], 400),
         (["--family", "H"], 2000)],
        ids=["H", "H-scale-past-4300-digits"],
    )
    def test_values_past_the_float_range_exit_1(self, flags, degree, capsys):
        # a NaN or infinite value is a breakdown, not a printed number
        code, out, err = run(["eval", *flags, "--m", str(degree), "--n", str(degree),
                              "--z1", "0.3", "--z2", "0.2"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: numerical breakdown: {flags[1]} value at (m, n) = "
                       f"({degree}, {degree}) is not finite\n")

    @pytest.mark.parametrize(
        "flags,degree,value",
        [(["--family", "ZQ", "--beta", "0.5", "--q", "0.05"], 62, 1.0422498995921048),
         (["--family", "ZQ", "--beta", "0.5", "--q", "0.05"], 300, 1.0422498995921048),
         # L_3000^(1/2)(0.06) = 2.35260470545535062 (mpmath, 40 digits)
         (["--family", "Z", "--beta", "0.5"], 3000, 2.3526047054553506)],
        ids=["ZQ-62", "ZQ-300", "Z-3000"],
    )
    def test_values_whose_scale_leaves_the_range_exit_0(self, flags, degree, value, capsys):
        # the leading coefficient and the monic value leave the range in
        # opposite directions, so their product would read 0 * inf; the
        # walk carries their ratios and reads the value
        code, out, err = run(["eval", *flags, "--m", str(degree), "--n", str(degree),
                              "--z1", "0.3", "--z2", "0.2", "--format", "json"], capsys)
        assert (code, err) == (0, "")
        got = float(json.loads(out)["rows"][0]["value"])
        assert abs(got - value) <= 1e-15 * value

    def test_mismatched_points_exit_2(self, capsys):
        code, _, err = run(
            ["eval", "--family", "Z", "--m", "1", "--n", "0", "--z1", "1.0"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_unknown_family_exit_2(self, capsys):
        code, _, _ = run(
            ["eval", "--family", "QQ", "--m", "0", "--n", "0"], capsys
        )
        assert code == 2


class TestGram:
    def test_pass_and_summary(self, capsys):
        code, out, _ = run(
            ["gram", "--family", "WALL", "--beta", "0.5", "--q", "0.5",
             "--degree-cap", "2", "--tol-diag", "1e-7", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["passed"] is True

    def test_failure_exit_1(self, capsys):
        # an impossible diagonal tolerance forces verdict failure
        code, out, _ = run(
            ["gram", "--family", "Z", "--beta", "0", "--degree-cap", "2",
             "--tol-diag", "1e-18", "--tol-offdiag", "1e-18"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv,fault",
        [(["--family", "WALL", "--beta", "0.5", "--q", "0.001", "--degree-cap", "45"],
          "non-finite term at lattice index"),
         (["--family", "ZQ", "--beta", "0", "--q", "0.3", "--degree-cap", "70"],
          "weight underflows at lattice index")],
        ids=["WALL-q0.001", "ZQ-q0.3"],
    )
    def test_lattice_edge_is_a_failed_check(self, argv, fault, capsys, tmp_path):
        # a non-finite lattice term or an underflowed weight fails the Gram,
        # exit 1, with its output written and its notes, not a "numerical
        # breakdown", on stderr
        path = tmp_path / "gram.json"
        code, _, err = run(["gram"] + argv + ["--format", "json", "--out", str(path)], capsys)
        assert code == 1
        assert err.startswith("gram: harmonic index ") and err.count("\n") == 1
        assert fault in err
        payload = json.loads(path.read_text())
        assert payload["summary"]["passed"] is False and payload["rows"]

    def test_mass_past_the_extended_range_passes(self, capsys):
        # the mass of beta = 1800 leaves the extended range, and the Gram,
        # whose Gauss weights are relative to it, passes with no notes
        argv = ["gram", "--family", "Z", "--beta", "1800", "--degree-cap", "2"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.endswith("# passed=True\n")

    def test_numerical_failure_exit_1(self, capsys):
        # a Gram that misses its tolerance is a failed check, not a usage
        # error; WALL at q = 0.999 and cap 6 reads max_offdiag 0.19, from
        # the Newton-form lattice rows near q = 1
        code, out, err = run(
            ["gram", "--family", "WALL", "--q", "0.999", "--degree-cap", "6",
             "--format", "json"],
            capsys,
        )
        assert code == 1, err
        assert json.loads(out)["summary"]["passed"] is False

    def test_gauss_family_certifies_cap_25(self, capsys):
        # the old input of test_numerical_failure_exit_1: the eigenvector
        # weights read max_offdiag 1.1e-3 here, the Christoffel weights 7.8e-15
        code, out, err = run(
            ["gram", "--family", "Z", "--beta", "0.5", "--degree-cap", "25",
             "--format", "json"],
            capsys,
        )
        assert code == 0, err
        assert float(json.loads(out)["summary"]["max_offdiag"]) < 1e-12

    def test_q_laguerre_near_q_one_is_finite(self, capsys):
        # the q-Laguerre norms are one product of factor ratios; as separate
        # infinite products they left the float range and read NaN here
        code, out, err = run(
            ["gram", "--family", "ZQ", "--q", "0.999", "--degree-cap", "2",
             "--format", "json"],
            capsys,
        )
        summary = json.loads(out)["summary"]
        assert code == 0, err
        assert all(math.isfinite(float(summary[k])) for k in ("max_offdiag", "max_diag_relerr"))
        assert float(summary["max_diag_relerr"]) < 1e-12

    def test_q_laguerre_at_small_q_certifies_cap_30(self, capsys):
        # the float leading coefficients underflowed here from cap 25
        # (diag relerr 1.0); the diagonal products overflow the float range
        code, out, err = run(
            ["gram", "--family", "ZQ", "--beta", "0", "--q", "0.3", "--degree-cap", "30",
             "--format", "json"],
            capsys,
        )
        assert code == 0, err
        assert err == ""
        summary = json.loads(out)["summary"]
        assert float(summary["max_offdiag"]) < 1e-12
        assert float(summary["max_diag_relerr"]) < 1e-12

    def test_q_near_one_prints_a_summary(self, capsys):
        # the norms are one product of ratios, so q = 0.999 no longer
        # divides an underflowed (q; q)_inf by another: a summary, with the
        # exit code of its verdict
        code, out, err = run(
            ["gram", "--family", "WALL", "--q", "0.999", "--degree-cap", "3",
             "--format", "json"],
            capsys,
        )
        assert err == ""
        summary = json.loads(out)["summary"]
        assert code == (0 if summary["passed"] else 1)
        assert float(summary["max_offdiag"]) < 1e-6

    def test_numerical_breakdown_exit_1(self, capsys):
        # the infinite q-products of the norms cannot converge this close
        # to q = 1: one diagnostic line and exit 1, not a traceback
        code, out, err = run(
            ["gram", "--family", "WALL", "--q", "0.99999", "--degree-cap", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: numerical breakdown:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--family", "Z", "--beta", "-1.5"],
            ["--family", "M", "--beta", "-1"],
            ["--family", "M", "--gamma", "-1.2"],
            ["--family", "MQ", "--gamma", "-1"],
            ["--family", "WALL", "--beta", "-2"],
            ["--family", "ZQ", "--beta", "-1"],
            ["--family", "ZQ", "--q", "1.0"],
            ["--family", "WALL", "--q", "0"],
            ["--family", "MQ", "--q", "nan"],
            ["--family", "ZQ", "--c", "0"],
            ["--family", "ZQ", "--c", "-2"],
        ],
        ids=["Z-beta", "M-beta", "M-gamma", "MQ-gamma", "WALL-beta", "ZQ-beta",
             "ZQ-q", "WALL-q", "MQ-q-nan", "ZQ-c0", "ZQ-c-neg"],
    )
    def test_bad_family_parameters_exit_2(self, flags, capsys, monkeypatch):
        # rejected at the boundary, before any table or rule is built
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli.quad, "gram", no_work)
        monkeypatch.setattr(cli.bivariate, "construct", no_work)
        for command in (["gram"], ["eval", "--m", "1", "--n", "0"]):
            code, out, err = run(command + flags, capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: family")

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["eval", "--family", "M", "--beta", "inf", "--m", "1", "--n", "0",
              "--z1", "0.3", "--z2", "0.4"], "--beta"),
            (["eval", "--family", "Z", "--m", "1", "--n", "0", "--z1", "nan", "--z2", "0.4"],
             "--z1"),
            (["eval", "--family", "Z", "--m", "1", "--n", "0", "--z1", "0.3", "--z2=-inf"],
             "--z2"),
            (["check", "--family", "Z", "--beta", "inf"], "--beta"),
            (["genfun", "--family", "Z", "--which", "Z_EXP", "--beta", "inf"], "--beta"),
            (["gram", "--family", "Z", "--beta", "inf"], "--beta"),
            (["gram", "--family", "ZQ", "--c", "inf"], "--c"),
            (["gram", "--family", "MQ", "--gamma", "inf"], "--gamma"),
        ],
        ids=["eval-beta", "eval-z1-nan", "eval-z2-neg-inf", "check-beta", "genfun-beta",
             "gram-Z-beta", "gram-ZQ-c", "gram-MQ-gamma"],
    )
    def test_non_finite_values_exit_2(self, argv, option, capsys, monkeypatch):
        # an infinity or NaN is a usage error naming its option, found
        # before any table, rule or point value is computed
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((cli.quad, "gram"), (cli.bivariate, "construct"),
                             (cli.bivariate, "values"), (cli.bivariate, "sweep"),
                             (cli.bivariate, "genfun_check")):
            monkeypatch.setattr(module, name, no_work)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and option in err
        assert len(err.strip().splitlines()) == 1

    def test_parameter_edges_accepted(self, capsys):
        # H has no parameters, so its --beta is ignored; beta + gamma = -1
        # puts a removable 0/0 into the closed-form norms at alpha = 0
        for flags in (["--family", "H", "--beta", "-3"],
                      ["--family", "M", "--beta", "-0.5", "--gamma", "-0.5"],
                      ["--family", "MQ", "--beta", "-0.5", "--gamma", "-0.5",
                       "--q", "0.5"]):
            code, _, err = run(["gram", "--degree-cap", "2"] + flags, capsys)
            assert code == 0, err

    # digests of the gram rows and summary, CSV then JSON at caps 3 and 4,
    # recorded when gram stopped writing the cross-block zeros; before that,
    # the same rows with those zeros in place read Z a007f88ac2175f76,
    # H 8832f7bf85478ed4, M 0d62eb966f699d28, ZQ 990a26038e6e41a7,
    # WALL 49c5df36dfc3a8bc and MQ cc11bed6fdfd35a0.  Z, H and M were
    # re-recorded for the Christoffel weights of quad.golub_welsch (before:
    # Z d606fe6f6e109b85, H f7885ac0c4b809fd, M 74bb14fc4a835b42) and ZQ for
    # the one-product q-Laguerre norms (before: f9b339a5f6d49437); the rows
    # are the library's blocks (test_rows_are_the_same_block_pairs_of_every_pair),
    # whose oracles are tests/test_quad.py TestGolubWelsch.test_matches_40_digit_rule
    # and tests/test_radial.py TestQLaguerreNorms.  ZQ, WALL and MQ were
    # re-recorded when the q blocks became one np.dot over the kept lattice
    # points and the q-Laguerre leading coefficients np.longdouble (before:
    # ZQ 2f34b1e35cbd2fba, WALL 4b44b9a6bee82908, MQ cbd1e3af07adc693),
    # whose oracle is tests/test_quad.py TestLatticeSumAgainstScalarLoop.
    # All six were re-recorded when every block took one orthonormal scale
    # and the rows became the raw entries sqrt(zeta_i) G_ij sqrt(zeta_j) of
    # it, with np.longdouble norms (before: Z 246292fb8bd09f2a, H
    # 2f344a8bec15b35c, M 933d76eff5d23cec, ZQ e2293c2c77902efe, WALL
    # 15517e26b8cffcc0, MQ 783ddc69730451ce); their oracles are the same,
    # with tests/test_radial.py TestLatticeNorms for WALL and MQ.  M was then
    # re-recorded when radial.measure_mass formed the Jacobi mass from
    # B(f, e), f and e in (0, 1], and two running products (before:
    # 816981367d18999b), whose oracle is tests/test_radial.py
    # TestNorms.test_jacobi_mass_matches_mpmath_beta.  All six were
    # re-recorded when the rows were walked with the ratios of the leading
    # coefficients and of the orthonormal scale inside the recurrence, and
    # the Gauss weights became relative to the mass (before: Z
    # c2f4e8bacf3c683f, H a5c0c3972fc4ad4a, M efa7fcbf0db93750, ZQ
    # ecf1cc173ade846d, WALL 8a7f20f8ceaae8bb, MQ ea708f83144d0cab; every
    # orthonormal entry of the tests/test_quad.py digest groups moved by at
    # most 1.1e-16), whose oracles are tests/test_radial.py
    # TestRowsAgainstMpmath and the same tests as before.  ZQ was
    # re-recorded when the q-Laguerre lattice weights took x^(a+1) as a
    # running product (before: 3d8c0e8456994ba4), whose oracle is
    # tests/test_quad.py
    # TestLatticeSumAgainstScalarLoop.test_qlaguerre_weights_match_np_power
    GRAM_DIGESTS = {
        "Z": (["--family", "Z", "--beta", "0.5"], "82434d24f9fafda0"),
        "H": (["--family", "H"], "80e86deb53653479"),
        "M": (["--family", "M", "--beta", "0.5", "--gamma", "0.7"], "f28f9dbe204f559d"),
        "ZQ": (["--family", "ZQ", "--beta", "0.5", "--q", "0.5"], "c1cda159d80509c1"),
        "WALL": (["--family", "WALL", "--beta", "0.5", "--q", "0.5"], "59c838bc89776843"),
        "MQ": (["--family", "MQ", "--beta", "0.5", "--gamma", "0.5", "--q", "0.5"],
               "3d824b84e5224e76"),
    }

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63,
        reason="digests recorded with x87 80-bit extended np.longdouble",
    )
    @pytest.mark.parametrize("tag", sorted(GRAM_DIGESTS))
    def test_rows_unchanged(self, tag, capsys):
        flags, digest = self.GRAM_DIGESTS[tag]
        h = hashlib.sha256()
        for cap in ("3", "4"):
            for fmt in ("csv", "json"):
                code, out, _ = run(["gram", "--degree-cap", cap, "--format", fmt] + flags, capsys)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("tag", sorted(GRAM_DIGESTS))
    def test_rows_are_the_same_block_pairs_of_every_pair(self, tag, capsys):
        # the rows once written for every index pair, in the order of
        # result.entries, less the pairs across blocks (exact zeros)
        flags, _ = self.GRAM_DIGESTS[tag]
        fam = cli._family(cli.build_parser().parse_args(["gram"] + flags))
        result = quad.gram(fam, 4)
        block = {idx: b for b, (idxs, _, _) in enumerate(result.blocks) for idx in idxs}
        every = []
        for (idx1, idx2), val in result.entries.items():
            row = {"m": idx1[0], "n": idx1[1], "s": idx2[0], "t": idx2[1], "value": val}
            row["diag_ref"] = result.diag_ref[idx1] if idx1 == idx2 else ""
            every.append((block[idx1] == block[idx2], row))
        across = [row["value"] for same, row in every if not same]
        assert across and all(v == 0.0 for v in across)
        want = [{k: cli._fmt(v) for k, v in row.items()} for same, row in every if same]
        code, out, _ = run(["gram", "--degree-cap", "4", "--format", "json"] + flags, capsys)
        assert code == 0
        assert json.loads(out)["rows"] == want

    @pytest.mark.parametrize(
        "block,field,value",
        [
            ([[1.0, np.nan], [np.nan, 1.0]], "max_offdiag", "nan"),
            ([[np.nan, 0.0], [0.0, 1.0]], "max_diag_relerr", "nan"),
            ([[0.0, 1e-3], [1e-3, 1.0]], "max_diag_relerr", "1"),
        ],
        ids=["nan-offdiag", "nan-diag", "zero-scale"],
    )
    def test_broken_block_fails_exit_1(self, block, field, value, capsys, monkeypatch):
        # a NaN or a zero diagonal in an orthonormal radial block is a
        # failed Gram
        def radial_grams(fam, alphas, nmaxes, ratios, faults=None):
            return [np.array(block)[: nmax + 1, : nmax + 1] for nmax in nmaxes]

        monkeypatch.setattr(cli.quad, "radial_grams", radial_grams)
        code, out, err = run(["gram", "--family", "Z", "--degree-cap", "1",
                              "--format", "json"], capsys)
        assert code == 1, err
        summary = json.loads(out)["summary"]
        assert summary["passed"] is False
        assert summary[field] == value

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "gram.csv"
        code, out, _ = run(
            ["gram", "--family", "Z", "--beta", "0", "--degree-cap", "1",
             "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert "# passed=True" in text


class TestCheck:
    def test_derived_sweep_passes(self, capsys):
        code, out, _ = run(
            ["check", "--family", "Z", "--beta", "0.7", "--max-degree", "5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failures"] == 0
        assert all(r["verdict"] == "PASS" for r in payload["rows"])

    def test_printed_form_discrepancy_exit_0(self, capsys):
        code, out, _ = run(
            ["check", "--family", "ZQ", "--beta", "0.5", "--q", "0.5",
             "--ids", "ZQ_RR2", "--max-degree", "4", "--printed-form",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        verdicts = {r["verdict"] for r in payload["rows"]}
        assert verdicts == {"KNOWN_DISCREPANCY"}

    def test_printed_form_breakdown_reads_fail(self, capsys):
        # at q = 0.01 the printed q^(n - m - 1) of MQ_LADDER2 overflows at
        # (18, 17): a NaN printed residual is a failure, not the known typo
        code, out, _ = run(
            ["check", "--family", "MQ", "--beta", "0.5", "--gamma", "0.7", "--q", "0.01",
             "--ids", "MQ_LADDER2", "--max-degree", "18", "--printed-form",
             "--format", "json"],
            capsys,
        )
        assert code == 1
        rows = json.loads(out)["rows"]
        failed = [r for r in rows if r["verdict"] == "FAIL"]
        assert [(r["m"], r["n"], r["residual"]) for r in failed] == [(18, 17, "nan")]
        assert failed[0]["note"].startswith("printed form breaks down")
        assert {r["verdict"] for r in rows if r is not failed[0]} == {"KNOWN_DISCREPANCY"}

    def test_printed_form_writes_the_printed_scale(self, capsys):
        # each printed row carries the scale its own gate read, not the
        # derived variant's: at (18, 17) the printed side overflows to inf
        # where the derived scale is 1.01e308
        argv = ["check", "--family", "MQ", "--beta", "0.5", "--gamma", "0.7", "--q", "0.01",
                "--ids", "MQ_LADDER2", "--max-degree", "18", "--format", "json"]
        code, out, _ = run(argv + ["--printed-form"], capsys)
        assert code == 1
        printed = {(r["m"], r["n"]): r for r in json.loads(out)["rows"]}
        _, out, _ = run(argv, capsys)
        derived = {(r["m"], r["n"]): r for r in json.loads(out)["rows"]}
        assert printed[(18, 17)]["scale"] == "inf"
        assert float(derived[(18, 17)]["scale"]) == pytest.approx(1.0101112132435549e308)
        fam = bivariate.MQ(0.5, 0.7, 0.01)
        for (m, n), row in printed.items():
            rep = bivariate.check_identity(fam, "MQ_LADDER2", m, n)
            assert float(row["scale"]) == rep.printed_scale
            assert float(row["residual"]) == rep.printed_residual or row["residual"] == "nan"
            assert rep.printed_passed == bool(
                Tolerance().gate(np.array([rep.printed_residual]), np.array([rep.printed_scale]))[0])
        assert printed[(17, 16)]["scale"] != derived[(17, 16)]["scale"]

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run(
            ["check", "--family", "Z", "--ids", "NOPE"], capsys
        )
        assert code == 2
        assert "unknown identity" in err

    def test_identity_of_another_family_exit_2(self, capsys):
        code, out, err = run(
            ["check", "--family", "Z", "--ids", "ZQ_RR1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "family Z: ZQ_RR1" in err

    def test_empty_selection_exit_0(self, capsys):
        code, out, _ = run(
            ["check", "--family", "Z", "--ids", ",", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["summary"]["records"] == 0


class TestZeros:
    def test_monotone_table(self, capsys):
        code, out, _ = run(
            ["zeros", "--family", "Z", "--beta", "0.5", "--n", "2",
             "--m-min", "2", "--m-max", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["monotone"] is True
        radii = [float(r["radius_1"]) for r in payload["rows"]]
        assert radii == sorted(radii)

    # sha256 prefixes of the csv then json output less the gate's three
    # summary fields, recorded from the output of the Brent refinement that
    # the sign-change certificate replaced: every radius row kept its bits
    # (with the gate's values, the digests first read M c66897a3178d19e3
    # and Z 70d649b7317d0fc4 less the two fields that came after them)
    ZEROS_DIGESTS = {
        "M": (["--family", "M", "--beta", "0.5", "--gamma", "0.5", "--n", "3",
               "--m-min", "3", "--m-max", "30"], "f30844d61b7bc27c"),
        "Z": (["--family", "Z", "--beta", "1.5", "--n", "7",
               "--m-min", "7", "--m-max", "30"], "be1eda953577ff55"),
    }
    GATE = ("max_bisection_dev", "bisection_rel_tol", "bisection_passed")

    @classmethod
    def _without_gate(cls, fmt, out):
        """The output less the gate's three summary fields, and the fields."""
        if fmt == "csv":
            lines = out.splitlines(keepends=True)
            fields = dict(line[2:-1].split("=", 1) for line in lines if line.startswith("# "))
            gate = {k: fields[k] for k in cls.GATE}
            return "".join(line for line in lines
                           if not line.startswith(tuple(f"# {k}=" for k in cls.GATE))), gate
        payload = json.loads(out)
        gate = {k: str(payload["summary"].pop(k)) for k in cls.GATE}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", gate

    @pytest.mark.parametrize("tag", sorted(ZEROS_DIGESTS))
    def test_rows_unchanged(self, tag, capsys):
        flags, digest = self.ZEROS_DIGESTS[tag]
        h = hashlib.sha256()
        gates = []
        for fmt in ("csv", "json"):
            code, out, _ = run(["zeros", "--format", fmt] + flags, capsys)
            assert code == 0
            text, gate = self._without_gate(fmt, out)
            h.update(text.encode())
            gates.append(gate)
        assert h.hexdigest()[:16] == digest
        rows = json.loads(out)["rows"]
        largest = max(float(v) for row in rows for k, v in row.items() if k.startswith("radius_"))
        for gate in gates:
            assert gate["bisection_passed"] == "True"
            assert float(gate["bisection_rel_tol"]) == cli.ZERO_DEV_REL_TOL
            # the certified half-width: finite and within the gate
            assert 0.0 < float(gate["max_bisection_dev"]) <= cli.ZERO_DEV_REL_TOL * largest ** 2

    def test_bisection_deviation_fails(self, capsys, monkeypatch):
        # eigensolver zeros moved by +50 hold no zero in their intervals,
        # which certify nothing: the deviation reads inf and the command
        # exits 1 even though the moved radii are still monotone
        true_zeros = radial.radial_zeros
        monkeypatch.setattr(radial, "radial_zeros", lambda *a: true_zeros(*a) + 50.0)
        code, out, _ = run(
            ["zeros", "--family", "Z", "--beta", "0.5", "--n", "3",
             "--m-min", "4", "--m-max", "6", "--format", "json"],
            capsys,
        )
        assert code == 1
        summary = json.loads(out)["summary"]
        assert summary["monotone"] is True
        assert summary["bisection_passed"] is False
        assert float(summary["max_bisection_dev"]) == np.inf

    def test_walk_breakdown_fails_the_check(self, capsys, monkeypatch):
        # a NaN value of p_n certifies nothing: exit 1 with the table
        # written, not a "numerical breakdown"
        true_walk = radial.monic_values

        def nan_walk(*args):
            rows = true_walk(*args)
            rows[-1] = np.nan
            return rows

        monkeypatch.setattr(radial, "monic_values", nan_walk)
        code, out, err = run(
            ["zeros", "--family", "Z", "--beta", "0.5", "--n", "3",
             "--m-min", "3", "--m-max", "5", "--format", "json"],
            capsys,
        )
        assert code == 1 and err == ""
        summary = json.loads(out)["summary"]
        assert summary["monotone"] is True
        assert summary["bisection_passed"] is False
        assert float(summary["max_bisection_dev"]) == np.inf

    def test_bisection_gate_is_relative_to_the_largest_zero(self, capsys, monkeypatch):
        # a deviation just inside the tolerance of the largest zero passes,
        # one just outside fails
        base = quad.zero_circle_monotonicity

        def with_dev(dev_rel):
            def patched(rad, n, m_range):
                monotone, table, _ = base(rad, n, m_range)
                largest = max(float(r[-1]) ** 2 for _, r in table)
                return monotone, table, dev_rel * largest
            return patched

        argv = ["zeros", "--family", "M", "--beta", "0.5", "--gamma", "0.5", "--n", "2",
                "--m-min", "2", "--m-max", "5"]
        monkeypatch.setattr(quad, "zero_circle_monotonicity", with_dev(0.5 * cli.ZERO_DEV_REL_TOL))
        assert run(argv, capsys)[0] == 0
        monkeypatch.setattr(quad, "zero_circle_monotonicity", with_dev(2.0 * cli.ZERO_DEV_REL_TOL))
        assert run(argv, capsys)[0] == 1

    def test_q_family_rejected(self, capsys):
        code, _, err = run(
            ["zeros", "--family", "WALL", "--n", "1", "--m-min", "1",
             "--m-max", "2"],
            capsys,
        )
        assert code == 2

    def test_empty_m_range_exit_2(self, capsys):
        # no m in range would report a vacuous monotone=True
        code, out, err = run(
            ["zeros", "--family", "Z", "--n", "2", "--m-min", "3", "--m-max", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "nonempty range of m" in err


class TestGenfun:
    @pytest.mark.parametrize("which", ["Z_PLAIN", "Z_EXP", "M_PLAIN", "M_EXP", "M_DOUBLE"])
    def test_closed_form_past_the_float_range_fails_quietly(self, which, capsys):
        # at beta = 1e6 the closed form leaves the float range: the check
        # fails on the non-finite residual, exit 1, with no warning and no
        # "numerical breakdown"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(["genfun", "--family", which[0], "--beta", "1e6", "--gamma", "0.5",
                                  "--which", which, "--format", "json"], capsys)
        assert code == 1 and err == ""
        assert json.loads(out)["summary"]["passed"] is False

    def test_pass(self, capsys):
        code, out, _ = run(
            ["genfun", "--family", "Z", "--beta", "0.5", "--which", "Z_EXP",
             "--tol-abs", "1e-8", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["summary"]["passed"] is True

    def test_deterministic_for_fixed_seed(self, capsys):
        args = ["genfun", "--family", "M", "--beta", "0.5", "--gamma", "0.7",
                "--which", "M_PLAIN", "--seed", "42"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_form_of_another_family_exit_2(self, capsys):
        code, out, err = run(
            ["genfun", "--family", "M", "--which", "Z_EXP"], capsys
        )
        assert code == 2
        assert out == ""
        assert "'Z_EXP' for family M" in err

    def test_seed_changes_points(self, capsys):
        base = ["genfun", "--family", "Z", "--beta", "0", "--which", "Z_EXP"]
        _, out1, _ = run(base + ["--seed", "1"], capsys)
        _, out2, _ = run(base + ["--seed", "2"], capsys)
        assert out1 != out2

    @pytest.mark.parametrize("which,flags", [("Z_EXP", ["--family", "Z", "--beta", "0.5"]),
                                             ("M_EXP", ["--family", "M", "--beta", "0.5",
                                                        "--gamma", "0.7"])])
    def test_terms_past_the_float_factorials(self, which, flags, capsys):
        # 1 / a! is 0 in the float weights past a = 170: no breakdown
        code, out, err = run(["genfun", "--which", which, "--nterms", "200", "--format", "json"]
                             + flags, capsys)
        assert code == 0, err
        assert err == ""
        assert json.loads(out)["summary"]["passed"] is True

    # sha256 prefixes of the genfun output, CSV then JSON at seeds 1 and 2
    # with 25 points; recorded while the series was summed one harmonic
    # index at a time, so they pin the one-pass sum to its bits
    GENFUN_DIGESTS = {
        "Z_EXP": (["--family", "Z", "--beta", "0.5"], "2fe0ca12df43053c"),
        "Z_PLAIN": (["--family", "Z", "--beta", "0.5"], "15be9791c43b7c4b"),
        "M_EXP": (["--family", "M", "--beta", "0.5", "--gamma", "0.7"], "29c8d32f89417135"),
        "M_PLAIN": (["--family", "M", "--beta", "0.5", "--gamma", "0.7"], "df082f06f52ee922"),
        "M_DOUBLE": (["--family", "M", "--beta", "0.5", "--gamma", "0.7"], "726841fd14cba750"),
    }

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant != 63,
        reason="digests recorded with x87 80-bit extended np.longdouble",
    )
    @pytest.mark.parametrize("which", sorted(GENFUN_DIGESTS))
    def test_rows_unchanged(self, which, capsys):
        flags, digest = self.GENFUN_DIGESTS[which]
        h = hashlib.sha256()
        for seed in ("1", "2"):
            for fmt in ("csv", "json"):
                code, out, _ = run(["genfun", "--which", which, "--npoints", "25", "--seed", seed,
                                    "--format", fmt] + flags, capsys)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gram", "--family", "Z", "--degree-cap", "-1"], "degree_cap must be nonnegative, got -1"),
        (["check", "--family", "Z", "--max-degree", "-1"], "max_mn must be nonnegative, got -1"),
        (["genfun", "--family", "Z", "--which", "Z_EXP", "--npoints", "-1"],
         "--npoints must be positive, got -1"),
        (["genfun", "--family", "Z", "--which", "Z_EXP", "--npoints", "0"],
         "--npoints must be positive, got 0"),
        (["zeros", "--family", "Z", "--n", "-1", "--m-min", "0", "--m-max", "2"],
         "n must be positive, got -1"),
        (["zeros", "--family", "Z", "--n", "0", "--m-min", "0", "--m-max", "2"],
         "n must be positive, got 0"),
    ],
    ids=["gram-degree-cap", "check-max-degree", "genfun-npoints", "genfun-npoints-zero",
         "zeros-n", "zeros-n-zero"],
)
def test_negative_cap_or_count_exit_2(argv, message, capsys):
    # an empty range of degrees or points would pass vacuously
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


class TestJsonText:
    # the rows and summary of every command are flat dicts of scalars,
    # floats already written as strings
    ROWS = {
        "none": [],
        "one": [{"z1": "0.5", "z2": "-0.25", "value": "1.5"}],
        "empty-row": [{}],
        "escapes": [{"note": 'a "quoted" \\ back\nslash', "identity": "β-Ω ✓", "m": 3},
                    {"note": "", "identity": "Z_EXP", "m": -1}],
        "scalars": [{"none": None, "true": True, "false": False, "int": 12, "nan": "nan",
                     "inf": "inf", "neg": "-inf"}],
    }

    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("summary", [{}, {"family": "Z", "passed": False, "records": 0,
                                              "max_residual": "nan", "note": "é\t\"x\""}],
                             ids=["no-summary", "summary"])
    def test_equals_indented_dumps(self, rows, summary):
        payload = {"schema": 1, "command": "check", "rows": self.ROWS[rows], "summary": summary}
        assert cli._json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestParser:
    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            (["eval", "--family", "M", "--m", "4", "--n", "0", "--z1", "0.5",
              "--z2", "-9e-05"], "z2", [-9e-05]),
            (["eval", "--family", "Z", "--beta", "-5e-01", "--m", "2", "--n", "1",
              "--z1", "-2.5E+00", "--z2", "0.3"], "beta", -0.5),
            (["gram", "--family", "Z", "--beta", "-.25", "--degree-cap", "1"], "beta", -0.25),
        ],
        ids=["z2-exponent", "beta-exponent", "beta-leading-dot"],
    )
    def test_negative_values_in_exponent_notation(self, argv, dest, value, capsys):
        assert getattr(cli.build_parser().parse_args(argv), dest) == value
        code, _, err = run(argv, capsys)
        assert code == 0, err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_keep_no_points(self, capsys):
        # the parser is shared, but each call sees only its own --z1/--z2
        base = ["eval", "--family", "Z", "--m", "2", "--n", "1", "--format", "json"]
        for points in (["0.25", "0.5"], ["0.75"]):
            argv = base + [flag for z in points for flag in ("--z1", z, "--z2", z)]
            code, out, err = run(argv, capsys)
            assert code == 0, err
            rows = json.loads(out)["rows"]
            assert [float(r["z1"]) for r in rows] == [float(z) for z in points]
        code, out, _ = run(base, capsys)
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_call_after_a_usage_error_works(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--family", "Z", "--m", "2", "--z1", "0.5"])
        assert exc.value.code == 2
        code, out, err = run(["eval", "--family", "Z", "--m", "2", "--n", "1",
                              "--z1", "0.25", "--z2", "0.5", "--format", "json"], capsys)
        assert code == 0, err
        assert [r["z1"] for r in json.loads(out)["rows"]] == ["0.25"]

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gram", "--family", "Z", "--no-such-flag"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "--family", "Z", "--seed", "1"],
            ["eval", "--family", "Z", "--m", "0", "--n", "0", "--tol-abs", "1e-8"],
            ["zeros", "--family", "Z", "--n", "1", "--m-min", "1", "--m-max", "2",
             "--tol-rel", "1e-8"],
            ["genfun", "--family", "Z", "--which", "Z_EXP", "--tol-rel", "1e-8"],
            ["check", "--family", "Z", "--seed", "1"],
        ],
        ids=["gram-seed", "eval-tol-abs", "zeros-tol-rel", "genfun-tol-rel", "check-seed"],
    )
    def test_flag_outside_its_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_check_reads_tolerances(self, capsys):
        code, _, _ = run(
            ["check", "--family", "Z", "--ids", "Z_ODE", "--max-degree", "2",
             "--tol-abs", "1e-10", "--tol-rel", "1e-9"],
            capsys,
        )
        assert code == 0

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()


class TestRuntimeDependencies:
    def test_no_scipy_module_loaded(self):
        # the library's runtime is numpy alone: importing the CLI and the
        # Askey-Wilson module, and running a Gauss Gram, a zero table and a
        # theta-rule Gram, loads no scipy module
        code = (
            "import sys\n"
            "import bivarortho.cli, bivarortho.awbiortho as aw\n"
            "assert bivarortho.cli.main(['gram', '--family', 'Z', '--degree-cap', '4']) == 0\n"
            "assert bivarortho.cli.main(['zeros', '--family', 'Z', '--n', '3',\n"
            "                            '--m-min', '3', '--m-max', '6']) == 0\n"
            "assert aw.aw_gram_1d(aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.5), 3).passed\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),\n"
            "      file=sys.stderr)\n"
        )
        root = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=root)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stderr.strip() == "[]"

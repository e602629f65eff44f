"""Command-line front end: evaluation, Gram verification, identity
sweeps, zero-circle tables, and generating-function checks with
machine-readable CSV/JSON output.

Exit codes: 0 = all checks pass (known discrepancies excluded),
1 = check failure or numerical breakdown, 2 = usage or parameter error.
"""

import argparse
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import bivariate, quad
from .polycore import Tolerance

_FMT = "{:.17g}"  # 17 significant digits for byte-stable reproducibility

# `zeros` fails when an eigensolver zero is off its bisection refinement by
# more than this, relative to the largest zero of the range; the worst seen
# over Laguerre beta in {-0.5, 0, 0.5, 1.5, 3.1} and Jacobi (beta, gamma) in
# {-0.5, 0.5, 2}^2, n <= 15, m <= n + 30 is 2.6e-14.  An unbracketed zero
# deviates without bound and always fails.
ZERO_DEV_REL_TOL = 1e-9


def _clean(value):
    """Normalize numpy scalars to plain Python types for serialization."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _fmt(value):
    value = _clean(value)
    if isinstance(value, float):
        return _FMT.format(value)
    return value


def _family(args):
    tag = args.family.upper()
    if tag not in bivariate.FAMILIES:
        raise ValueError(f"unknown family {args.family!r}")
    fam = bivariate.FamilyId(tag, **{name: getattr(args, name)
                                     for name in bivariate.FAMILIES[tag][1]})
    bivariate.check_params(fam, "--")
    return fam


# json.dumps falls back on its pure-Python encoder when given an indent;
# these C encoders write the newline and indent of an indent=2 layout as
# their item separator, for a flat dict at the depth of a row and of a
# top-level field
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_FIELD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))


def _json_object(encoder, obj, indent):
    text = encoder.encode(obj)
    return text if text == "{}" else f"{{\n{indent}  {text[1:-1]}\n{indent}}}"


def _json_text(payload):
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte,
    for a payload whose fields are scalars, flat dicts of scalars and lists
    of flat dicts, as those of _emit are."""
    fields = []
    for key, value in sorted(payload.items()):
        if isinstance(value, list):
            items = ",\n    ".join(_json_object(_ROW_ENCODER, row, "    ") for row in value)
            text = f"[\n    {items}\n  ]" if value else "[]"
        elif isinstance(value, dict):
            text = _json_object(_FIELD_ENCODER, value, "  ")
        else:
            text = _FIELD_ENCODER.encode(value)
        fields.append(f"  {_FIELD_ENCODER.encode(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _emit(args, command, rows, summary):
    """Serialize rows + summary to CSV or JSON, to --out or stdout."""
    if args.format == "json":
        payload = {
            "schema": 1,
            "command": command,
            "rows": [{k: _fmt(v) for k, v in r.items()} for r in rows],
            "summary": {k: _fmt(v) for k, v in summary.items()},
        }
        text = _json_text(payload)
    else:
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _fmt(v) for k, v in r.items()})
        for k, v in summary.items():
            buf.write(f"# {k}={_fmt(v)}\n")
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args):
    fam = _family(args)
    for name, points in (("--z1", args.z1), ("--z2", args.z2)):
        for value in points:
            if not math.isfinite(value):
                raise ValueError(f"{name} needs finite values, got {value}")
    if len(args.z1) != len(args.z2):
        raise ValueError("need matching counts of --z1 and --z2")
    vals = bivariate.values(fam, args.m, args.n, args.z1, args.z2)
    if not np.all(np.isfinite(vals)):
        raise OverflowError(f"{fam.tag} value at (m, n) = ({args.m}, {args.n}) is not finite")
    rows = [
        {"z1": z1, "z2": z2, "value": float(val)}
        for z1, z2, val in zip(args.z1, args.z2, vals)
    ]
    if args.coeffs:
        table = bivariate.construct(fam, args.m, args.n)
        for (j, k), value in sorted(table.terms.items()):
            rows.append({"z1": f"coeff[{j},{k}]", "z2": "", "value": value})
    _emit(args, "eval", rows, {"family": fam.tag, "m": args.m, "n": args.n})
    return 0


def cmd_gram(args):
    fam = _family(args)
    result = quad.gram(
        fam,
        args.degree_cap,
        offdiag_tol=args.tol_offdiag,
        diag_rel_tol=args.tol_diag,
    )
    # pairs across blocks are exact zeros by construction and are left out;
    # the rest are the raw entries of result.entries, in its order, row
    # index first
    pairs = sorted(
        (idx1, idx2, raw[p1, p2])
        for idxs, g, zeta in result.blocks
        for raw in [quad.raw_entries(g, zeta)]
        for p1, idx1 in enumerate(idxs)
        for p2, idx2 in enumerate(idxs)
    )
    rows = [
        {
            "m": idx1[0],
            "n": idx1[1],
            "s": idx2[0],
            "t": idx2[1],
            "value": float(val),
            "diag_ref": result.diag_ref[idx1] if idx1 == idx2 else "",
        }
        for idx1, idx2, val in pairs
    ]
    summary = {
        "family": fam.tag,
        "max_offdiag": result.max_offdiag,
        "max_diag_relerr": result.max_diag_relerr,
        "passed": result.passed,
    }
    _emit(args, "gram", rows, summary)
    return 0 if result.passed else 1


def cmd_check(args):
    fam = _family(args)
    names = None if args.ids == "all" else [s.strip() for s in args.ids.split(",") if s.strip()]
    tol = Tolerance(abs_tol=args.tol_abs, rel_tol=args.tol_rel)
    reports = bivariate.sweep(fam, names, args.max_degree, tol=tol)
    rows = []
    failures = 0
    for rep in reports:
        if args.printed_form:
            if rep.printed_passed is None:
                continue  # no separate printed variant for this identity
            if rep.printed_passed:
                verdict = "PASS"
            elif rep.known_discrepancy:
                verdict = "KNOWN_DISCREPANCY"
            else:
                verdict = "FAIL"
                failures += 1
            residual, scale = rep.printed_residual, rep.printed_scale
        else:
            verdict = "PASS" if rep.passed else "FAIL"
            if not rep.passed:
                failures += 1
            residual, scale = rep.residual, rep.scale
        rows.append(
            {
                "identity": rep.identity,
                "m": rep.m,
                "n": rep.n,
                "residual": residual,
                "scale": scale,
                "verdict": verdict,
                "note": rep.note,
            }
        )
    summary = {
        "family": fam.tag,
        "records": len(rows),
        "failures": failures,
        "passed": failures == 0,
    }
    _emit(args, "check", rows, summary)
    return 0 if failures == 0 else 1


def cmd_zeros(args):
    fam = _family(args)
    rad = bivariate.radial_of(fam)
    if rad.is_q():
        raise ValueError("zero-circle tables are for the continuous families")
    m_range = range(args.m_min, args.m_max + 1)
    monotone, radii_table, max_dev = quad.zero_circle_monotonicity(
        rad, args.n, m_range
    )
    rows = []
    for m, radii in radii_table:
        row = {"m": m}
        for i, r in enumerate(radii):
            row[f"radius_{i + 1}"] = float(r)
        row["monotone"] = monotone
        rows.append(row)
    largest = max((float(r[-1]) ** 2 for _, r in radii_table if len(r)), default=0.0)
    # written so that a NaN or infinite deviation fails
    bisection_passed = max_dev <= ZERO_DEV_REL_TOL * largest
    summary = {
        "family": fam.tag,
        "n": args.n,
        "monotone": monotone,
        "max_bisection_dev": max_dev,
        "bisection_rel_tol": ZERO_DEV_REL_TOL,
        "bisection_passed": bisection_passed,
    }
    _emit(args, "zeros", rows, summary)
    return 0 if monotone and bisection_passed else 1


def cmd_genfun(args):
    fam = _family(args)
    if args.npoints < 1:
        # a check of no points would pass vacuously
        raise ValueError(f"--npoints must be positive, got {args.npoints}")
    rng = np.random.default_rng(args.seed)
    draws = [
        (*rng.uniform(-0.15, 0.15, 2), *rng.uniform(-1.0, 1.0, 2))
        for _ in range(args.npoints)
    ]
    u, v, z1, z2 = np.array(draws, dtype=float).reshape(-1, 4).T
    residual, tail = bivariate.genfun_check(
        fam, args.which, u, v, z1, z2, N=args.nterms
    )
    rows = [
        {
            "u": float(u[i]),
            "v": float(v[i]),
            "z1": float(z1[i]),
            "z2": float(z2[i]),
            "residual": float(residual[i]),
            "tail": float(tail[i]),
        }
        for i in range(args.npoints)
    ]
    # a NaN residual propagates and fails the check
    worst = float(np.max(residual, initial=0.0))
    passed = worst <= args.tol_abs
    summary = {
        "family": fam.tag,
        "which": args.which,
        "max_residual": worst,
        "passed": passed,
    }
    _emit(args, "genfun", rows, summary)
    return 0 if passed else 1


_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose option values may be negative numbers in
    exponent notation: argparse's own negative-number test knows no
    exponent, so it reads ``--z2 -9e-05`` as two options.  No option of
    this CLI looks like a number, so every such token is a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves no state
    in it (argparse copies the ``append`` defaults before appending)."""
    parser = _Parser(
        prog="bivarortho",
        description="Construct, evaluate and verify bivariate orthogonal "
        "polynomial families.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True)
        p.add_argument("--beta", type=float, default=0.0)
        p.add_argument("--gamma", type=float, default=0.0)
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--c", type=float, default=1.0)

    p = sub.add_parser("eval", parents=[common], help="evaluate one member at sample points")
    add_family(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z1", type=float, action="append", default=[])
    p.add_argument("--z2", type=float, action="append", default=[])
    p.add_argument("--coeffs", action="store_true", help="also emit the table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gram", parents=[common], help="Gram matrix against the closed-form norms")
    add_family(p)
    p.add_argument("--degree-cap", type=int, default=3)
    p.add_argument("--tol-offdiag", type=float, default=1e-9)
    p.add_argument("--tol-diag", type=float, default=1e-8)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("check", parents=[common], help="identity sweep")
    add_family(p)
    p.add_argument("--ids", default="all", help="comma list or 'all'")
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--tol-abs", type=float, default=1e-10)
    p.add_argument("--tol-rel", type=float, default=1e-9)
    p.add_argument(
        "--printed-form",
        action="store_true",
        help="report on the published variants; expected failures become "
        "KNOWN_DISCREPANCY",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zeros", parents=[common], help="zero-circle radii across m")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-min", type=int, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("genfun", parents=[common], help="generating-function residuals")
    add_family(p)
    p.add_argument("--which", required=True, choices=bivariate.GENFUNS)
    p.add_argument("--npoints", type=int, default=10)
    p.add_argument("--nterms", type=int, default=30)
    p.add_argument("--tol-abs", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_genfun)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, bivariate.IdentityRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

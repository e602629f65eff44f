"""The four benchmark workloads and the correctness oracle of every op.

Each workload is a fixed list of ``Op``.  ``Op.run`` calls the public API
of bivarortho and is the only timed part; ``Op.check`` judges the result
against an oracle and is not timed.  A plain op's check returns "" when
the result is correct and otherwise says what is wrong.  A probe op
belongs to a frontier ladder: its check returns ``{rung: problem}``, and
probes never count towards the failed-op share, so the work of a pass stays
the same whatever passes.

identity_sweep and gram_frontier run the acceptance criteria's fixed grids;
aw_tensor and cli_mix draw their parameters from the seed.  A seeded draw
that fails is recorded as a failed op, never redrawn.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import special

from bivarortho import awbiortho as aw
from bivarortho import bivariate as bv
from bivarortho import cli, quad
from bivarortho.polycore import Tolerance

# oracle reference, bound before any tracing so oracle calls are not counted
_aw_norm = aw.aw_norm


@dataclass
class Op:
    name: str
    run: object
    check: object
    ladder: str = None  # frontier ladder of a probe op, None for a plain op
    rung: int = None  # the rung a single-rung probe tests


def _late(module, name, *args, **kwargs):
    """Call ``module.name`` as looked up at call time, so a traced pass
    reaches the wrapper installed after the op list was built."""
    return getattr(module, name)(*args, **kwargs)


def frontier(rungs):
    """Largest rung such that it and every lower rung passed; 0 if none.

    ``rungs`` maps rung -> problem ("" for a pass)."""
    best = 0
    for rung in sorted(rungs):
        if rungs[rung]:
            break
        best = rung
    return best


def _label(fam):
    params = {"Z": "beta", "H": "", "M": "beta,gamma", "ZQ": "beta,q",
              "WALL": "beta,q", "MQ": "beta,gamma,q"}[fam.tag]
    vals = ",".join(f"{getattr(fam, p):g}" for p in params.split(",") if p)
    return f"{fam.tag}({vals})"


# ---------------------------------------------------------------------------
# identity_sweep: criterion 3 grid plus deep probes at m, n <= 14
# ---------------------------------------------------------------------------

SWEEP_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
DEEP_MN = 14


def criterion3_families():
    params = (-0.5, 0.0, 0.7, 2.0)
    qs = (0.3, 0.5, 0.8)
    fams = [bv.Z(b) for b in params] + [bv.H()]
    fams += [bv.M(b, g) for b in params for g in params]
    fams += [bv.ZQ(b, q) for b in params for q in qs]
    fams += [bv.WALL(b, q) for b in params for q in qs]
    fams += [bv.MQ(b, g, q) for b in params for g in params for q in qs]
    return fams


def deep_probe_families():
    fams = [bv.Z(0.7), bv.H(), bv.M(0.7, 0.7)]
    for q in (0.3, 0.5):
        fams += [bv.ZQ(0.7, q), bv.WALL(0.7, q), bv.MQ(0.7, 0.7, q)]
    return fams


class _CatalogTally:
    """Printed-variant failures seen over the whole grid; the last sweep's
    check also verifies the catalog-level conditions of criterion 3."""

    def __init__(self, n_sweeps):
        self.left = n_sweeps
        self.reports = 0
        self.printed_failures = set()

    def check(self, reports):
        problems = []
        for rep in reports:
            if not rep.passed:
                problems.append(
                    f"{rep.identity}({rep.m},{rep.n}) residual {rep.residual:.3e}"
                    f" scale {rep.scale:.3e}"
                )
            if rep.printed_passed is False:
                self.printed_failures.add(rep.identity)
                if not rep.known_discrepancy or rep.identity not in bv.KNOWN_DISCREPANCIES:
                    problems.append(f"printed {rep.identity}({rep.m},{rep.n}) fails unflagged")
        self.reports += len(reports)
        self.left -= 1
        if self.left == 0:
            missing = {"ZQ_RR2", "M_PDE2"} - self.printed_failures
            if missing:
                problems.append(f"expected discrepancies missing: {sorted(missing)}")
            if self.reports <= 40000:
                problems.append(f"only {self.reports} verdicts in the grid")
        return "; ".join(problems[:3])


def _deep_probe(fam):
    """Every catalog identity at every m, n <= DEEP_MN; rung K holds the
    verdicts with max(m, n) == K."""
    rungs = {k: "" for k in range(DEEP_MN + 1)}
    for name in bv.identity_ids_for(fam):
        for m in range(DEEP_MN + 1):
            for n in range(DEEP_MN + 1):
                try:
                    rep = bv.check_identity(fam, name, m, n, SWEEP_TOL)
                except bv.IdentityRangeError:
                    continue
                except Exception as exc:  # a probe records every failure mode
                    problem = f"{name}({m},{n}) {type(exc).__name__}: {exc}"
                else:
                    if rep.passed:
                        continue
                    problem = f"{name}({m},{n}) residual {rep.residual:.3e} scale {rep.scale:.3e}"
                k = max(m, n)
                rungs[k] = rungs[k] or problem
    return rungs


def identity_sweep(rng):
    fams = criterion3_families()
    tally = _CatalogTally(len(fams))
    ops = [
        Op(f"sweep {_label(f)}", partial(_late, bv, "sweep", f, None, 6, SWEEP_TOL), tally.check)
        for f in fams
    ]
    ops += [
        Op(f"deep {_label(f)}", partial(_deep_probe, f), lambda rungs: rungs,
           ladder=f"sweep_mn.{_label(f)}")
        for f in deep_probe_families()
    ]
    return ops


# ---------------------------------------------------------------------------
# gram_frontier: criteria 1-2 grids at cap 4 plus a cap ladder per family
# ---------------------------------------------------------------------------

# caps 14 and 16 would take two thirds of a pass; 15 is the cap the Gram
# engine is meant to reach for every family
GRAM_LADDER = (2, 4, 6, 8, 10, 12, 15)


def _closed_form_diag(fam, m, n):
    """Closed-form squared norm of f_{m,n} of a continuous family, written
    from the textbook Laguerre and Jacobi norms."""
    k, a = min(m, n), abs(m - n)
    if fam.tag == "Z":
        return math.pi * math.gamma(fam.beta + k + a + 1) / math.factorial(k)
    if fam.tag == "H":
        return math.pi * math.factorial(k + a) * math.factorial(k)
    if fam.tag == "M":
        ag, b = a + fam.gamma, fam.beta
        return (
            math.gamma(k + ag + 1) * math.gamma(k + b + 1)
            / ((2 * k + ag + b + 1) * math.factorial(k) * math.gamma(k + ag + b + 1))
        )
    raise ValueError(f"no closed form for {fam.tag}")


def _check_diagonal(res, tol, diagonal):
    """Problems with a GramResult: not passed, or a diagonal entry off its
    oracle by more than ``tol``.  ``diagonal`` yields (index, value, oracle)."""
    problems = []
    if not res.passed:
        problems.append(
            f"max_offdiag {res.max_offdiag:.3e}, max_diag_relerr {res.max_diag_relerr:.3e}"
        )
    for idx, value, ref in diagonal:
        err = abs(value - ref) / abs(ref)
        if not err <= tol:
            problems.append(f"diagonal {idx} off the oracle by {err:.3e}")
            break
    return "; ".join(problems)


def _check_gram(fam, diag_rel_tol, res):
    diagonal = () if fam.tag not in CONTINUOUS else (
        (i, res.entries[(i, i)], _closed_form_diag(fam, *i)) for i in res.indices)
    return _check_diagonal(res, diag_rel_tol, diagonal)


def _gram_op(fam, cap, offdiag_tol, diag_rel_tol, ladder=None):
    run = partial(_late, quad, "gram", fam, cap, offdiag_tol=offdiag_tol, diag_rel_tol=diag_rel_tol)
    check = partial(_check_gram, fam, diag_rel_tol)
    if ladder is None:
        return Op(f"gram {_label(fam)} cap {cap}", run, check)
    return Op(f"gram {_label(fam)} cap {cap}", run, lambda res: {cap: check(res)},
              ladder=ladder, rung=cap)


def gram_frontier(rng):
    ops = [_gram_op(bv.Z(b), 4, 1e-9, 1e-8) for b in (0.0, 0.5, 2.0)]
    ops += [_gram_op(bv.M(b, g), 4, 1e-9, 1e-8) for b, g in ((0.0, 0.0), (0.5, 2.0), (2.0, 0.5))]
    for q in (0.3, 0.5, 0.8):
        for fam in (bv.ZQ(0.5, q), bv.WALL(0.5, q), bv.MQ(0.5, 0.5, q)):
            ops.append(_gram_op(fam, 4, 1e-9, 1e-7))
    ladder_fams = (bv.Z(0.5), bv.H(), bv.M(0.5, 0.5), bv.ZQ(0.5, 0.5),
                   bv.WALL(0.5, 0.5), bv.MQ(0.5, 0.5, 0.5))
    for fam in ladder_fams:
        for cap in GRAM_LADDER:
            ops.append(_gram_op(fam, cap, 1e-9, 1e-8, ladder=f"gram_cap.{fam.tag}"))
    return ops


# ---------------------------------------------------------------------------
# aw_tensor: criterion 8 plus seeded blocks and a 1D cap ladder
# ---------------------------------------------------------------------------

AW_P1 = aw.AWParams(0.2, -0.3, 0.1, 0.4, 0.5)
AW_P2 = aw.AWParams(0.3, -0.2, 0.15, 0.25, 0.5)
AW_SEEDED_PAIRS = 7
AW_LADDER = tuple(range(1, 9))


def _draw_aw_pair(rng, k):
    """Two blocks sharing q.  The infinite q-products, and so the work, grow
    with q and shrink with |a|, ..., |d|: pair k takes the k-th of evenly
    spaced q in (0.3, 0.7), and magnitudes come from [0.2, 0.4] with random
    signs, so the work of a pass hardly depends on the seed."""
    q = 0.3 + 0.4 * (k + 0.5) / AW_SEEDED_PAIRS

    def block():
        vals = rng.uniform(0.2, 0.4, 4) * rng.choice((-1.0, 1.0), 4)
        return aw.AWParams(*(float(v) for v in vals), q)

    return block(), block()


def _check_aw_1d(p, diag_rel_tol, res):
    diagonal = ((m, res.entries[(m, m)], _aw_norm(p, m)) for m in res.indices)
    return _check_diagonal(res, diag_rel_tol, diagonal)


def _tensor_x_params(tp, mode, k):
    if mode == "pq":
        return tp.block1.with_params(c=tp.shifted_c1(k), d=tp.shifted_d1(k))
    return tp.block1.with_params(d=tp.shifted_d1(k))


def _check_tensor(tp, mode, diag_rel_tol, res):
    diagonal = (
        ((j, k), res.entries[((j, k), (j, k))],
         _aw_norm(_tensor_x_params(tp, mode, k), j) * _aw_norm(tp.block2, k))
        for (j, k) in res.indices
    )
    return _check_diagonal(res, diag_rel_tol, diagonal)


def _aw_label(p):
    return f"({p.a:.3f},{p.b:.3f},{p.c:.3f},{p.d:.3f};q={p.q:.3f})"


def aw_tensor(rng):
    pairs = [(AW_P1, AW_P2)] + [_draw_aw_pair(rng, k) for k in range(AW_SEEDED_PAIRS)]
    ops = []
    for p1, p2 in pairs:
        ops.append(Op(
            f"aw_gram_1d {_aw_label(p1)} cap 3",
            partial(_late, aw, "aw_gram_1d", p1, 3, diag_rel_tol=1e-6, offdiag_tol=1e-6),
            partial(_check_aw_1d, p1, 1e-6),
        ))
        tp = aw.TensorParams(p1, p2)
        for mode in ("self", "uv", "pq"):
            ops.append(Op(
                f"tensor {mode} {_aw_label(p1)}x{_aw_label(p2)} cap 2",
                partial(_late, aw, "tensor_biortho_check", tp, 2, mode=mode,
                        diag_rel_tol=1e-5, offdiag_tol=1e-6),
                partial(_check_tensor, tp, mode, 1e-5),
            ))
    check = partial(_check_aw_1d, AW_P1, 1e-6)
    for cap in AW_LADDER:
        ops.append(Op(
            f"aw_gram_1d p1 cap {cap}",
            partial(_late, aw, "aw_gram_1d", AW_P1, cap, diag_rel_tol=1e-6, offdiag_tol=1e-6),
            lambda res, cap=cap: {cap: check(res)},
            ladder="aw_cap", rung=cap,
        ))
    return ops


# ---------------------------------------------------------------------------
# cli_mix: the five subcommands in-process, one-shot parameters
# ---------------------------------------------------------------------------

CLI_ROUNDS = 12
FAMILIES = ("Z", "H", "M", "ZQ", "WALL", "MQ")
CONTINUOUS = ("Z", "H", "M")
EVAL_TOL = 1e-12  # scipy agreement of in-range eval values, relative to max(1, |ref|)
LADDER_TOL = 1e-9  # eval ladder: the identity sweep's relative tolerance
EVAL_POINTS = ((0.9, 0.8), (0.5, -0.7), (1.3, 1.1), (0.2, 0.3))
EVAL_LADDERS = (("Z", tuple(range(5, 41, 5))), ("H", tuple(range(5, 41, 5))),
                ("M", tuple(range(2, 25, 2))))


def eval_reference(tag, beta, gamma, m, n, z1, z2):
    """f_{m,n}(z1, z2) from scipy.special: with k = min(m, n), a = |m - n|,
    Z = z1^a L_k^(a+beta)(z1 z2), H = (-1)^k k! z1^a L_k^(a)(z1 z2),
    M = z1^a P_k^(a+gamma, beta)(1 - 2 z1 z2); z1, z2 swap when m < n."""
    if m < n:
        m, n, z1, z2 = n, m, z2, z1
    k, a, x = n, m - n, z1 * z2
    if tag == "Z":
        return z1 ** a * special.eval_genlaguerre(k, a + beta, x)
    if tag == "H":
        return (-1) ** k * math.factorial(k) * z1 ** a * special.eval_genlaguerre(k, a, x)
    return z1 ** a * special.eval_jacobi(k, a + gamma, beta, 1.0 - 2.0 * x)


def read_cli_output(path, fmt):
    """(rows, summary) of a csv or json file written by the CLI, as strings."""
    with open(path, encoding="utf-8") as fh:
        if fmt == "json":
            payload = json.load(fh)
            return payload["rows"], {k: str(v) for k, v in payload["summary"].items()}
        lines = fh.read().splitlines()
    summary = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = list(csv.DictReader(line for line in lines if not line.startswith("# ")))
    return rows, summary


class CliCall:
    """One ``cli.main(argv)`` call writing csv or json to a file."""

    def __init__(self, argv, fmt, out):
        self.argv = list(argv) + ["--format", fmt, "--out", out]
        self.fmt, self.out = fmt, out

    def __call__(self):
        if os.path.exists(self.out):
            os.remove(self.out)
        return cli.main(self.argv)

    def output(self):
        return read_cli_output(self.out, self.fmt)


def _check_cli(call, expect, code):
    if code != 0:
        return f"exit code {code}"
    try:
        rows, summary = call.output()
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return expect(rows, summary)


def _summary_true(key, rows, summary):
    return "" if summary.get(key) == "True" else f"summary {key}={summary.get(key)}"


def _printed_known(rows, summary):
    verdicts = [r["verdict"] for r in rows]
    if "FAIL" in verdicts:
        return "a printed variant fails outside KNOWN_DISCREPANCIES"
    if "KNOWN_DISCREPANCY" not in verdicts:
        return "no KNOWN_DISCREPANCY reported"
    return ""


def _eval_matches(tag, beta, gamma, m, n, points, tol, rows, summary):
    values = [float(r["value"]) for r in rows if not str(r["z1"]).startswith("coeff")]
    if len(values) != len(points):
        return f"{len(values)} values for {len(points)} points"
    err = max(
        abs(value - ref) / max(1.0, abs(ref))
        for value, ref in ((v, eval_reference(tag, beta, gamma, m, n, *pt))
                           for v, pt in zip(values, points))
    )
    return "" if err <= tol else f"eval differs from scipy.special by {err:.3e}"


def _family_args(tag, beta, gamma, q):
    return ["--family", tag, "--beta", repr(beta), "--gamma", repr(gamma), "--q", repr(q)]


def _known_ids(tag):
    return [name for name in bv.KNOWN_DISCREPANCIES if name.split("_")[0] == tag]


def cli_mix(rng, workdir):
    """CLI_ROUNDS rounds of the five subcommands.  Family, degree and
    subcommand order are fixed per round so the work per pass hardly
    depends on the seed; parameters, points, output formats and the genfun
    sample seed are drawn fresh for every op."""
    ops = []

    def add(name, argv, expect):
        fmt = "json" if rng.random() < 0.5 else "csv"
        call = CliCall(argv, fmt, os.path.join(workdir, f"op{len(ops)}.{fmt}"))
        ops.append(Op(name, call, partial(_check_cli, call, expect)))

    def draw():
        beta, gamma = (round(float(v), 6) for v in rng.uniform(0.0, 2.0, 2))
        return beta, gamma, round(float(rng.uniform(0.3, 0.8)), 6)

    genfuns = ("Z_EXP", "Z_PLAIN", "M_EXP", "M_PLAIN", "M_DOUBLE")
    for r in range(CLI_ROUNDS):
        tag = CONTINUOUS[r % 3]
        beta, gamma, q = draw()
        m, n = (int(v) for v in rng.integers(0, 6, 2))
        pts = [tuple(round(float(v), 6) for v in rng.uniform(-1.0, 1.0, 2)) for _ in range(3)]
        argv = ["eval"] + _family_args(tag, beta, gamma, q) + ["--m", str(m), "--n", str(n)]
        for z1, z2 in pts:
            argv += ["--z1", repr(z1), "--z2", repr(z2)]
        if r % 2:
            argv.append("--coeffs")
        add(f"eval {tag} ({m},{n})", argv,
            partial(_eval_matches, tag, beta, gamma, m, n, pts, EVAL_TOL))

        tag = FAMILIES[r % 6]
        beta, gamma, q = draw()
        cap = 3 + (r // 6) % 2
        if tag not in CONTINUOUS:
            # criterion 2 certifies the q-family Grams at beta = gamma = 0.5
            beta = gamma = 0.5
        argv = ["gram"] + _family_args(tag, beta, gamma, q) + ["--degree-cap", str(cap)]
        if tag not in CONTINUOUS:
            argv += ["--tol-diag", "1e-7"]
        add(f"gram {tag} cap {cap}", argv, partial(_summary_true, "passed"))

        tag = FAMILIES[(r + 3) % 6]
        beta, gamma, q = draw()
        degree = 3 + r % 3
        argv = ["check"] + _family_args(tag, beta, gamma, q) + ["--max-degree", str(degree)]
        known = _known_ids(tag)
        if known and r % 2:
            argv += ["--ids", ",".join(known), "--printed-form"]
            add(f"check --printed-form {tag} {degree}", argv, _printed_known)
        else:
            add(f"check {tag} {degree}", argv, partial(_summary_true, "passed"))

        tag = CONTINUOUS[(r + 1) % 3]
        beta, gamma, q = draw()
        zn = 1 + (r // 3) % 3
        argv = ["zeros"] + _family_args(tag, beta, gamma, q) + [
            "--n", str(zn), "--m-min", str(zn), "--m-max", str(zn + 5)]
        add(f"zeros {tag} n={zn}", argv, partial(_summary_true, "monotone"))

        which = genfuns[r % 5]
        beta, gamma, q = draw()
        argv = ["genfun"] + _family_args(which[0], beta, gamma, q) + [
            "--which", which, "--seed", str(int(rng.integers(0, 2**31))), "--tol-abs", "1e-8"]
        add(f"genfun {which}", argv, partial(_summary_true, "passed"))

    for tag, ladder in EVAL_LADDERS:
        for k in ladder:
            argv = ["eval"] + _family_args(tag, 0.5, 0.5, 0.5) + ["--m", str(k), "--n", str(k)]
            for z1, z2 in EVAL_POINTS:
                argv += ["--z1", repr(z1), "--z2", repr(z2)]
            call = CliCall(argv, "json", os.path.join(workdir, f"ladder-{tag}-{k}.json"))
            expect = partial(_eval_matches, tag, 0.5, 0.5, k, k, EVAL_POINTS, LADDER_TOL)
            ops.append(Op(
                f"eval ladder {tag} ({k},{k})", call,
                lambda code, call=call, expect=expect, k=k: {k: _check_cli(call, expect, code)},
                ladder=f"eval_mn.{tag}", rung=k,
            ))
    return ops


def build(workload, seed, workdir):
    """The op list of a workload for a seed."""
    rng = np.random.default_rng(seed)
    if workload == "cli_mix":
        return cli_mix(rng, workdir)
    return {"identity_sweep": identity_sweep, "gram_frontier": gram_frontier,
            "aw_tensor": aw_tensor}[workload](rng)

"""Benchmark of bivarortho: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from the root of a checkout; the library is imported from ``src/``.
Each pass is a fresh interpreter (``one_pass.py``) that imports the
library, builds the op list, and runs it once, so a cache that outlives a
pass cannot count as a gain.  Passes run one at a time, with BLAS/OpenMP
pinned to one thread, until the next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.

End-to-end times are rescaled to the host's uncontended speed by a probe
timed around every op (probe.py), then each op's median over the passes is
taken; solve_s is their sum and op_tail_ms their value with ten ops
beyond it.  op_p50_ms is the median of the rescaled op times of all passes
pooled.  The failed-op share and the accuracy
frontier are reported as ok_share (passed / attempted plain ops) and
frontier (the sum of the frontiers of the workload's ladders), because a
metric that reads 0 cannot carry a relative bound; the per-family
frontiers (gram_cap.*, sweep_mn.*, aw_cap, eval_mn.*) are in the per-layer
report of a traced run and in every report's ladder lines.

Workloads (why each exists):
  identity_sweep  criterion-3 identity grid plus deep sweeps to m, n <= 14;
                  all time in radial/qcalc/polycore/bivariate, quad and
                  awbiortho idle.  Table caching and sparse algebra show here.
  gram_frontier   criteria 1-2 Gram grids plus cap ladders 2, 4, ..., 12, 15;
                  time in quad (Gauss rules, lattice sums, pair products).
  aw_tensor       criterion 8 plus seeded blocks and a 1D cap ladder; only
                  awbiortho and qcalc, never tables or BivariatePoly.
  cli_mix         seeded one-shot stream of the five CLI subcommands with
                  file output, plus an eval degree ladder; low reuse, and
                  the only workload that measures the cli layer.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

from probe import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("identity_sweep", "gram_frontier", "aw_tensor", "cli_mix")
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_PASSES = 3

# name -> (unit, better); the end-to-end metrics, from untraced passes
END_TO_END = {
    "solve_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("ratio", "higher"),
    "frontier": ("degree", "higher"),
}

# span name -> fields reported from the traced passes
SPAN_FIELDS = {
    "qcalc.qpochhammer": ("calls", "total_s"),
    "qcalc.pochhammer": ("calls",),
    "polycore.mul": ("calls", "total_s"),
    "polycore.add": ("calls", "total_s"),
    "polycore.evaluate": ("calls", "total_s"),
    "polycore.identity_residual": ("calls", "total_s"),
    "radial.radial_coeffs": ("calls", "total_s", "self_s"),
    "radial.jacobi_matrix": ("calls", "total_s"),
    "radial.radial_zeros": ("calls", "total_s"),
    "radial.zeta": ("calls",),
    "bivariate.construct": ("calls", "total_s", "self_s"),
    "bivariate.check_identity": ("calls", "total_s", "self_s"),
    "bivariate.genfun_check": ("calls", "total_s"),
    "quad.gram": ("calls", "total_s", "self_s"),
    "quad.golub_welsch": ("calls", "total_s"),
    "quad.q_lattice_sum": ("calls", "total_s"),
    "quad.zero_circle_monotonicity": ("calls", "total_s"),
    "awbiortho.aw_eval": ("calls", "total_s"),
    "awbiortho.h_prod": ("calls", "total_s"),
    "awbiortho.aw_prefactor": ("calls",),
    "awbiortho.aw_norm": ("calls",),
    "awbiortho.aw_gram_1d": ("total_s", "self_s"),
    "awbiortho.tensor_biortho_check": ("total_s", "self_s"),
    "cli.main": ("calls", "total_s", "self_s"),
}
COUNTERS = (
    "polycore.mul.term_products",
    "polycore.tables_built",
    "quad.golub_welsch.nodes",
    "quad.q_lattice_sum.points",
)
# share name -> (numerator counter, denominator: span calls or counter)
SHARES = {
    "radial.radial_coeffs.repeat_share": ("radial.radial_coeffs.repeats", "radial.radial_coeffs"),
    "bivariate.construct.repeat_share": ("bivariate.construct.repeats", "bivariate.construct"),
    "quad.gram.zero_pair_share": ("quad.gram.zero_pairs", "quad.gram.computed_pairs"),
}
# frontier detail -> ladders it is the lowest frontier of (a ladder name
# without its parenthesised parameters)
FRONTIERS = {
    "gram_cap.Z": ("gram_cap.Z",),
    "gram_cap.H": ("gram_cap.H",),
    "gram_cap.M": ("gram_cap.M",),
    "gram_cap.ZQ": ("gram_cap.ZQ",),
    "gram_cap.WALL": ("gram_cap.WALL",),
    "gram_cap.MQ": ("gram_cap.MQ",),
    "sweep_mn.classical": ("sweep_mn.Z", "sweep_mn.H", "sweep_mn.M"),
    "sweep_mn.q": ("sweep_mn.ZQ", "sweep_mn.WALL", "sweep_mn.MQ"),
    "aw_cap": ("aw_cap",),
    "eval_mn.Z": ("eval_mn.Z",),
    "eval_mn.H": ("eval_mn.H",),
    "eval_mn.M": ("eval_mn.M",),
}


def per_layer_specs():
    """name -> (unit, better) of every per-layer metric, in report order."""
    specs = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            specs[f"{span}.{f}"] = ("count", "lower") if f == "calls" else ("s", "lower")
    for name in COUNTERS:
        specs[name] = ("count", "lower")
    for name in SHARES:
        specs[name] = ("ratio", "lower")
    for name in FRONTIERS:
        specs[name] = ("degree", "higher")
    specs["setup.import_s"] = ("s", "lower")
    specs["setup.inputs_s"] = ("s", "lower")
    specs["trace.overhead_s"] = ("s", "lower")
    return specs


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(workload, seed, traced, deadline):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - t0
    return result


def run_passes(workload, seed, seconds, trace, deadline):
    """At least MIN_PASSES passes, one at a time, then more until the next
    would end after ``seconds``.  A traced run alternates untraced and
    traced passes."""
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, seed, traced, deadline))
        elapsed = time.monotonic() - start
        longest = max(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            return passes


def warm_up(deadline):
    """Compile the library's bytecode and load it into the file cache once,
    so the first pass's set-up time matches the others."""
    subprocess.run(
        [sys.executable, "-c", "import bivarortho.cli, bivarortho.awbiortho, scipy.special"],
        cwd=ROOT, env=child_env(), capture_output=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def scaled_op_ms(p):
    """Per-op wall times of a pass, rescaled to the reference speed by the
    probes right before and right after each op (see probe.py)."""
    ref_ms, pr = 1000.0 * REFERENCE_S, p["probe_ms"]
    return [t * 2.0 * ref_ms / (pr[i] + pr[i + 1]) for i, t in enumerate(p["op_ms"])]


def setup_scale(p):
    return 2.0 * REFERENCE_S / sum(p["setup_probe_s"])


def steady_op_ms(passes):
    """Each op's median rescaled time over the passes, which all run the
    same op list in fresh processes."""
    return [median(ts) for ts in zip(*(scaled_op_ms(p) for p in passes))]


def latency_ms(passes):
    """(median, tail, tail percentile) of op latency.  The median is taken
    over the rescaled op times of all passes pooled.  The tail is the value
    with ten ops beyond it among the ops' median times (steady_op_ms), the
    highest percentile, 100 (n - 10) / n, that has ten samples beyond it; a
    one-off slow sample of an op does not move it."""
    pooled = [t for p in passes for t in scaled_op_ms(p)]
    per_op = sorted(steady_op_ms(passes))
    n = len(per_op)
    return median(pooled), per_op[n - 11], 100.0 * (n - 10) / n


def ladder_frontiers(p):
    return {name: lad["frontier"] for name, lad in p["ladders"].items()}


def end_to_end(passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    op_ms = steady_op_ms(passes)
    p50, tail, _ = latency_ms(passes)
    values = {
        "solve_s": sum(op_ms) / 1000.0,
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "setup_s": median([p["setup_s"] * setup_scale(p) for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "ok_share": 1.0 - failed / attempted,
        "frontier": median([sum(ladder_frontiers(p).values()) for p in passes]),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def layer_values(p):
    """Per-layer values of one traced pass."""
    spans, counters = p["spans"], p["counters"]
    out = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            out[f"{span}.{f}"] = spans[span][f]
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    for name, (num, den) in SHARES.items():
        base = spans[den]["calls"] if den in spans else counters.get(den, 0)
        out[name] = counters.get(num, 0) / base if base else 0.0
    return out


def frontier_values(p):
    lads = ladder_frontiers(p)
    out = {}
    for name, ladders in FRONTIERS.items():
        hits = [v for k, v in lads.items() if k.split("(")[0] in ladders]
        out[name] = min(hits) if hits else 0
    return out


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [dict(layer_values(p), **frontier_values(p)) for p in traced]
    values = {k: median([r[k] for r in rows]) for k in rows[0]}
    values["setup.import_s"] = median([p["import_s"] * setup_scale(p) for p in passes])
    values["setup.inputs_s"] = median([p["inputs_s"] * setup_scale(p) for p in passes])
    values["trace.overhead_s"] = (sum(steady_op_ms(traced)) - sum(steady_op_ms(plain))) / 1000.0
    specs = per_layer_specs()
    return {k: {"value": values[k], "unit": specs[k][0]} for k in specs}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(passes):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "versions": passes[0]["versions"],
        "thread_pins": THREAD_PINS,
        "PYTHONHASHSEED": "0",
    }


def report(args, passes, metrics):
    """Human-readable lines and one JSON record; the result line follows."""
    plain = [p for p in passes if not p["traced"]]
    first = plain[0]
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} untraced), {len(first['op_ms'])} ops per pass, "
          f"{first['attempted']} of them plain ops")
    n_ops = len(first["op_ms"])
    for name, m in metrics.items():
        detail = ""
        if name == "solve_s":
            totals = sorted(p["solve_s"] for p in plain)
            probes = sorted(x for p in plain for x in p["probe_ms"])
            detail = (f"  sum over {n_ops} ops of each op's median over {len(plain)} passes,"
                      f" rescaled to the probe reference; raw wall per pass"
                      f" {totals[0]:.6g}..{totals[-1]:.6g} s, probe median"
                      f" {median(probes):.4g} ms (reference {1000 * REFERENCE_S:.4g} ms)")
        elif name == "op_p50_ms":
            detail = f"  median of {n_ops * len(plain)} rescaled op times, all passes pooled"
        elif name == "op_tail_ms":
            pct = latency_ms(plain)[2]
            detail = f"  p{pct:.1f} of the {n_ops} ops' median times (10 ops beyond it)"
        elif name == "ok_share":
            failed = sum(len(p["failed"]) for p in passes)
            attempted = sum(p["attempted"] for p in passes)
            detail = f"  {attempted - failed} of {attempted} plain ops correct, {failed} failed"
        elif name == "setup_s":
            vals = sorted(p["setup_s"] for p in plain)
            detail = (f"  median of {len(vals)} passes, rescaled; raw"
                      f" {vals[0]:.6g}..{vals[-1]:.6g} s")
        elif name == "peak_rss_mb":
            vals = sorted(p[name] for p in plain)
            detail = f"  median of {len(vals)} passes, range {vals[0]:.6g}..{vals[-1]:.6g}"
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{detail}")
    for lad, info in sorted(first["ladders"].items()):
        misses = {r: prob for r, prob in info["rungs"].items() if prob}
        first_miss = min(misses.items(), key=lambda kv: int(kv[0])) if misses else None
        tail = f"; first failing rung {first_miss[0]}: {first_miss[1][:160]}" if first_miss else ""
        print(f"#   ladder {lad}: frontier {info['frontier']}{tail}")
    for p in passes:
        for f in p["failed"]:
            print(f"#   FAILED {f['op']}: {f['problem'][:300]}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(passes),
        "passes": [{k: p[k] for k in ("traced", "process_s", "setup_s", "solve_s", "wall_s")}
                   for p in passes],
        "ladders": {k: {"frontier": v["frontier"],
                        "failing": {r: prob for r, prob in v["rungs"].items() if prob}}
                    for k, v in first["ladders"].items()},
    }
    print("# record " + json.dumps(record, sort_keys=True))


def result_line(passes, metrics):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _synthetic_pass(traced):
    p = {"traced": traced, "setup_s": 0.7, "setup_probe_s": [2e-4, 3e-4],
         "import_s": 0.69, "inputs_s": 0.01, "probe_ms": [0.25] * 21,
         "solve_s": 2.0 + traced, "wall_s": 2.1, "process_s": 2.9,
         "op_ms": [1.0 + i + traced for i in range(20)], "attempted": 18, "failed": [],
         "peak_rss_mb": 80.0, "versions": {},
         "ladders": {"gram_cap.M": {"frontier": 6, "rungs": {}},
                     "gram_cap.MQ": {"frontier": 4, "rungs": {}},
                     "sweep_mn.M(0.7,0.7)": {"frontier": 7, "rungs": {}},
                     "sweep_mn.MQ(0.7,0.7,0.3)": {"frontier": 11, "rungs": {}}}}
    if traced:
        p["spans"] = {s: {"calls": 3, "total_s": 0.1, "self_s": 0.05} for s in SPAN_FIELDS}
        p["counters"] = {"radial.radial_coeffs.repeats": 2}
    return p


def self_test():
    """Checks the metric names and units against BENCHMARK.json, that an
    injected wrong expectation counts as a failed op, and the frontier rule."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tempfile
    from functools import partial

    import one_pass
    import workloads

    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    passes = [_synthetic_pass(False), _synthetic_pass(True)]
    for trace, key, computed in ((0, "end_to_end", end_to_end(passes)),
                                 (1, "per_layer", per_layer(passes))):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = json.loads(result_line(passes, computed))["metrics"]
        if {k: v["unit"] for k, v in printed.items()} != declared:
            problems.append(f"--trace {trace} metrics differ from BENCHMARK.json {key}")
        if not all(isinstance(v["value"], (int, float)) for v in printed.values()):
            problems.append(f"--trace {trace} prints a non-numeric value")
    for name, (unit, better) in {**END_TO_END, **per_layer_specs()}.items():
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in spec["end_to_end"] + spec["per_layer"]}
        if declared.get(name) != (unit, better):
            problems.append(f"{name}: {declared.get(name)} declared, {(unit, better)} in run.py")

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as workdir:
        pts = ((0.4, 0.9),)
        ops = []
        for beta_expected in (0.5, 0.6):  # the second expectation is wrong
            argv = ["eval", "--family", "Z", "--beta", "0.5", "--m", "3", "--n", "1",
                    "--z1", "0.4", "--z2", "0.9"]
            call = workloads.CliCall(argv, "json", os.path.join(workdir, f"e{beta_expected}.json"))
            expect = partial(workloads._eval_matches, "Z", beta_expected, 0.0, 3, 1, pts,
                             workloads.EVAL_TOL)
            ops.append(workloads.Op(f"eval expecting beta={beta_expected}", call,
                                    partial(workloads._check_cli, call, expect)))
        _, _, failures, _ = one_pass.run_ops(ops)
        if [f["op"] for f in failures] != ["eval expecting beta=0.6"]:
            problems.append(f"injected wrong expectation gave failures {failures}")

    cases = (({2: "", 4: "", 6: "miss", 8: ""}, 4), ({2: "miss", 4: ""}, 0),
             ({1: "", 2: "", 3: ""}, 3), ({6: "", 2: "", 4: "miss"}, 2))
    for rungs, want in cases:
        got = workloads.frontier(rungs)
        if got != want:
            problems.append(f"frontier({rungs}) = {got}, want {want}")
    details = frontier_values(passes[1])
    want = {"gram_cap.M": 6, "gram_cap.MQ": 4, "sweep_mn.classical": 7, "sweep_mn.q": 11}
    if any(details[k] != v for k, v in want.items()):
        problems.append(f"frontier details {details}, want {want}")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bivarortho", "__init__.py")):
        print(f"error: no bivarortho sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        warm_up(deadline)
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [p for p in passes if not p["traced"]]
    metrics = per_layer(passes) if args.trace else end_to_end(plain)
    report(args, passes, metrics)
    print(result_line(passes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

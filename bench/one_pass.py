"""One timed pass of one workload in a fresh interpreter.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1

The pass imports numpy and bivarortho, builds the workload's op list
(together: set-up), then runs every op once and checks it.  It prints one
JSON object on stdout.  ``run.py`` starts one such process per pass, so no
cache outlives a pass.
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

from probe import probe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_ops(ops):
    """Run and check every op.  Returns per-op wall times (ms), the probe
    times around them (ms, one more than ops), failures of plain ops, and
    the rungs of every frontier ladder."""
    times_ms, probe_ms, failures, ladders = [], [1000.0 * probe()], [], {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is recorded, the pass goes on
            elapsed = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
            outcome = {op.rung or 0: problem} if op.ladder else problem
        else:
            elapsed = time.perf_counter() - t0
            outcome = op.check(result)
        times_ms.append(1000.0 * elapsed)
        probe_ms.append(1000.0 * probe())
        if op.ladder:
            ladders.setdefault(op.ladder, {}).update(outcome)
        elif outcome:
            failures.append({"op": op.name, "problem": outcome})
    return times_ms, probe_ms, failures, ladders


def main():
    setup_probe = probe()
    setup_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import numpy
    import scipy

    import bivarortho
    import workloads

    if not os.path.abspath(bivarortho.__file__).startswith(SRC + os.sep):
        sys.exit(f"bivarortho imported from {bivarortho.__file__}, not {SRC}")
    import_s = time.perf_counter() - setup_start

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=os.path.dirname(__file__)) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - setup_start
        setup_probe_s = (setup_probe, probe())
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        t0 = time.perf_counter()
        times_ms, probe_ms, failures, ladders = run_ops(ops)
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()

    plain = [op.ladder is None for op in ops]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "import_s": import_s,
        "inputs_s": setup_s - import_s,
        "solve_s": sum(times_ms) / 1000.0,
        "wall_s": wall_s,
        "attempted": sum(plain),
        "failed": failures,
        "op_ms": times_ms,
        "probe_ms": probe_ms,
        "ladders": {
            name: {"frontier": workloads.frontier(rungs),
                   "rungs": {str(k): v for k, v in sorted(rungs.items())}}
            for name, rungs in ladders.items()
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "bivarortho": bivarortho.__version__},
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counters"] = tracer.counters
        os.makedirs(os.path.join(os.path.dirname(__file__), "out"), exist_ok=True)
        tracer.save(os.path.join(os.path.dirname(__file__), "out", f"{args.workload}.spans.npz"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""The names that the benchmark tracer (bench/tracer.py) wraps: each must
exist and keep its argument positions, so that a removed or reordered
name fails this suite and not a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from bivarortho import awbiortho, bivariate, quad, radial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _ops():
    """A ZQ and an H Gram, an Askey-Wilson Gram, a small WALL sweep and a
    q -> 1 degeneration check (the dict tables: construct and their
    products), each at parameters no other test uses, so that no table
    cache hides a call."""
    return (quad.gram(bivariate.ZQ(0.41, 0.37), 3),
            quad.gram(bivariate.H(), 3),
            awbiortho.aw_gram_1d(awbiortho.AWParams(0.21, -0.33, 0.12, 0.38, 0.47), 3),
            bivariate.sweep(bivariate.WALL(0.43, 0.39), None, 2),
            bivariate.q_degeneration_residuals(0.47, 2, 1, qs=(0.9,)))


def test_traced_names_install_and_run():
    tracer = _tracer()
    original = quad.gram
    tracer.install()
    try:
        zq, h, aw, reports, degeneration = _ops()
        rule = quad.golub_welsch(radial.laguerre(0.37), 2, 5)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["quad.gram"]["calls"] == 2
    assert spans["awbiortho.aw_gram_1d"]["calls"] == 1
    for name in ("radial.radial_coeffs", "bivariate.construct", "awbiortho.h_prod",
                 "qcalc.qpochhammer", "polycore.mul"):
        assert spans[name]["calls"] > 0, name
    # the Grams take their Gauss rules from quad.gauss_rules; the one direct
    # rule counts its order as nodes
    assert spans["quad.golub_welsch"]["calls"] == 1
    assert tracer.counters["quad.golub_welsch.nodes"] == len(rule.nodes) == 5
    # every upper-triangle pair of the two Grams' 16 indices
    assert tracer.counters["quad.gram.computed_pairs"] == 2 * 16 * 17 // 2
    # the q -> 1 check makes every dict table of these ops: four constructs,
    # three dilations, one monomial, three products and one sum
    assert tracer.counters["polycore.tables_built"] == 4 + 3 + 1 + 3 + 1
    # the wrappers pass every result through unchanged, and are removed
    assert quad.gram is original
    for traced, plain in zip((zq, h, aw), _ops()[:3]):
        assert traced.max_offdiag == plain.max_offdiag and traced.passed and plain.passed
        assert all(np.array_equal(g1, g2) for (_, g1, _), (_, g2, _) in zip(traced.blocks,
                                                                            plain.blocks))
    assert reports and all(r.passed for r in reports)
    assert degeneration[0][1] < 6.0 * (1.0 - 0.9)

"""Outside-in spans around the public functions of each bivarortho module.

The tracer replaces every module attribute that refers to a traced
function with a wrapper, so each name is wrapped where it is looked up:
``qpochhammer`` is imported by name into ``radial``, ``quad`` and
``awbiortho``, ``BivariatePoly.__radd__`` is a separate alias of
``__add__``, and ``construct`` calls itself through its module global.
No library file changes.

Spans are kept in memory as columns (span id = row, parent id, name id,
start, end) and turned into per-name calls, total time and self time when
the pass ends.  Self time is a span's duration minus the time covered by
its direct children.  Total time counts only the outermost span of a name,
so recursion is not counted twice.
"""

import time
from array import array

import numpy as np

from bivarortho import awbiortho, bivariate, cli, polycore, qcalc, quad, radial

MODULES = (qcalc, polycore, radial, bivariate, quad, awbiortho, cli)

# (layer, module, attribute): functions spanned, in layer order
SPANNED = (
    ("qcalc", qcalc, "qpochhammer"),
    ("qcalc", qcalc, "pochhammer"),
    ("polycore", polycore, "identity_residual"),
    ("radial", radial, "radial_coeffs"),
    ("radial", radial, "jacobi_matrix"),
    ("radial", radial, "radial_zeros"),
    ("radial", radial, "zeta"),
    ("bivariate", bivariate, "construct"),
    ("bivariate", bivariate, "check_identity"),
    ("bivariate", bivariate, "genfun_check"),
    ("quad", quad, "gram"),
    ("quad", quad, "golub_welsch"),
    ("quad", quad, "q_lattice_sum"),
    ("quad", quad, "zero_circle_monotonicity"),
    ("awbiortho", awbiortho, "aw_eval"),
    ("awbiortho", awbiortho, "h_prod"),
    ("awbiortho", awbiortho, "aw_prefactor"),
    ("awbiortho", awbiortho, "aw_norm"),
    ("awbiortho", awbiortho, "aw_gram_1d"),
    ("awbiortho", awbiortho, "tensor_biortho_check"),
    ("cli", cli, "main"),
)

# BivariatePoly methods: (span name, attribute)
POLY_METHODS = (
    ("polycore.mul", "__mul__"),
    ("polycore.add", "__add__"),
    ("polycore.add", "__radd__"),
    ("polycore.evaluate", "evaluate"),
)


class Tracer:
    """Installs span wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.parent = array("i")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack = [-1]
        self._active = []  # open spans per name id
        self.counters = {}
        self._seen = {}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def note_repeat(self, name, key):
        """Count a call whose arguments were already seen in this pass."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.count(name + ".repeats")
        else:
            seen.add(key)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span under ``name``.

        ``before(args, kwargs)`` returns the arguments to call with;
        ``after(result)`` sees the return value.  Both run outside the
        span's timed interval.
        """
        nid = self._name_id(name)
        parent, names, start, end = self.parent, self.name, self.start, self.end
        nested, stack, active = self.nested, self._stack, self._active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            nested.append(1 if active[nid] else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                start[sid] = t0
                end[sid] = t1
                active[nid] -= 1
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        hooks = {
            "radial.radial_coeffs": (self._radial_key, None),
            "bivariate.construct": (self._construct_key, None),
            "quad.golub_welsch": (self._gw_nodes, None),
            "quad.q_lattice_sum": (self._count_points, None),
            "quad.gram": (None, self._zero_pairs),
        }
        for layer, mod, attr in SPANNED:
            original = getattr(mod, attr)
            name = f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            self._replace_everywhere(original, self.span(name, original, before, after))
        cls = polycore.BivariatePoly
        for name, attr in POLY_METHODS:
            original = cls.__dict__[attr]
            before = self._term_products if attr == "__mul__" else None
            setattr(cls, attr, self.span(name, original, before))
            self._restore.append((cls, attr, original))
        init = cls.__init__

        def counting_init(poly, terms=None):
            self.count("polycore.tables_built")
            init(poly, terms)

        cls.__init__ = counting_init
        self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- argument hooks ----------------------------------------------------

    def _radial_key(self, args, kwargs):
        fam, n, alpha = args[:3]
        dtype = args[3] if len(args) > 3 else kwargs.get("dtype", float)
        self.note_repeat("radial.radial_coeffs", (fam, n, alpha, dtype))
        return args, kwargs

    def _construct_key(self, args, kwargs):
        self.note_repeat("bivariate.construct", args)
        return args, kwargs

    def _gw_nodes(self, args, kwargs):
        npts = args[2] if len(args) > 2 else kwargs["npts"]
        self.count("quad.golub_welsch.nodes", npts)
        return args, kwargs

    def _count_points(self, args, kwargs):
        args = list(args)
        integrand = args[2] if len(args) > 2 else kwargs["integrand"]

        def counted(x):
            self.count("quad.q_lattice_sum.points")
            return integrand(x)

        if len(args) > 2:
            args[2] = counted
        else:
            kwargs = dict(kwargs, integrand=counted)
        return tuple(args), kwargs

    def _term_products(self, args, kwargs):
        this, other = args
        size = len(other.terms) if isinstance(other, polycore.BivariatePoly) else 1
        self.count("polycore.mul.term_products", len(this.terms) * size)
        return args, kwargs

    def _zero_pairs(self, result):
        """Upper-triangle entries gram computed, and those the angular
        reduction zeroed."""
        idx = result.indices
        upper = [(a, b) for i, a in enumerate(idx) for b in idx[i:]]
        self.count("quad.gram.computed_pairs", len(upper))
        self.count("quad.gram.zero_pairs", sum(result.entries[k] == 0.0 for k in upper))

    # -- summary -----------------------------------------------------------

    def summary(self):
        """Per span name: calls, total_s (outermost spans) and self_s."""
        n_names = len(self.names)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        outer = np.frombuffer(self.nested, dtype=np.int8) == 0
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
        own = np.bincount(name, weights=self_time, minlength=n_names)
        return {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, nm in enumerate(self.names)
        }

    def save(self, path):
        """Write the span table (one row per span) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

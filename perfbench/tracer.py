"""Spans around the engine's public functions, patched in from outside.

`Tracer.install()` replaces each listed function by a timing wrapper: in
its defining module, in every `polarcalc` module that imported it by name,
and, for methods, on the class.  `uninstall()` puts every original back.
Spans live in memory as (id, parent id, case id, name, start ns, end ns,
nested) and are written out once, at the end of a run.  A span's self time
is its duration minus the durations of its child spans; calls run one at a
time, so children never overlap.
"""

import functools
import gzip
import importlib
import sys
import time
from contextlib import contextmanager

# layer (module of src/polarcalc) -> wrapped qualnames.  `scalars` and
# `univar` are too fine-grained to wrap and show up in their callers' self
# time; `cli` and `suites` are not on the measured path.
LAYERS = {
    "polynomials": (
        "poly_gcd", "poly_div_exact", "poly_divides", "rational_roots",
        "poly_resultant", "Polynomial.substitute", "Polynomial.to_sympy",
        "Polynomial.from_sympy", "RationalFunction.__init__",
        "RationalFunction.ord_along",
    ),
    "forms": ("DifferentialForm.pullback", "DifferentialForm.wedge", "polar_profile"),
    "geometry": (
        "CatalogVariety.transition_form", "validate_normal_crossing",
        "common_zeros_2d",
    ),
    "maps": ("VarietyMap.jacobian_max_rank", "VarietyMap.compose"),
    "residue": ("poincare_residue", "p1_pole_points"),
    "chains": ("make_triple", "boundary", "normalize_chain", "check_d_squared"),
    "homotopy": ("cylinder_homotopy", "verify_homotopy_identity"),
    "session": ("run_statement", "describe_chain"),
    "parsing": ("parse_expression",),
}

FUNCTIONS = tuple(
    "%s.%s" % (module, qualname)
    for module, names in LAYERS.items() for qualname in names
)

# Ratios measured where the work happens: name -> (numerator, denominator,
# unit), the counters filled by the observers below.  `basepoint_probes`
# counts normal-crossing checks made directly by `cylinder_homotopy`.
RATIOS = {
    "polynomials.poly_gcd.trivial_ratio": ("gcd_trivial", "gcd_calls", "ratio"),
    "polynomials.poly_gcd.unit_ratio": ("gcd_unit", "gcd_calls", "ratio"),
    "geometry.validate_normal_crossing.ok_ratio": ("nc_ok", "nc_calls", "ratio"),
    "chains.normalize_chain.kept_ratio": ("terms_out", "terms_in", "ratio"),
    "homotopy.repair_ratio": ("repairs", "line_terms", "ratio"),
    "homotopy.basepoint_probes": ("basepoint_probes", "line_terms", "probes/term"),
}

CASE = "case"


def _cheap(p):
    return p.is_constant() or len(p.terms) == 1


def _observe_gcd(counts, args, result):
    counts["gcd_calls"] += 1
    counts["gcd_trivial"] += _cheap(args[0]) or _cheap(args[1])
    counts["gcd_unit"] += result.is_unit()


def _observe_nc(counts, args, result):
    counts["nc_calls"] += 1
    counts["nc_ok"] += bool(result.ok)


def _observe_normalize(counts, args, result):
    counts["terms_in"] += len(args[0].terms)
    counts["terms_out"] += len(result.terms)


def _observe_cylinder(counts, args, result):
    # one record per input term, in term order
    for (_, term), record in zip(args[0].terms, result.records):
        if term.degree == 1:
            counts["line_terms"] += 1
            counts["repairs"] += bool(record.get("repaired"))


OBSERVERS = {
    "polynomials.poly_gcd": _observe_gcd,
    "geometry.validate_normal_crossing": _observe_nc,
    "chains.normalize_chain": _observe_normalize,
    "homotopy.cylinder_homotopy": _observe_cylinder,
}


class Tracer:
    def __init__(self):
        self.names = [CASE] + list(FUNCTIONS)
        self.spans = []
        self.counts = {key: 0 for num, den, _ in RATIOS.values() for key in (num, den)}
        self._stack = [0]
        self._depth = [0] * len(self.names)
        self._next_id = 1
        self._case = -1
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name_id, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(
            (sid, parent, self._case, name_id, start, end,
             self._depth[name_id] > 0))

    @contextmanager
    def case(self, index):
        """Root span of one case; every span inside it carries its id."""
        self._case = index
        sid, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(sid, parent, 0, start)
            self._case = -1

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        observe = OBSERVERS.get(name)
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = time.perf_counter_ns()
            depth[name_id] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[name_id] -= 1
                self._exit(sid, parent, name_id, start)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for module_name in LAYERS:
            importlib.import_module("polarcalc." + module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "polarcalc" or n.startswith("polarcalc.")]
        for name in FUNCTIONS:
            module_name, qualname = name.split(".", 1)
            module = sys.modules["polarcalc." + module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Self time (ns) of every span, keyed by span id."""
        child = {}
        for sid, parent, _, _, start, end, _ in self.spans:
            child[parent] = child.get(parent, 0) + end - start
        return {s[0]: s[5] - s[4] - child.get(s[0], 0) for s in self.spans}

    def metrics(self):
        """Per-function calls, total and self seconds, plus the ratios."""
        own = self.self_times()
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        selfs = [0] * len(self.names)
        by_id = {}
        for sid, _, _, name_id, start, end, nested in self.spans:
            by_id[sid] = name_id
            calls[name_id] += 1
            selfs[name_id] += own[sid]
            if not nested:  # a recursive call is inside its caller's total
                total[name_id] += end - start
        nc = self.names.index("geometry.validate_normal_crossing")
        cylinder = self.names.index("homotopy.cylinder_homotopy")
        counts = dict(self.counts, basepoint_probes=sum(
            1 for _, parent, _, name_id, _, _, _ in self.spans
            if name_id == nc and by_id.get(parent) == cylinder))
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[name + ".calls"] = (calls[i], "count")
            out[name + ".total_s"] = (total[i] / 1e9, "s")
            out[name + ".self_s"] = (selfs[i] / 1e9, "s")
        for name, (num, den, unit) in RATIOS.items():
            out[name] = (counts[num] / counts[den] if counts[den] else 0.0, unit)
        return out

    def write(self, path):
        """All spans as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("id,parent,case,name,start_ns,end_ns\n")
            for sid, parent, case, name_id, start, end, _ in self.spans:
                f.write("%d,%d,%d,%s,%d,%d\n"
                        % (sid, parent, case, self.names[name_id], start, end))

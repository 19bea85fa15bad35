"""Spans and counters around the program's public functions.

The tracer wraps functions from outside the program: every module of the
package that holds a reference to a wrapped function gets the wrapper (for
example `comodzoo` imports `build_uq` by name, and `cli._SUITE_FUNCS` holds
the suite functions).  Spans (name, start, end, parent) and counts stay in
memory until `write` is called at the end of the round.
"""

import json
import sys
import time
from collections import Counter

# (module, attribute or Class.method, metric whose self time the span adds to)
SPANS = [
    ("exactlinalg", "rref", "exactlinalg.echelon_s"),
    ("exactlinalg", "rank", "exactlinalg.echelon_s"),
    ("exactlinalg", "kernel", "exactlinalg.echelon_s"),
    ("exactlinalg", "solve", "exactlinalg.echelon_s"),
    ("exactlinalg", "kernel_of_sparse_columns", "exactlinalg.echelon_s"),
    ("exactlinalg", "Subspace.from_vectors", "exactlinalg.echelon_s"),
    ("exactlinalg", "Subspace.contains", "exactlinalg.contains_s"),
    ("exactlinalg", "minimal_polynomial_of_element", "exactlinalg.minpoly_s"),
    ("hopfcore", "verify_hopf", "hopfcore.verify_hopf_s"),
    ("hopfcore", "verify_hopf_2cocycle", "hopfcore.verify_cocycle_s"),
    ("hopfcore", "verify_comodule_algebra", "hopfcore.verify_comodule_s"),
    ("hopfcore", "check_comodule_algebra_morphism", "hopfcore.morphism_s"),
    ("hopfcore", "convolution", "hopfcore.convolution_s"),
    ("hopfcore", "convolution_inverse", "hopfcore.convolution_s"),
    ("hopfcore", "deform_hopf", "hopfcore.deform_s"),
    ("hopfcore", "deform_comodule_algebra", "hopfcore.deform_s"),
    ("hopfcore", "costable_closure", "hopfcore.closure_s"),
    ("uqsl2", "build_gr_uq", "uqsl2.build_gr_uq_s"),
    ("uqsl2", "build_sigma", "uqsl2.build_sigma_s"),
    ("uqsl2", "build_sigma_inverse", "uqsl2.build_sigma_s"),
    ("uqsl2", "build_uq", "uqsl2.build_uq_s"),
    ("uqsl2", "uq_relation_report", "uqsl2.relations_s"),
    ("uqsl2", "verify_dual_relations", "uqsl2.relations_s"),
    ("uqsl2", "closed_comultiplication_report", "uqsl2.relations_s"),
    ("comodzoo", "build_family", "comodzoo.build_family_s"),
    ("comodzoo", "deform_family", "comodzoo.deform_family_s"),
    ("comodzoo", "verify_family_presentation", "comodzoo.presentation_s"),
    ("comodzoo", "verify_deformed_presentation", "comodzoo.presentation_s"),
    ("comodzoo", "loewy_filtration", "comodzoo.loewy_s"),
    ("comodzoo", "LoewyFiltration.respects_products", "comodzoo.loewy_s"),
    ("comodzoo", "is_right_H_simple", "comodzoo.simple_s"),
    ("comodzoo", "verify_min_pol_lemma", "comodzoo.minpoly_lemma_s"),
    ("polyid", "verify_chebyshev_identity", "polyid.identity_s"),
    ("polyid", "verify_min_pol_formula_consistency", "polyid.identity_s"),
]

SUITES = ("hopf-axioms", "cocycle", "deformation", "families", "minpoly",
          "chebyshev", "morita", "filtration")

# every per-layer metric, in output order, with its unit
LAYER_METRICS = (
    [(f"cli.suite.{s}_s", "s") for s in SUITES]
    + [("cyclofield.mul_count", "count"), ("cyclofield.add_count", "count"),
       ("cyclofield.inverse_count", "count"),
       ("cyclofield.mul_us.n3", "us"), ("cyclofield.mul_us.n5", "us"),
       ("cyclofield.mul_us.n7", "us"), ("cyclofield.monomial_mul_us.n5", "us"),
       ("cyclofield.inverse_us.n5", "us"),
       ("exactlinalg.echelon_s", "s"), ("exactlinalg.echelon_calls", "count"),
       ("exactlinalg.contains_s", "s"), ("exactlinalg.contains_calls", "count"),
       ("exactlinalg.minpoly_s", "s"),
       ("hopfcore.verify_hopf_s", "s"), ("hopfcore.verify_cocycle_s", "s"),
       ("hopfcore.verify_comodule_s", "s"), ("hopfcore.morphism_s", "s"),
       ("hopfcore.mul_vec_calls", "count"), ("hopfcore.convolution_s", "s"),
       ("hopfcore.deform_s", "s"), ("hopfcore.closure_s", "s"),
       ("hopfcore.closure_calls", "count"), ("hopfcore.closure_rounds", "count"),
       ("hopfcore.table_entries", "count"),
       ("uqsl2.build_gr_uq_s", "s"), ("uqsl2.build_sigma_s", "s"),
       ("uqsl2.build_uq_s", "s"), ("uqsl2.relations_s", "s"),
       ("comodzoo.build_family_s", "s"), ("comodzoo.deform_family_s", "s"),
       ("comodzoo.family_builds", "count"), ("comodzoo.presentation_s", "s"),
       ("comodzoo.loewy_s", "s"), ("comodzoo.simple_s", "s"),
       ("comodzoo.minpoly_lemma_s", "s"),
       ("polyid.identity_s", "s"),
       ("reporting.checks", "count"),
       ("trace.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.metric_of = {}  # span name -> metric
        self.counts = Counter()
        self._stack = []
        self._family_builders = ()  # the lru_cache'd originals

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def untimed_span(self, name, fn):
        """A span that only takes its time out of its parent's self time."""
        self.metric_of[name] = None
        return self._span(name, fn)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap the public functions of an already imported `uqcomod`."""
        from uqcomod import cli, comodzoo, cyclofield, hopfcore, reporting

        self._family_builders = (comodzoo.build_family, comodzoo.deform_family)

        modules = [m for n, m in sys.modules.items()
                   if n == "uqcomod" or n.startswith("uqcomod.")]

        def replace(orig, new):
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)
            for s, val in cli._SUITE_FUNCS.items():
                if val is orig:
                    cli._SUITE_FUNCS[s] = new

        for modname, attr, metric in SPANS:
            mod = sys.modules[f"uqcomod.{modname}"]
            name = f"{modname}.{attr}"
            self.metric_of[name] = metric
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._span(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._span(name, raw))
            else:
                orig = getattr(mod, attr)
                replace(orig, self._span(name, orig))
        for s in SUITES:
            name = f"cli.suite.{s}"
            self.metric_of[name] = f"{name}_s"
            replace(cli._SUITE_FUNCS[s], self._span(name, cli._SUITE_FUNCS[s]))

        num = cyclofield.CyclotomicNumber
        mul = self._counted("cyclofield.mul_count", num.__mul__)
        num.__mul__ = num.__rmul__ = mul
        add = self._counted("cyclofield.add_count", num.__add__)
        num.__add__ = num.__radd__ = add
        num.__sub__ = self._counted("cyclofield.add_count", num.__sub__)
        num.__neg__ = self._counted("cyclofield.add_count", num.__neg__)
        num.inverse = self._counted("cyclofield.inverse_count", num.inverse)

        alg = hopfcore.FiniteAlgebra
        alg.mul_vec = self._counted("hopfcore.mul_vec_calls", alg.mul_vec)
        replace(hopfcore.t2_mul,
                self._counted("hopfcore.mul_vec_calls", hopfcore.t2_mul))
        alg_init, counts = alg.__init__, self.counts

        def counting_init(obj, fld, labels, mul, unit):
            counts["hopfcore.table_entries"] += sum(
                1 for ent in mul.values() for _, c in ent if not c.is_zero())
            alg_init(obj, fld, labels, mul, unit)

        alg.__init__ = counting_init
        check = reporting.Check
        check.__init__ = self._counted("reporting.checks", check.__init__)

    # -- results ------------------------------------------------------------------

    def layer_metrics(self):
        """Self times and counts by metric name (not the field timings and
        the overhead, which the caller measures)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name, unit in LAYER_METRICS if unit == "s"}
        calls = Counter()
        rounds = 0
        for i, (name, start, end, parent) in enumerate(spans):
            metric = self.metric_of[name]
            if metric is None:
                continue
            out[metric] += (end - start) - child[i]
            calls[metric] += 1
            if (name == "exactlinalg.Subspace.from_vectors" and parent >= 0
                    and spans[parent][0] == "hopfcore.costable_closure"):
                rounds += 1
        for name, unit in LAYER_METRICS:
            if unit == "count":
                out[name] = self.counts[name]
        out["exactlinalg.echelon_calls"] = calls["exactlinalg.echelon_s"]
        out["exactlinalg.contains_calls"] = calls["exactlinalg.contains_s"]
        out["hopfcore.closure_calls"] = calls["hopfcore.closure_s"]
        out["hopfcore.closure_rounds"] = rounds
        out["comodzoo.family_builds"] = sum(
            f.cache_info().misses for f in self._family_builders)
        return out

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({**meta, "counts": dict(self.counts),
                       "spans": self.spans}, fh)

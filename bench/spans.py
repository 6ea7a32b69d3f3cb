"""In-process tracing of distlaw's public functions, from outside the package.

``install`` puts an import hook in front of ``import distlaw``: right
after each submodule executes, its public functions and methods are
replaced by wrappers, before any other module can bind the originals
(the ring and rig theories capture law transforms at import time).

Every wrapper feeds one stack-based clock: a call's self time is its
duration minus the time covered by wrapped calls made inside it, so the
self times of all wrapped names plus the root's own self time add up to
the root's duration exactly.  Hot inner functions (term constructors,
``mult``, ``fmap``, law transforms, boundaries) are aggregated into
per-name counts and self times; only the outer public calls also keep a
span record ``(name, start, end, parent)``.

Names are ``<layer>.<what>``; the layer is the distlaw module, or
``bench`` for the benchmark's own code.
"""

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Self-time and count aggregation with span records for outer calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.spans = []
        self._stack = [0.0]
        self._open = [-1]
        self.report_depth = [0]

    def reset(self):
        """Forget everything recorded so far (set-up work is not measured)."""
        for table in (self.self_s, self.incl_s, self.calls, self.counts):
            table.clear()
        for seen in self.distinct.values():
            seen.clear()
        self.spans.clear()
        self._stack[:] = [0.0]
        self._open[:] = [-1]
        self.report_depth[:] = [0]

    def wrap(self, fn, name, record=False, after=None):
        """Wrap ``fn`` as span ``name``; ``after(args, result)`` runs on return."""
        clock, stack, opened, spans = self.clock, self._stack, self._open, self.spans
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def traced(*args, **kwargs):
            if record:
                index = len(spans)
                spans.append(None)
                parent = opened[-1]
                opened.append(index)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                inner = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - inner
                incl_s[name] += elapsed
                calls[name] += 1
                if record:
                    opened.pop()
                    spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def run(self, fn, name="bench.pass"):
        """Run ``fn`` as the root span; returns (result, duration)."""
        self.reset()
        self.spans.append(None)
        self._open.append(0)
        start = self.clock()
        result = fn()
        end = self.clock()
        self._open.pop()
        self.spans[0] = (name, start, end, -1)
        self.self_s["bench.self"] += (end - start) - self._stack[0]
        return result, end - start

    def layer_self_s(self):
        """Self time summed per layer (the name up to its first dot)."""
        out = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)


# --- what to wrap, module by module --------------------------------------------

def _ratio(part, whole):
    return part / whole if whole else 0.0


def _wrap_methods(tracer, cls, names, prefix, record=False, after=None):
    """Wrap the methods ``cls`` itself defines, as spans ``<prefix>.<method>``."""
    for meth in names:
        if meth in cls.__dict__:
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], f"{prefix}.{meth}",
                                           record=record, after=after))


def _wrap_functions(tracer, module, names, name, record=False, after=None):
    for fn_name in names:
        fn = getattr(module, fn_name, None)
        if fn is not None:
            setattr(module, fn_name, tracer.wrap(fn, name, record=record, after=after))


def _count_reports(tracer, fn):
    """Add ``total_checked()`` of reports that reach the caller of the outermost check."""
    depth, counts = tracer.report_depth, tracer.counts

    def counted(*args, **kwargs):
        depth[0] += 1
        try:
            report = fn(*args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            counts["checks.instances"] += report.total_checked()
        return report

    return functools.update_wrapper(counted, fn)


def _wrap_checks(tracer, module, names, name):
    for fn_name in names:
        fn = getattr(module, fn_name, None)
        if fn is not None:
            setattr(module, fn_name,
                    tracer.wrap(_count_reports(tracer, fn), name, record=True))


def _classes(module, base_name):
    """Classes defined in ``module`` that have a base class named ``base_name``."""
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and any(b.__name__ == base_name for b in obj.__mro__[1:])]


def _patch_terms(tracer, module):
    counts, seen = tracer.counts, tracer.distinct["terms"]

    def constructed(args, _result):
        counts["terms.constructed"] += 1
        seen.add(hash(args[0]))

    for cls_name in ("Seq", "MSet", "IntComb", "Inj"):
        cls = getattr(module, cls_name, None)
        if cls is not None and "__init__" in cls.__dict__:
            cls.__init__ = tracer.wrap(cls.__dict__["__init__"], "terms.construct",
                                       after=constructed)


def _patch_monads(tracer, module):
    def enumerated(_args, result):
        tracer.counts["monads.enumerated"] += len(result)

    for cls in _classes(module, "MonadSpec"):
        _wrap_methods(tracer, cls, ("mult", "fmap", "unit"), "monads")
        _wrap_methods(tracer, cls, ("enumerate",), "monads", record=True, after=enumerated)
    _wrap_functions(tracer, module, ("enum_stack",), "monads.enum_stack", record=True)


def _patch_laws(tracer, module):
    inputs = tracer.distinct["laws.transform"]
    for law in list(vars(module).values()):
        if type(law).__name__ != "DistLaw":
            continue

        def seen(args, _result, law_name=law.name):
            inputs.add((law_name, hash(args[0])))

        law.transform = tracer.wrap(law.transform, "laws.transform", after=seen)


def _patch_checks(tracer, module):
    errors = sys.modules[module.__name__.rsplit(".", 1)[0] + ".errors"]
    original = module.compare

    def compare(check_id, inputs, left_leg, right_leg):
        left_raised = [False]

        def left(t):
            left_raised[0] = False
            try:
                return left_leg(t)
            except errors.DistlawError:
                left_raised[0] = True
                raise

        def right(t):
            try:
                return right_leg(t)
            except errors.DistlawError:
                if left_raised[0]:
                    tracer.counts["checks.both_error"] += 1
                raise

        return original(check_id, inputs, left, right)

    def compared(_args, report):
        tracer.counts["checks.compared"] += report.checked
        tracer.counts["checks.witnesses"] += len(report.witnesses)

    module.compare = tracer.wrap(
        _count_reports(tracer, functools.update_wrapper(compare, original)),
        "checks.compare", record=True, after=compared)
    _wrap_checks(tracer, module, ("check_monad_laws", "check_functoriality",
                                  "check_monad_naturality"), "checks.check")


def _patch_series(tracer, module):
    for cls in _classes(module, "MonadSpec"):
        _wrap_methods(tracer, cls, ("mult", "fmap", "unit", "enumerate"), "series.composite")
    _wrap_functions(tracer, module, ("compose_pair", "compose_range", "compose_series",
                                     "derive_block_law"), "series.compose", record=True)
    _wrap_checks(tracer, module, ("check_distlaw", "check_yang_baxter", "validate_series",
                                  "check_route_independence"), "series.check")


def _patch_expr(tracer, module):
    _wrap_functions(tracer, module, ("parse_expr",), "expr.parse", record=True)


def _normal_form_terms(nf):
    if hasattr(nf, "pairs"):
        return len(nf.pairs)
    if hasattr(nf, "inner"):
        return len(nf.inner.items)
    return len(getattr(nf, "items", ()))


def _patch_normalize(tracer, module):
    def normalized(_args, result):
        tracer.counts["normalize.output_terms"] += _normal_form_terms(result)

    _wrap_functions(tracer, module, ("normalize_expr",), "normalize.normalize_expr",
                    record=True, after=normalized)


def _patch_algebras(tracer, module):
    def compared(_args, report):
        tracer.counts["algebras.instances"] += report.checked

    _wrap_functions(tracer, module, ("_compare",), "algebras.compare", after=compared)
    _wrap_functions(tracer, module, ("check_algebra", "lift_to_algebras",
                                     "algebra_from_function"), "algebras.call", record=True)


def _patch_globular(tracer, module):
    def applied(_args, result):
        tracer.counts["globular.cells_out"] += sum(result.counts())

    def oracle(_args, result):
        tracer.counts["globular.oracle_cells"] += sum(result)

    cls = getattr(module, "CompositionMonad", None)
    if cls is not None:
        _wrap_methods(tracer, cls, ("mult", "fmap", "unit"), "globular")
        _wrap_methods(tracer, cls, ("apply",), "globular", record=True, after=applied)
    _wrap_functions(tracer, module, ("boundary_to", "boundary"), "globular.boundary")
    _wrap_functions(tracer, module, ("interchange_law",), "globular.interchange")
    _wrap_functions(tracer, module, ("padded_transpose_candidate",), "globular.padded")
    _wrap_functions(tracer, module, ("free_ncat",), "globular.free_ncat", record=True)
    _wrap_functions(tracer, module, ("brute_force_oracle",), "globular.oracle",
                    record=True, after=oracle)
    # free_ncat validates its input; that report never reaches the caller
    _wrap_functions(tracer, module, ("validate_globular",), "globular.check", record=True)
    _wrap_checks(tracer, module, ("check_globular_monad_laws", "check_globular_distlaw",
                                  "check_interchange", "check_globular_yang_baxter"),
                 "globular.check")


PATCHERS = {
    "distlaw.terms": _patch_terms,
    "distlaw.monads": _patch_monads,
    "distlaw.laws": _patch_laws,
    "distlaw.checks": _patch_checks,
    "distlaw.series": _patch_series,
    "distlaw.expr": _patch_expr,
    "distlaw.normalize": _patch_normalize,
    "distlaw.algebras": _patch_algebras,
    "distlaw.globular": _patch_globular,
}


class _WrapOnLoad(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Finds distlaw submodules normally, then patches each right after it runs."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.loaders = {}

    def find_spec(self, fullname, path, target=None):
        if fullname not in PATCHERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None:
            return None
        self.loaders[fullname] = spec.loader
        spec.loader = self
        return spec

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        self.loaders[module.__name__].exec_module(module)
        PATCHERS[module.__name__](self.tracer, module)


def install(tracer):
    """Must run before distlaw is imported."""
    if any(name == "distlaw" or name.startswith("distlaw.") for name in sys.modules):
        raise RuntimeError("distlaw was imported before the tracer was installed")
    sys.meta_path.insert(0, _WrapOnLoad(tracer))


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer):
    """The benchmark's per-layer metrics from one traced pass."""
    s, n, c, incl = tracer.self_s, tracer.calls, tracer.counts, tracer.incl_s
    layers = tracer.layer_self_s()
    return {
        "terms.constructed": c["terms.constructed"],
        "terms.distinct_ratio": _ratio(len(tracer.distinct["terms"]), c["terms.constructed"]),
        "terms.self_s": layers.get("terms", 0.0),
        "monads.enumerate_calls": n["monads.enumerate"],
        "monads.enumerated": c["monads.enumerated"],
        "monads.enumerate_self_s": s["monads.enumerate"],
        "monads.mult_calls": n["monads.mult"],
        "monads.mult_self_s": s["monads.mult"],
        "monads.fmap_calls": n["monads.fmap"],
        "monads.fmap_self_s": s["monads.fmap"],
        "monads.self_s": layers.get("monads", 0.0),
        "laws.transform_calls": n["laws.transform"],
        "laws.transform_distinct_ratio": _ratio(len(tracer.distinct["laws.transform"]),
                                                n["laws.transform"]),
        "laws.transform_self_s": layers.get("laws", 0.0),
        "checks.instances": c["checks.instances"],
        "checks.compared": c["checks.compared"],
        "checks.witnesses": c["checks.witnesses"],
        "checks.both_error": c["checks.both_error"],
        "checks.self_s": layers.get("checks", 0.0),
        "series.compose_s": s["series.compose"],
        "series.composite_mult_calls": n["series.composite.mult"],
        "series.composite_mult_self_s": s["series.composite.mult"],
        "series.self_s": layers.get("series", 0.0),
        "expr.parse_self_s": layers.get("expr", 0.0),
        "normalize.calls": n["normalize.normalize_expr"],
        "normalize.self_s": layers.get("normalize", 0.0),
        "normalize.output_terms": c["normalize.output_terms"],
        "algebras.self_s": layers.get("algebras", 0.0),
        "algebras.instances": c["algebras.instances"],
        "globular.apply_calls": n["globular.apply"],
        "globular.apply_self_s": s["globular.apply"],
        "globular.cells_out": c["globular.cells_out"],
        "globular.boundary_calls": n["globular.boundary"],
        "globular.boundary_self_s": s["globular.boundary"],
        "globular.interchange_calls": n["globular.interchange"],
        "globular.free_ncat_s": incl["globular.free_ncat"],
        "globular.oracle_s": incl["globular.oracle"],
        "globular.oracle_cells": c["globular.oracle_cells"],
        "globular.self_s": layers.get("globular", 0.0),
        "bench.self_s": layers.get("bench", 0.0),
    }

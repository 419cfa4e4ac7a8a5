"""Outside-in tracing of the uniwkb layers for the benchmark's traced run.

Wrappers are installed on the module attributes that callers actually
resolve (`from .quadrature import integrate` binds a separate name, so
`spectral.integrate`, `metrics.integrate` and `reference.integrate` are
each wrapped) and every patched attribute is put back by `uninstall`.
The library itself is not modified: an untraced run is the unmodified
program.

Each wrapped call is a span (name, start, end, parent, item).  Spans stay
in memory and are written out at the end; the scalar hot paths
(`PotentialModel.eval`, the expression jet, the scalar Q bundle) run
millions of times a pass, so they are only aggregated, not kept as spans.
A layer's self time is its spans' duration minus the time of its traced
children.
"""

import dataclasses
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

from uniwkb import (airy, exprparse, metrics, potentials, reference,
                    spectral, wkb_core)

# (module, attribute, span name) of every plain timed wrapper
_TIMED = [
    (potentials, "find_minimum", "potentials.find_minimum"),
    (spectral, "find_minimum", "potentials.find_minimum"),
    (spectral, "find_turning_points", "potentials.find_turning_points"),
    (reference, "find_turning_points", "potentials.find_turning_points"),
    (spectral, "solve_quantization", "spectral.solve_quantization"),
    (metrics, "solve_quantization", "spectral.solve_quantization"),
    (spectral, "phase_integral", "spectral.phase_integral"),
    (spectral, "airy_argument", "spectral.airy_argument"),
    (spectral, "expectation_h2", "spectral.expectation_h2"),
    (metrics, "expectation_h2", "spectral.expectation_h2"),
    (metrics, "benchmark_row", "metrics.benchmark_row"),
    (metrics, "load_golden", "metrics.load_golden"),
    (metrics, "exact_wavefunction", "reference.exact_wavefunction"),
    (reference, "exact_wavefunction", "reference.exact_wavefunction"),
    (reference, "numerov_solve", "reference.numerov_solve"),
    # the oracle's grid march has no public boundary; one call is one sweep
    (reference, "_count_nodes", "reference.numerov_sweep"),
]
_HOT = [
    (potentials, "q_bundle", "potentials.q_bundle"),
    (spectral, "q_bundle", "potentials.q_bundle"),
    (reference, "q_bundle", "potentials.q_bundle"),
]
_AIRY = ("eval_many", "scaled_many", "modulus_many")
_SAMPLERS = ("psi", "dpsi", "h_psi")


class Tracer:
    def __init__(self):
        self._patches = []
        self.missing = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, child
        self.counts = Counter()
        self.by_parent = Counter()   # (name, parent name) -> calls
        self.spans = []
        self._stack = []             # frames: [child time, span id, name]
        self.item = None
        self._airy_depth = 0

    def reset(self):
        """Zero every figure in place (wrappers hold references to them)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.by_parent.clear()
        self.spans.clear()

    # ---- wrapping ----

    def timed(self, name, fn, keep_span=True):
        """fn wrapped in a span named name (aggregated only if not keep_span)."""
        stats = self.stats[name]
        by_parent = self.by_parent
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            by_parent[name, parent[2] if parent else None] += 1
            span_id = len(tracer.spans) if keep_span else None
            if keep_span:
                tracer.spans.append(None)
            frame = [0.0, span_id, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += frame[0]
                if parent is not None:
                    parent[0] += dt
                if keep_span:
                    tracer.spans[span_id] = (name, t0, t1,
                                             parent[1] if parent else None,
                                             tracer.item)
        return wrapper

    def _patch(self, module, attr, wrapper_of):
        if not hasattr(module, attr):
            self.missing.append("%s.%s" % (module.__name__, attr))
            return
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def install(self):
        for module, attr, name in _TIMED:
            self._patch(module, attr, lambda fn, name=name: self.timed(name, fn))
        for module, attr, name in _HOT:
            self._patch(module, attr,
                        lambda fn, name=name: self.timed(name, fn, keep_span=False))
        self._patch(spectral, "q_bundle_many", self._q_bundle_many)
        self._patch(spectral, "terms_many", self._terms_many)
        for attr in _AIRY:
            self._patch(airy, attr, lambda fn, attr=attr: self._airy(attr, fn))
        for module in (spectral, metrics, reference):
            self._patch(module, "integrate", self._integrate)
        for module in (spectral, potentials):
            self._patch(module, "hybrid_root", self._hybrid_root)
        self._patch(spectral, "CumulativeCheb", self._cheb)
        for module in (spectral, metrics):
            self._patch(module, "assemble", self._assemble)
        for module in (potentials, metrics):
            self._patch(module, "make_builtin", self._model_factory)
        self._patch(potentials, "parse_potential", self._model_factory)
        self._patch(exprparse, "compile_expr", self._compile_expr)

    def uninstall(self):
        """Put every patched attribute back, then check that it is back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        stray = ["%s.%s" % (m.__name__, a) for m, a, orig in self._patches
                 if getattr(m, a) is not orig]
        self._patches = []
        if stray:
            raise RuntimeError("tracer left patched attributes: %s" % stray)

    # ---- layer-specific wrappers ----

    def _q_bundle_many(self, fn):
        inner = self.timed("potentials.q_bundle_many", fn)
        counts = self.counts

        def wrapper(potential, q, E, mass):
            counts["potentials.q_bundle_many.points"] += np.size(q)
            return inner(potential, q, E, mass)
        return wrapper

    def _terms_many(self, fn):
        inner = self.timed("wkb_core.terms_many", fn)
        counts = self.counts

        def wrapper(Q, dQ, d2Q, d3Q, hbar, region):
            Qa = np.atleast_1d(np.asarray(Q, dtype=float))
            dQa = np.abs(np.atleast_1d(np.asarray(dQ, dtype=float)))
            with np.errstate(divide="ignore", invalid="ignore"):
                a = np.where(dQa > 0, Qa / (hbar * dQa) ** (2.0 / 3.0),
                             np.inf * np.sign(Qa))
            a = np.where(Qa == 0, 0.0, a)
            near = int(np.count_nonzero(np.abs(a) < wkb_core.A_SWITCH))
            counts["wkb_core.terms_many.points"] += Qa.size
            counts["wkb_core.points.airy"] += near
            counts["wkb_core.points.series"] += Qa.size - near
            return inner(Q, dQ, d2Q, d3Q, hbar, region)
        return wrapper

    def _airy(self, attr, fn):
        name = "airy." + attr
        inner = self.timed(name, fn)
        counts = self.counts
        tracer = self

        def wrapper(a):
            arr = np.atleast_1d(np.asarray(a, dtype=float))
            counts[name + ".points"] += arr.size
            if tracer._airy_depth:
                return inner(a)
            # classify at the outermost Airy call only, with the module's own
            # regime radii, so nested calls are not counted twice
            mac = np.abs(arr) <= airy.SERIES_RADIUS
            asp = arr >= airy.ASYM_RADIUS
            asn = arr <= -airy.ASYM_RADIUS
            counts["airy.points.maclaurin"] += int(np.count_nonzero(mac))
            counts["airy.points.asym_pos"] += int(np.count_nonzero(asp))
            counts["airy.points.asym_neg"] += int(np.count_nonzero(asn))
            counts["airy.points.midrange"] += int(
                np.count_nonzero(~(mac | asp | asn)))
            counts["airy.outer.points"] += arr.size
            tracer._airy_depth += 1
            t0 = time.perf_counter()
            try:
                return inner(a)
            finally:
                tracer.stats["airy.outer"][1] += time.perf_counter() - t0
                tracer._airy_depth -= 1
        return wrapper

    def _integrate(self, fn):
        inner = self.timed("quadrature.integrate", fn)
        counts = self.counts

        def wrapper(f, a, b, *args, **kwargs):
            timed_f = self.timed("quadrature.integrand", f)

            def integrand(x):
                counts["quadrature.panels"] += 1
                counts["quadrature.nodes"] += np.size(x)
                return timed_f(x)
            return inner(integrand, a, b, *args, **kwargs)
        return wrapper

    def _hybrid_root(self, fn):
        inner = self.timed("rootfind.hybrid_root", fn)
        counts = self.counts

        def wrapper(f, *args, **kwargs):
            timed_f = self.timed("rootfind.f", f)

            def counted(x):
                counts["rootfind.hybrid_root.f_evals"] += 1
                return timed_f(x)
            return inner(counted, *args, **kwargs)
        return wrapper

    def _cheb(self, cls):
        build = self.timed("quadrature.cheb.build", cls)
        counts = self.counts
        tracer = self

        def factory(f, breakpoints, *args, **kwargs):
            timed_f = self.timed("quadrature.cheb.f", f)

            def fitted(x):
                counts["quadrature.cheb.nodes"] += np.size(x)
                return timed_f(x)
            counts["quadrature.cheb.fits"] += len(breakpoints) - 1
            return _TracedCheb(build(fitted, breakpoints, *args, **kwargs),
                               tracer.timed("quadrature.cheb.eval", lambda c, x: c(x)))
        return factory

    def _assemble(self, fn):
        inner = self.timed("spectral.assemble", fn)

        def wrapper(*args, **kwargs):
            sol = inner(*args, **kwargs)
            return dataclasses.replace(sol, **{
                s: self.timed("spectral." + s, getattr(sol, s)) for s in _SAMPLERS})
        return wrapper

    def _model_factory(self, fn):
        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            return dataclasses.replace(
                model, eval=self.timed("potentials.eval", model.eval, keep_span=False))
        return wrapper

    def _compile_expr(self, fn):
        def wrapper(*args, **kwargs):
            return self.timed("exprparse.jet", fn(*args, **kwargs), keep_span=False)
        return wrapper

    # ---- results ----

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name):
        if name not in self.stats:
            return 0.0
        _, total, child = self.stats[name]
        return total - child

    def stage_s(self, parent, excluded):
        """Time in spans named parent minus their direct children in excluded."""
        total = 0.0
        for span in self.spans:
            if span[0] == parent:
                total += span[2] - span[1]
            elif span[0] in excluded and span[3] is not None \
                    and self.spans[span[3]][0] == parent:
                total -= span[2] - span[1]
        return total

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, item) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent, item]) + "\n")


class _TracedCheb:
    """CumulativeCheb stand-in whose evaluations are timed."""

    def __init__(self, real, timed_call):
        self._real = real
        self._call = timed_call

    def __call__(self, x):
        return self._call(self._real, x)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, load_golden_s):
    """The per-layer metrics of one traced pass, by name: (value, unit).

    load_golden_s is the golden-table load time, which falls in set-up.
    """
    c = tr.counts
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("potentials.eval.calls", tr.calls("potentials.eval"), "count")
    put("potentials.eval.self_s", tr.self_s("potentials.eval"), "s")
    put("potentials.q_bundle_many.calls", tr.calls("potentials.q_bundle_many"), "count")
    put("potentials.q_bundle_many.points", c["potentials.q_bundle_many.points"], "count")
    put("potentials.q_bundle_many.self_s", tr.self_s("potentials.q_bundle_many"), "s")
    for fn in ("find_minimum", "find_turning_points"):
        put("potentials.%s.calls" % fn, tr.calls("potentials." + fn), "count")
        put("potentials.%s.self_s" % fn, tr.self_s("potentials." + fn), "s")
    put("exprparse.jet.calls", tr.calls("exprparse.jet"), "count")
    put("exprparse.jet.self_s", tr.self_s("exprparse.jet"), "s")
    for fn in _AIRY:
        name = "airy." + fn
        put(name + ".calls", tr.calls(name), "count")
        put(name + ".points", c[name + ".points"], "count")
        put(name + ".self_s", tr.self_s(name), "s")
    put("airy.points_per_s",
        _ratio(c["airy.outer.points"], tr.total("airy.outer")), "1/s")
    for regime in ("maclaurin", "midrange", "asym_pos", "asym_neg"):
        put("airy.points." + regime, c["airy.points." + regime], "count")
    put("wkb_core.terms_many.calls", tr.calls("wkb_core.terms_many"), "count")
    put("wkb_core.terms_many.points", c["wkb_core.terms_many.points"], "count")
    put("wkb_core.terms_many.self_s", tr.self_s("wkb_core.terms_many"), "s")
    put("wkb_core.points.airy", c["wkb_core.points.airy"], "count")
    put("wkb_core.points.series", c["wkb_core.points.series"], "count")
    integrals = tr.calls("quadrature.integrate")
    put("quadrature.integrate.calls", integrals, "count")
    put("quadrature.panels", c["quadrature.panels"], "count")
    put("quadrature.nodes", c["quadrature.nodes"], "count")
    put("quadrature.integrate.self_s", tr.self_s("quadrature.integrate"), "s")
    put("quadrature.panels_per_integral", _ratio(c["quadrature.panels"], integrals),
        "count")
    put("quadrature.cheb.fits", c["quadrature.cheb.fits"], "count")
    put("quadrature.cheb.nodes", c["quadrature.cheb.nodes"], "count")
    put("quadrature.cheb.build_s", tr.self_s("quadrature.cheb.build"), "s")
    put("quadrature.cheb.eval_calls", tr.calls("quadrature.cheb.eval"), "count")
    put("quadrature.cheb.eval_s", tr.self_s("quadrature.cheb.eval"), "s")
    put("rootfind.hybrid_root.calls", tr.calls("rootfind.hybrid_root"), "count")
    put("rootfind.hybrid_root.f_evals", c["rootfind.hybrid_root.f_evals"], "count")
    put("rootfind.hybrid_root.self_s", tr.self_s("rootfind.hybrid_root"), "s")
    levels = tr.calls("spectral.solve_quantization")
    put("spectral.solve_quantization.s", tr.total("spectral.solve_quantization"), "s")
    put("spectral.assemble.s", tr.total("spectral.assemble"), "s")
    put("spectral.phase_integral.calls", tr.calls("spectral.phase_integral"), "count")
    put("spectral.phase_integral.per_level",
        _ratio(tr.calls("spectral.phase_integral"), levels), "count")
    put("spectral.expectation_h2.s", tr.total("spectral.expectation_h2"), "s")
    put("spectral.samplers.s",
        sum(tr.total("spectral." + s) for s in _SAMPLERS), "s")
    put("metrics.stage_s",
        tr.stage_s("metrics.benchmark_row",
                   ("spectral.solve_quantization", "spectral.assemble")), "s")
    put("metrics.load_golden.s", load_golden_s, "s")
    put("reference.exact_wavefunction.s", tr.total("reference.exact_wavefunction"), "s")
    put("reference.numerov_solve.s", tr.total("reference.numerov_solve"), "s")
    sweeps = tr.calls("reference.numerov_sweep")
    put("reference.numerov_sweeps", sweeps, "count")
    put("reference.sweeps_per_level",
        _ratio(sweeps, tr.calls("reference.numerov_solve")), "count")
    put("reference.grid_points",
        tr.by_parent["potentials.eval", "reference.numerov_sweep"], "count")
    return m

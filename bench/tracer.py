"""Per-layer spans and counts, taken from outside the package.

The tracer replaces public functions with timing wrappers at the module
attribute their callers look up (``from x import f`` binds ``f`` in the
importing module, so each import site is wrapped separately).  A span's self
time is its duration minus the spans nested in it.  Work the tracer does for
itself inside a span (counting, the ``np.cos`` comparison) is measured and
taken out of every enclosing span, so only the wrapper bookkeeping remains
as overhead; the traced run reports that overhead against untraced runs of
the same jobs.

A wrap point that no longer exists (say a later change moves ``integrate``
out of ``_kernels``) is recorded in ``missing`` and skipped; the metrics it
fed read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# Trig arrays up to this many values count as small (quadrature panels),
# larger ones as large (partial sums over grids).
SMALL_TRIG = 4096
# Every NPCOS_EVERY-th cospi call is repeated with np.cos(pi * t) for the
# cost ratio.
NPCOS_EVERY = 8

_TRIG_SITES = ("antifourier._kernels", "antifourier.classical", "antifourier.antiperiodic",
               "antifourier.heat")
_EVALUATE_SITES = ("antifourier.catalog", "antifourier.cli", "antifourier._kernels",
                   "antifourier.antiperiodic", "antifourier.diagnostics", "antifourier.heat")

# (module, attribute, span name)
WRAP_POINTS = (
    (("antifourier.cli", "main", "cli.main"),
     ("antifourier.cli", "parse_function_spec", "catalog.parse"))
    + tuple((site, "evaluate", "catalog.evaluate") for site in _EVALUATE_SITES)
    + (("antifourier._kernels", "integrate", "quadrature.integrate"),
       ("antifourier.classical", "project", "kernels.project"),
       ("antifourier.antiperiodic", "project", "kernels.project"))
    + tuple((site, name, "trig." + name) for site in _TRIG_SITES for name in ("cospi", "sinpi"))
    + (("antifourier.cli", "classical_coefficients", "classical.coefficients"),
       ("antifourier.cli", "antiperiodic_coefficients", "antiperiodic.coefficients"),
       ("antifourier.diagnostics", "classical_partial_sum", "classical.partial_sum"),
       ("antifourier.diagnostics", "antiperiodic_partial_sum", "antiperiodic.partial_sum"),
       ("antifourier.cli", "partial_sum", "diagnostics.partial_sum"),
       ("antifourier.diagnostics", "partial_sum", "diagnostics.partial_sum"),
       ("antifourier.cli", "compare_orders", "diagnostics.compare_orders"),
       ("antifourier.cli", "gibbs_overshoot", "diagnostics.gibbs_overshoot"),
       ("antifourier.diagnostics", "gibbs_overshoot", "diagnostics.gibbs_overshoot"),
       ("antifourier.diagnostics", "error_profile", "diagnostics.error_profile"),
       ("antifourier.diagnostics", "decay_exponent", "diagnostics.decay_exponent"),
       ("antifourier.cli", "solve_heat", "heat.solve"),
       ("antifourier.cli", "heat_eval", "heat.eval"),
       ("antifourier.cli", "heat_eval_dx", "heat.eval_dx"),
       ("antifourier.io", "dumps", "io.dumps"),
       ("antifourier.io", "to_dict", "io.to_dict"),
       ("antifourier.io", "csv_text", "io.csv_text"),
       ("antifourier.io", "report_csv", "io.report_csv"),
       ("antifourier.io", "write_text_atomic", "io.write_text_atomic"),
       ("antifourier.io", "load_coefficients", "io.load"))
)

_SERIALIZE = ("io.dumps", "io.to_dict", "io.csv_text", "io.report_csv", "io.write_text_atomic")

# Per-layer metrics in report order: name -> unit.  Times are seconds of the
# traced pass; "_s" names are inclusive span time unless the name says self.
LAYER_METRICS = {
    "quadrature.integrate_calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.points_per_call": "count",
    "quadrature.self_s": "s",
    "kernels.project_calls": "count",
    "kernels.project_self_s": "s",
    "kernels.table_project_s": "s",
    "trig.calls": "count",
    "trig.values": "count",
    "trig.self_s": "s",
    "trig.ns_per_value_small": "ns",
    "trig.ns_per_value_large": "ns",
    "trig.cost_vs_npcos": "ratio",
    "catalog.parse_s": "s",
    "catalog.evaluate_s": "s",
    "catalog.evaluate_points": "count",
    "classical.coefficients_s": "s",
    "antiperiodic.coefficients_s": "s",
    "classical.partial_sum_s": "s",
    "antiperiodic.partial_sum_s": "s",
    "diagnostics.compare_s": "s",
    "diagnostics.self_s": "s",
    "diagnostics.partial_sum_values": "count",
    "heat.solve_s": "s",
    "heat.eval_s": "s",
    "heat.eval_dx_s": "s",
    "io.serialize_s": "s",
    "io.load_s": "s",
    "io.bytes_out": "B",
    "cli.self_s": "s",
    "classical.max_coef_err": "abs",
    "antiperiodic.max_coef_err": "abs",
    "heat.boundary_defect": "rel",
    "trace.overhead_frac": "ratio",
}

# Counts that do not depend on the hardware: equal for equal seed and code.
EXACT_COUNTS = ("quadrature.integrand_points", "trig.values", "diagnostics.partial_sum_values",
                "io.bytes_out")


class Tracer:
    """Span and count accumulator; :meth:`install` wraps, :meth:`uninstall` restores."""

    def __init__(self):
        self.stack = []  # one [child time, hidden time] frame per open span
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(float)
        self.detail = defaultdict(lambda: [0, 0.0])  # "span[key]" -> [calls, s]
        self.missing = []
        self._installed = []
        self._cospi_calls = 0
        self._hooks = {
            "catalog.evaluate": self._on_evaluate,
            "kernels.project": self._on_project,
            "trig.cospi": self._on_cospi,
            "trig.sinpi": self._on_trig,
            "diagnostics.partial_sum": self._on_partial_sum,
            "classical.coefficients": self._on_coefficients,
            "antiperiodic.coefficients": self._on_coefficients,
            "io.write_text_atomic": self._on_write,
        }

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` recorded as span ``name``; ``hook(name, args, dt)`` runs
        after each call, outside every span's time."""
        stack = self.stack
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start - frame[1]
                stack.pop()
                record[0] += 1
                record[1] += dt
                record[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                start = clock()
                hook(name, args, dt)
                self._hide(clock() - start)
            return result

        return wrapper

    def _hide(self, seconds):
        for frame in self.stack:
            frame[1] += seconds

    def _wrap_integrate(self, fn):
        count = self._on_integrand

        def integrate(f, *args, **kwargs):
            return fn(self.wrap("kernels.integrand", f, count), *args, **kwargs)

        return self.wrap("quadrature.integrate", functools.wraps(fn)(integrate))

    def install(self):
        self.missing = []
        for module_name, attr, span in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span == "quadrature.integrate":
                wrapped = self._wrap_integrate(original)
            else:
                wrapped = self.wrap(span, original, self._hooks.get(span))
            setattr(module, attr, wrapped)
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- hooks ----------------------------------------------------------------

    def _on_evaluate(self, name, args, dt):
        self.counts["catalog.evaluate_points"] += np.size(args[1])

    def _on_integrand(self, name, args, dt):
        self.counts["quadrature.integrand_points"] += np.size(args[0])

    def _on_project(self, name, args, dt):
        if type(args[0].body).__name__ == "Sampled":
            self.counts["kernels.table_project_s"] += dt

    def _on_trig(self, name, args, dt):
        size = np.size(args[0])
        band = "small" if size <= SMALL_TRIG else "large"
        self.counts["trig.values"] += size
        self.counts[f"trig.values_{band}"] += size
        self.counts[f"trig.s_{band}"] += dt

    def _on_cospi(self, name, args, dt):
        self._on_trig(name, args, dt)
        self._cospi_calls += 1
        if self._cospi_calls % NPCOS_EVERY == 0:
            t = np.asarray(args[0], dtype=float)
            start = time.perf_counter()
            np.cos(np.pi * t)
            self.counts["trig.npcos_s"] += time.perf_counter() - start
            self.counts["trig.cospi_sampled_s"] += dt

    def _on_partial_sum(self, name, args, dt):
        series, x = args[0], args[1]
        M = args[2] if len(args) > 2 and args[2] is not None else series.N
        size = np.size(x)
        self.counts["diagnostics.partial_sum_values"] += size * (M + 1)
        kind = type(series).__name__.replace("Coefficients", "").lower()
        entry = self.detail[f"{name}[{kind},M={M},points={size}]"]
        entry[0] += 1
        entry[1] += dt

    def _on_coefficients(self, name, args, dt):
        entry = self.detail[f"{name}[N={args[1]}]"]
        entry[0] += 1
        entry[1] += dt

    def _on_write(self, name, args, dt):
        self.counts["io.bytes_out"] += len(args[1].encode("utf-8"))

    # -- results ----------------------------------------------------------------

    def _total(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def _self(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def _calls(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS entry the trace provides (accuracy and overhead
        readings are added by the caller)."""
        c = self.counts
        calls = self._calls("quadrature.integrate")
        points = c["quadrature.integrand_points"]

        def per_value(band):
            values = c[f"trig.values_{band}"]
            return 1e9 * c[f"trig.s_{band}"] / values if values else 0.0

        return {
            "quadrature.integrate_calls": calls,
            "quadrature.integrand_points": points,
            "quadrature.points_per_call": points / calls if calls else 0.0,
            "quadrature.self_s": self._self("quadrature.integrate"),
            "kernels.project_calls": self._calls("kernels.project"),
            "kernels.project_self_s": self._self("kernels.project", "kernels.integrand"),
            "kernels.table_project_s": c["kernels.table_project_s"],
            "trig.calls": self._calls("trig.cospi", "trig.sinpi"),
            "trig.values": c["trig.values"],
            "trig.self_s": self._self("trig.cospi", "trig.sinpi"),
            "trig.ns_per_value_small": per_value("small"),
            "trig.ns_per_value_large": per_value("large"),
            "trig.cost_vs_npcos": (c["trig.cospi_sampled_s"] / c["trig.npcos_s"]
                                   if c["trig.npcos_s"] else 0.0),
            "catalog.parse_s": self._total("catalog.parse"),
            "catalog.evaluate_s": self._total("catalog.evaluate"),
            "catalog.evaluate_points": c["catalog.evaluate_points"],
            "classical.coefficients_s": self._total("classical.coefficients"),
            "antiperiodic.coefficients_s": self._total("antiperiodic.coefficients"),
            "classical.partial_sum_s": self._total("classical.partial_sum"),
            "antiperiodic.partial_sum_s": self._total("antiperiodic.partial_sum"),
            "diagnostics.compare_s": self._total("diagnostics.compare_orders"),
            "diagnostics.self_s": self._self(*(n for n in self.spans
                                               if n.startswith("diagnostics."))),
            "diagnostics.partial_sum_values": c["diagnostics.partial_sum_values"],
            "heat.solve_s": self._total("heat.solve"),
            "heat.eval_s": self._total("heat.eval"),
            "heat.eval_dx_s": self._total("heat.eval_dx"),
            "io.serialize_s": self._self(*_SERIALIZE),
            "io.load_s": self._total("io.load"),
            "io.bytes_out": c["io.bytes_out"],
            "cli.self_s": self._self("cli.main"),
        }

    def span_table(self) -> dict:
        """Per-span calls, inclusive and self seconds, plus keyed detail."""
        table = {name: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                 for name, r in sorted(self.spans.items()) if r[0]}
        table.update({key: {"calls": r[0], "total_s": r[1]}
                      for key, r in sorted(self.detail.items())})
        return table

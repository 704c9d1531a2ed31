"""Spans and counters recorded from outside the program, and the per-layer
metrics derived from them.

The traced run wraps public functions of parmirror at every module name
they are bound to (``tms``, ``cli``, ``cstar_fixed`` and ``pgl_fixed``
import them by name), counts calls to the polynomial ring operations, and
keeps spans in memory until the run ends. A span is ``[id, name, start,
end, parent, run_id]``; a layer's self time is its span duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from math import factorial

# (module, function) -> span name; the metric a span feeds is in SPAN_METRICS.
SPAN_TARGETS = (
    ("chambers", "sample_generic_weights"),
    ("chambers", "is_generic"),
    ("chambers", "enumerate_walls"),
    ("kernels", "enumerate_census"),
    ("cstar_fixed", "enumerate_components"),
    ("cstar_fixed", "variant_total_bruteforce"),
    ("cstar_fixed", "variant_closed_form"),
    ("cstar_fixed", "variant_total_cyclotomic"),
    ("cstar_fixed", "components_to_csv"),
    ("pgl_fixed", "stringy_gamma_sum"),
    ("torsion", "check_component_action"),
    ("tms", "verify_identity"),
    ("tms", "sweep"),
    ("tms", "report_to_jsonable"),
    ("tms", "sweep_to_jsonable"),
    ("tms", "sweep_to_csv_rows"),
    ("tms", "dumps_canonical"),
)

ROOT_SPAN = "cli.main"

SPAN_METRICS = {
    "chambers.sample_generic_weights": "chambers.sample_s",
    "chambers.is_generic": "chambers.generic_s",
    "chambers.enumerate_walls": "chambers.walls_s",
    "kernels.enumerate_census": "kernels.scan_s",
    "cstar_fixed.enumerate_components": "cstar_fixed.materialize_s",
    "cstar_fixed.variant_total_bruteforce": "cstar_fixed.bruteforce_s",
    "cstar_fixed.variant_closed_form": "cstar_fixed.closed_s",
    "cstar_fixed.variant_total_cyclotomic": "cstar_fixed.cyclotomic_s",
    "cstar_fixed.components_to_csv": "cstar_fixed.csv_s",
    "pgl_fixed.stringy_gamma_sum": "pgl_fixed.stringy_s",
    # per-gamma action checks are part of the stringy side
    "torsion.check_component_action": "pgl_fixed.stringy_s",
    "tms.verify_identity": "tms.verify_s",
    "tms.sweep": "tms.sweep_s",
    "tms.report_to_jsonable": "tms.serialize_s",
    "tms.sweep_to_jsonable": "tms.serialize_s",
    "tms.sweep_to_csv_rows": "tms.serialize_s",
    "tms.dumps_canonical": "tms.serialize_s",
    ROOT_SPAN: "cli.self_s",
}

# Ring operations counted (not timed): (class, method) -> counter name.
COUNTED_METHODS = (
    ("BivarPoly", "__mul__", "exactpoly.bivar_mul"),
    ("BivarPoly", "__add__", "exactpoly.bivar_add"),
    ("CycBivarPoly", "__mul__", "exactpoly.cyc_mul"),
    ("CycBivarPoly", "__add__", "exactpoly.cyc_add"),
)

BACKENDS = ("python", "compiled")


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; generator results are drained inside it."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [sid, name, self.clock(), None, parent, self.run_id]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
            if inspect.isgenerator(out):
                out = iter(list(out))
            return out
        finally:
            span[3] = self.clock()
            self._stack.pop()
            self.counts[name] += 1

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(out, *args, **kwargs)
            return out

        return traced

    def counting(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted


def rebind(original, replacement, modules) -> None:
    """Point every module attribute bound to original at replacement."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def package_modules(package: str = "parmirror"):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Probe:
    """Instrumentation of an imported parmirror, with the data the hooks
    collect. ``restore`` puts every original binding back."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.walls_by_params: dict[tuple, int] = {}
        self.census_calls: list[tuple[tuple, list]] = []
        self.component_calls: list[tuple] = []
        self._rebound: list[tuple] = []  # (original, wrapper)
        self._patched: list[tuple] = []  # (class, method name, original)
        self._install()

    def _on_walls(self, walls, p):
        self.walls_by_params[(p.n, p.g, p.k, p.d)] = len(walls)

    def _on_census(self, rows, *args):
        n, g, k, d, wnum, wden = args[:6]
        lo = args[6] if len(args) > 6 else 0
        hi = args[7] if len(args) > 7 else None
        first = factorial(n) if hi is None else hi
        self.rec.counts["kernels.tuples"] += (first - lo) * factorial(n) ** (k - 1)
        self.rec.counts["kernels.rows"] += len(rows)
        self.census_calls.append(((n, g, k, d, wnum, wden, lo, hi), rows))

    def _on_components(self, components, p, *args, **kwargs):
        self.component_calls.append((p.g, components))

    def _on_json(self, text, *args, **kwargs):
        self.rec.counts["tms.json_bytes"] += len(text.encode("utf-8"))

    def _install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        hooks = {
            "enumerate_walls": self._on_walls,
            "enumerate_census": self._on_census,
            "enumerate_components": self._on_components,
            "dumps_canonical": self._on_json,
        }
        everywhere = package_modules()
        for modname, fname in SPAN_TARGETS:
            original = getattr(mods[modname], fname)
            wrapped = self.rec.wrap(f"{modname}.{fname}", original, hooks.get(fname))
            rebind(original, wrapped, everywhere)
            self._rebound.append((original, wrapped))
        exactpoly = mods["exactpoly"]
        for cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(exactpoly, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.rec.counting(counter, original))
            self._patched.append((cls, method, original))

    def restore(self):
        for cls, method, original in self._patched:
            setattr(cls, method, original)
        everywhere = package_modules()
        for original, wrapped in self._rebound:
            rebind(wrapped, original, everywhere)
        self._patched.clear()
        self._rebound.clear()

    def component_stats(self) -> dict:
        rows = distinct = supported = 0
        for g, components in self.component_calls:
            rows += len(components)
            distinct += len({c.m for c in components})
            supported += sum(1 for c in components if max(c.m, default=0) <= 2 * g - 2)
        return {"components": rows, "distinct_m": distinct, "supported": supported}

    def backend_parity(self, kernels) -> dict:
        """Re-run every recorded census call on each importable backend,
        require rows identical to the traced call, and time each backend."""
        times = {}
        for name in sorted(kernels.backends()):
            start = time.perf_counter()
            results = [kernels.enumerate_census(*args, backend=name) for args, _ in self.census_calls]
            times[name] = time.perf_counter() - start
            for (args, rows), again in zip(self.census_calls, results):
                if list(again) != list(rows):
                    raise AssertionError(f"backend {name} rows differ on census {args[:4]}")
        return times


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the union of the parts of
    its interval covered by its direct children."""
    children: dict[int, list] = {}
    for sid, _name, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics from one traced run's document. The overhead is the
    traced run's wall time, less its backend parity re-runs, minus the
    untraced median of the same operation."""
    spans = trace["spans"]
    counts = trace["counts"]
    own = self_times(spans)
    metrics = {name: 0.0 for name in sorted(set(SPAN_METRICS.values()))}
    for sid, name, *_ in spans:
        metrics[SPAN_METRICS[name]] += own[sid]
    roots = [s for s in spans if s[1] == ROOT_SPAN]
    root_s = sum(s[3] - s[2] for s in roots)
    comp = trace["components"]
    metrics.update({
        "chambers.walls": sum(trace["walls_by_params"].values()),
        "chambers.generic_calls": counts.get("chambers.is_generic", 0),
        "kernels.tuples": counts.get("kernels.tuples", 0),
        "kernels.rows": counts.get("kernels.rows", 0),
        "cstar_fixed.components": comp["components"],
        "cstar_fixed.distinct_m": comp["distinct_m"],
        "cstar_fixed.support_frac": comp["supported"] / comp["components"] if comp["components"] else 0.0,
        "torsion.action_checks": counts.get("torsion.check_component_action", 0),
        "tms.json_bytes": counts.get("tms.json_bytes", 0),
        "trace.coverage": 1.0 - metrics["cli.self_s"] / root_s if root_s else 0.0,
        "trace.overhead_s": traced_wall_s - sum(trace["parity_s"].values()) - untraced_wall_s,
    })
    for _cls, _method, counter in COUNTED_METHODS:
        metrics[counter] = counts.get(counter, 0)
    for backend in BACKENDS:
        metrics[f"kernels.scan_s.{backend}"] = trace["parity_s"].get(backend, 0.0)
    return metrics

"""Per-layer tracing of mgmetric from outside the package.

``Tracer.install`` wraps the package's public entry points in spans and
its two kernels -- ``GMetric`` evaluation and ``SelfMap`` evaluation --
in counters.  A kernel runs millions of times at about a microsecond
each, so instead of a span per call it adds an exact count and a total
time to the innermost open span.  Spans stay in memory; ``layers``
turns them into the per-layer metrics when a pass ends.

Self time of a span is its duration minus its child spans and the
kernel time recorded in it.  Nothing under ``src/`` is modified: the
wrappers replace module and class attributes and are removed again by
``uninstall``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

clock = time.perf_counter

# Span names per layer.  Entry points are found by identity in every
# loaded mgmetric module, so a name re-exported elsewhere is wrapped too.
_FUNCTIONS = {
    "check_mult_axioms": "metric.axiom_suite",
    "check_gm_axioms": "metric.axiom_suite",
    "check_gm_properties": "metric.axiom_suite",
    "certify_region": "contraction.certify",
    "solve_fixed_point": "solver.solve",
    "load_fixture_config": "fixtures.load",
    "get_fixture": "fixtures.load",
    "_build_parser": "cli.parse",
}
_METHODS = {"to_dict": "report.to_dict", "to_csv": "report.to_csv"}


def _count_samples(span, report) -> None:
    span.units = report.samples


def _count_iterations(span, result) -> None:
    span.units = result.iterations_used


class Span:
    __slots__ = ("parent", "name", "t0", "t1", "g_calls", "g_s", "map_calls", "map_s", "units")

    def __init__(self, parent: "Span | None", name: str):
        self.parent = parent
        self.name = name
        self.t0 = self.t1 = 0.0
        self.g_calls = self.map_calls = 0
        self.g_s = self.map_s = 0.0
        self.units = 0  # samples of a certify span, iterations of a solve span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(self._stack[-1] if self._stack else None, name)
        self.spans.append(span)
        self._stack.append(span)
        span.t0 = clock()
        return span

    def close(self, span: Span) -> None:
        span.t1 = clock()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a root span named ``name``."""
        span = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def reset(self) -> None:
        self.spans = []

    # -- wrappers -----------------------------------------------------

    def _entry(self, name: str, orig, hook=None):
        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            span = self.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                hook(span, result)
            return result
        return wrapped

    def _wrap_parse(self, span: Span, parser) -> None:
        # argparse's parse_args belongs to the same layer as building the parser
        parser.parse_args = self._entry("cli.parse", parser.parse_args)

    def _kernel(self, orig, kind: str):
        stack = self._stack

        if kind == "g":
            def wrapped(*args):
                t0 = clock()
                result = orig(*args)
                span = stack[-1]
                span.g_s += clock() - t0
                span.g_calls += 1
                return result
        else:
            def wrapped(*args):
                t0 = clock()
                result = orig(*args)
                span = stack[-1]
                span.map_s += clock() - t0
                span.map_calls += 1
                return result
        return functools.wraps(orig)(wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from mgmetric import _jsonutil
        from mgmetric.contraction import SelfMap
        from mgmetric.metric import GMetric

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mgmetric" or name.startswith("mgmetric."))]
        hooks = {"certify_region": _count_samples, "solve_fixed_point": _count_iterations,
                 "_build_parser": self._wrap_parse}
        originals = {}
        for module in modules:
            for attr, layer in _FUNCTIONS.items():
                fn = module.__dict__.get(attr)
                if fn is not None and getattr(fn, "__module__", "").startswith("mgmetric"):
                    if fn not in originals:
                        originals[fn] = self._entry(layer, fn, hooks.get(attr))
                    self._patch(module, attr, originals[fn])
            for cls in {v for v in module.__dict__.values()
                        if isinstance(v, type) and v.__module__ == module.__name__}:
                for attr, layer in _METHODS.items():
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self._entry(layer, cls.__dict__[attr]))
        self._patch(_jsonutil, "dumps", self._entry("report.render", _jsonutil.dumps))
        self._patch(GMetric, "__call__", self._kernel(GMetric.__call__, "g"))
        self._patch(GMetric, "value", self._kernel(GMetric.value, "g"))
        self._patch(SelfMap, "__call__", self._kernel(SelfMap.__call__, "map"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- per-layer metrics ----------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer totals over the recorded spans (one pass)."""
        child = {id(s): 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] += s.t1 - s.t0
        self_s: dict[str, float] = {}
        g_in: dict[str, int] = {}
        units: dict[str, int] = {}
        g_calls = map_calls = 0
        g_s = map_s = 0.0
        parse_per_cmd: dict[int, float] = {}
        for s in self.spans:
            own = (s.t1 - s.t0) - child[id(s)] - s.g_s - s.map_s
            self_s[s.name] = self_s.get(s.name, 0.0) + own
            g_in[s.name] = g_in.get(s.name, 0) + s.g_calls
            units[s.name] = units.get(s.name, 0) + s.units
            g_calls += s.g_calls
            map_calls += s.map_calls
            g_s += s.g_s
            map_s += s.map_s
            if s.name == "cli.parse":
                root = s
                while root.parent is not None:
                    root = root.parent
                parse_per_cmd[id(root)] = parse_per_cmd.get(id(root), 0.0) + (s.t1 - s.t0)

        def ms(name: str) -> float:
            return 1e3 * self_s.get(name, 0.0)

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        return {
            "cli.parse_ms": 1e3 * statistics.median(parse_per_cmd.values())
            if parse_per_cmd else 0.0,
            "metric.g_calls": g_calls,
            "metric.g_self_ms": 1e3 * g_s,
            "metric.g_ns_per_call": 1e9 * g_s / g_calls if g_calls else 0.0,
            "metric.axiom_suite_self_ms": ms("metric.axiom_suite"),
            "contraction.map_calls": map_calls,
            "contraction.map_self_ms": 1e3 * map_s,
            "contraction.certify_self_ms": ms("contraction.certify"),
            "contraction.g_calls_per_triple": ratio(g_in.get("contraction.certify", 0),
                                                    units.get("contraction.certify", 0)),
            "solver.iterations": units.get("solver.solve", 0),
            "solver.self_ms": ms("solver.solve"),
            "solver.g_calls_per_iter": ratio(g_in.get("solver.solve", 0),
                                             units.get("solver.solve", 0)),
            "fixtures.config_load_ms": ms("fixtures.load"),
            "report.to_dict_ms": ms("report.to_dict"),
            "report.render_ms": ms("report.render"),
            "report.csv_ms": ms("report.to_csv"),
        }

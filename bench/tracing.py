"""Span tracing of shancode's public functions, installed from outside ``src/``.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent, info) in memory.  The wrapper is installed under every
module-level name that resolves to the original function, so calls through
re-exports such as ``asymptotics.classify_structure`` or
``cli.validate`` are traced as well as calls through the defining module.
``info`` holds one number or string read from the call's arguments or
return value (mantissa bits, exact strategy, draw count, ...).

A layer is the module that defines the function, taken from the span name
prefix.  Self time is a span's duration minus the durations of its direct
children; spans nest strictly because everything runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "sources", "exact", "oracle", "asymptotics", "spectral", "fejer")


def _mantissa_bits(args, kwargs, result):
    return max(result.mantissa.numerator.bit_length(), result.mantissa.denominator.bit_length())


def _method(args, kwargs, result):
    return result.method


def _bound(fn):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return get


def _draws(fn):
    get = _bound(fn)

    def draws(args, kwargs, result):
        a = get(args, kwargs)
        return a["n"] * a["samples"]

    return draws


def _char_fn_steps(fn):
    get = _bound(fn)

    def steps(args, kwargs, result):
        a = get(args, kwargs)
        # only the direct mode performs n - 1 vector-matrix steps
        return a["n"] - 1 if a["mode"] == "direct" else 0

    return steps


def _rho_history_len(args, kwargs, result):
    return len(result.rho_history)


# (span name, module, attribute path, info extractor or factory taking the function)
TARGETS = (
    ("cli.main", "shancode.cli", "main", None),
    ("cli.render", "shancode.cli", "render", None),
    ("sources.load", "shancode.sources", "MarkovSource.load", None),
    ("sources.validate", "shancode.sources", "validate", None),
    ("sources.classify_structure", "shancode.sources", "classify_structure", None),
    ("sources.stationary_distribution", "shancode.sources", "stationary_distribution", None),
    ("exact.Log2Value.scaled", "shancode.exact", "Log2Value.scaled", lambda fn: _mantissa_bits),
    ("oracle.exact_redundancy", "shancode.oracle", "exact_redundancy", lambda fn: _method),
    ("oracle.monte_carlo_redundancy", "shancode.oracle", "monte_carlo_redundancy", _draws),
    ("asymptotics.classify_mode", "shancode.asymptotics", "classify_mode", None),
    ("asymptotics.predict", "shancode.asymptotics", "predict", None),
    ("asymptotics.oscillation_argument", "shancode.asymptotics", "oscillation_argument", None),
    ("spectral.find_oscillation_order", "shancode.spectral", "find_oscillation_order",
     lambda fn: _rho_history_len),
    ("spectral.phase_matrix", "shancode.spectral", "phase_matrix", None),
    ("spectral.char_fn", "shancode.spectral", "char_fn", _char_fn_steps),
    ("spectral.eigen", "shancode.spectral", "eigen", None),
    ("fejer.fejer_sum", "shancode.fejer", "fejer_sum", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Run fn() inside a span named name."""
        return self._wrap(name, fn, None)()

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(record)
            stack.append(idx)
            record.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = perf_counter()
                stack.pop()
            if info is not None:
                record.info = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "shancode" or n.startswith("shancode.")]
        for name, module_name, attr_path, info_factory in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(name, fn, info_factory(fn) if info_factory else None)
            if owner_path:  # a method: patch the class attribute
                self._patch(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path, first: int = 0, stop: int | None = None) -> None:
        """Write spans[first:stop] as JSON lines; ids and parents are indices into spans."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(first, len(self.spans) if stop is None else stop):
                s = self.spans[i]
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "info": s.info}) + "\n")


def pass_metrics(spans: list[Span], root: int) -> dict:
    """Per-layer metrics of one pass, from the spans under the root span at index root."""
    wall = spans[root].duration
    child_time = {}
    members = []
    for i in range(root + 1, len(spans)):
        s = spans[i]
        if s.start >= spans[root].end:
            break
        members.append((i, s))
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    longest: dict[str, float] = {}
    infos: dict[str, list] = {}
    for i, s in members:
        calls[s.name] = calls.get(s.name, 0) + 1
        incl[s.name] = incl.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child_time.get(i, 0.0)
        longest[s.name] = max(longest.get(s.name, 0.0), s.duration)
        if s.info is not None:
            infos.setdefault(s.name, []).append(s.info)

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def st(name):
        return self_s.get(name, 0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, v in self_s.items():
        layer_self[name.split(".", 1)[0]] += v

    mc = "oracle.monte_carlo_redundancy"
    methods = infos.get("oracle.exact_redundancy", [])
    m = {
        "cli.self_s": layer_self["cli"],
        "cli.render.s": t("cli.render"),
        "sources.load.s": t("sources.load"),
        "sources.validate.s": t("sources.validate"),
        "sources.classify_structure.calls": c("sources.classify_structure"),
        "sources.classify_structure.s": t("sources.classify_structure"),
        "sources.stationary_distribution.calls": c("sources.stationary_distribution"),
        "sources.stationary_distribution.s": t("sources.stationary_distribution"),
        "exact.Log2Value.scaled.calls": c("exact.Log2Value.scaled"),
        "exact.Log2Value.scaled.s": t("exact.Log2Value.scaled"),
        "exact.Log2Value.scaled.max_bits": max(infos.get("exact.Log2Value.scaled", [0])),
        "oracle.exact_redundancy.calls": c("oracle.exact_redundancy"),
        "oracle.exact_redundancy.self_s": st("oracle.exact_redundancy"),
        "oracle.exact_redundancy.max_call_s": longest.get("oracle.exact_redundancy", 0.0),
        "oracle.exact_redundancy.count_dp_calls": methods.count("count_dp"),
        "oracle.exact_redundancy.enumeration_calls": methods.count("enumeration"),
        "oracle.monte_carlo_redundancy.calls": c(mc),
        "oracle.monte_carlo_redundancy.s": t(mc),
        "oracle.monte_carlo_redundancy.steps_per_s": sum(infos.get(mc, [])) / t(mc) if t(mc) else 0.0,
        "oracle.monte_carlo_redundancy.draw_bytes": 8 * max(infos.get(mc, [0])),
        "asymptotics.classify_mode.calls": c("asymptotics.classify_mode"),
        "asymptotics.classify_mode.self_s": st("asymptotics.classify_mode"),
        "asymptotics.predict.calls": c("asymptotics.predict"),
        "asymptotics.predict.self_s": st("asymptotics.predict"),
        "asymptotics.predict.us_per_call": 1e6 * t("asymptotics.predict") / max(c("asymptotics.predict"), 1),
        "asymptotics.oscillation_argument.calls": c("asymptotics.oscillation_argument"),
        "asymptotics.oscillation_argument.s": t("asymptotics.oscillation_argument"),
        "spectral.find_oscillation_order.calls": c("spectral.find_oscillation_order"),
        "spectral.find_oscillation_order.self_s": st("spectral.find_oscillation_order"),
        "spectral.find_oscillation_order.m_scanned": sum(infos.get("spectral.find_oscillation_order", [])),
        "spectral.phase_matrix.calls": c("spectral.phase_matrix"),
        "spectral.phase_matrix.s": t("spectral.phase_matrix"),
        "spectral.char_fn.calls": c("spectral.char_fn"),
        "spectral.char_fn.s": t("spectral.char_fn"),
        "spectral.char_fn.steps": sum(infos.get("spectral.char_fn", [])),
        "spectral.eigen.calls": c("spectral.eigen"),
        "spectral.eigen.s": t("spectral.eigen"),
        "fejer.fejer_sum.s": t("fejer.fejer_sum"),
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / wall
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

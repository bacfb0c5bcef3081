"""Span tracing for the benchmark's traced run, applied from outside the program.

``Tracer.install`` wraps the public functions listed in ``WRAPPED``.  The
routeseq modules import functions by name (``completion`` holds its own
``solve_path``, ``inference`` its own ``encode``), so each function is
replaced in every loaded routeseq module that holds it, and ``uninstall``
puts every original back.  ``Tape.backward`` is patched on the class.

A span records its layer name, start, end, parent span and route id.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the time its direct child spans cover; calls are single-threaded and nest,
so the self times of all spans add up to the time covered by top-level spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from dataclasses import dataclass

# Layer name -> (defining module, attribute).  The layer name is what the
# per-layer metrics are called: ``<layer>.calls`` and ``<layer>.self_s``.
WRAPPED = {
    "datagen.generate": ("routeseq.datagen", "generate"),
    "datagen.routes_to_json": ("routeseq.datagen", "routes_to_json"),
    "datagen.route_from_dict": ("routeseq.datagen", "route_from_dict"),
    "domain.build_zone_instance": ("routeseq.domain", "build_zone_instance"),
    "tsp.solve_tour": ("routeseq.tsp", "solve_tour"),
    "tsp.solve_path": ("routeseq.tsp", "solve_path"),
    "completion.complete_sequence": ("routeseq.completion", "complete_sequence"),
    "completion.best_zone_path": ("routeseq.completion", "best_zone_path"),
    "predictor.prepare_route": ("routeseq.predictor", "prepare_route"),
    "predictor.forward_logprob": ("routeseq.predictor", "forward_logprob"),
    "predictor.encode": ("routeseq.predictor", "encode"),
    "predictor.decode_step": ("routeseq.predictor", "decode_step"),
    "kernel.backward": ("routeseq.kernel.autodiff", "Tape.backward"),
    "kernel.adam_step": ("routeseq.kernel.optim", "adam_step"),
    "training.train": ("routeseq.training", "train"),
    "inference.generate_best_first": ("routeseq.inference", "generate_best_first"),
    "scoring.score_route": ("routeseq.scoring", "score_route"),
    "scoring.erp": ("routeseq.scoring", "erp"),
    "scoring.sequence_deviation": ("routeseq.scoring", "sequence_deviation"),
}

TSP_LAYERS = ("tsp.solve_tour", "tsp.solve_path")
# TSP self time split by node count; Held-Karp is exact up to 13 nodes.
TSP_BUCKETS = (("n_le_7", 0, 7), ("n_8_10", 8, 10), ("n_11_13", 11, 13), ("n_ge_14", 14, 10**9))

# Per-layer metric name -> (unit, better).
PER_LAYER = {}
for _layer in WRAPPED:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "tsp.exact_frac": ("fraction", "higher"),
    **{f"tsp.self_s.{b}": ("s", "lower") for b, _, _ in TSP_BUCKETS},
    "completion.solves_per_zone": ("count/zone", "lower"),
    "inference.encodes_per_route": ("count/route", "lower"),
    "kernel.tape_nodes_per_step": ("count/step", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unwrapped_s": ("s", "lower"),
})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 for a top-level span
    route: str
    nodes: int = 0     # TSP instance size
    method: str = ""   # TSP method: exact | heuristic
    tape_nodes: int = 0


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name), attr
    return owner, attr


class Tracer:
    """Records spans around the functions in ``WRAPPED`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.route = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original)

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(layer, 0.0, 0.0, stack[-1] if stack else -1, self.route)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if layer in TSP_LAYERS:
                costs = args[0]
                span.nodes = len(getattr(costs, "matrix", costs))
                span.method = result.method
            elif layer == "kernel.backward":
                span.tape_nodes = len(args[0]._nodes)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "routeseq" or name.startswith("routeseq."))]
        for layer, (module, attr) in WRAPPED.items():
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(layer, original)
            holders = [(owner, name)]
            if isinstance(owner, types.ModuleType):
                holders += [(m, a) for m in modules if m is not owner
                            for a, v in vars(m).items() if v is original]
            for holder, a in holders:
                setattr(holder, a, wrapper)
                self._patches.append((holder, a, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def nesting_ok(self) -> bool:
        """Every span lies inside its parent and starts no earlier than the
        span recorded before it."""
        prev_start = float("-inf")
        for s in self.spans:
            if s.end < s.start or s.start < prev_start:
                return False
            prev_start = s.start
            if s.parent >= 0:
                p = self.spans[s.parent]
                if not (p.start <= s.start and s.end <= p.end):
                    return False
        return True

    def _has_ancestor(self, span: Span, layer: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == layer:
                return True
        return False

    def layer_metrics(self, wall_s: float, overhead_frac: float) -> dict:
        """Every ``PER_LAYER`` metric, value only."""
        out = {f"{layer}.{k}": 0 for layer in WRAPPED for k in ("calls", "self_s")}
        tsp_time = {b: 0.0 for b, _, _ in TSP_BUCKETS}
        self_s = self.self_times()
        for s, t in zip(self.spans, self_s):
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += t
            if s.name in TSP_LAYERS:
                for b, lo, hi in TSP_BUCKETS:
                    if lo <= s.nodes <= hi:
                        tsp_time[b] += t

        def count(layer, under=None):
            return sum(1 for s in self.spans if s.name == layer
                       and (under is None or self._has_ancestor(s, under)))

        def ratio(num, den):
            return num / den if den else 0.0

        tsp_spans = [s for s in self.spans if s.name in TSP_LAYERS]
        tapes = [s.tape_nodes for s in self.spans if s.name == "kernel.backward"]
        out["tsp.exact_frac"] = ratio(sum(s.method == "exact" for s in tsp_spans), len(tsp_spans))
        out.update({f"tsp.self_s.{b}": t for b, t in tsp_time.items()})
        out["completion.solves_per_zone"] = ratio(
            sum(1 for s in tsp_spans if s.parent >= 0
                and self.spans[s.parent].name == "completion.best_zone_path"),
            count("completion.best_zone_path"))
        out["inference.encodes_per_route"] = ratio(
            count("predictor.encode", under="inference.generate_best_first"),
            count("inference.generate_best_first"))
        out["kernel.tape_nodes_per_step"] = ratio(sum(tapes), len(tapes))
        out["trace.overhead_frac"] = overhead_frac
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - sum(self_s)
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds from ``origin``."""
        rows = [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "route": s.route} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, separators=(",", ":"))

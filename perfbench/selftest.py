#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that every workload emits each metric declared in BENCHMARK.json with
its unit and direction, that outputs pass their checks, and that the spans of
a traced run nest and lie within the traced wall time.
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in DECLARED[kind]}


class BenchmarkSelfTest(unittest.TestCase):
    def test_declarations_match_benchmark_json(self):
        self.assertEqual(declared("end_to_end"), run.END_TO_END)
        self.assertEqual(declared("per_layer"), spans.PER_LAYER)
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(run.WORKLOADS))

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run(workload, seed=0, seconds=0.01, trace=0, scale=run.TINY)
                self.assertTrue(result.correct)
                self.assertGreaterEqual(result.attempted, 1)
                self.assertEqual(result.units, declared("end_to_end"))
                self.assertEqual(set(result.metrics), set(result.units))
                for name, value in result.metrics.items():
                    self.assertTrue(math.isfinite(value), name)
                self.assertGreater(result.metrics["routes_per_s"], 0.0)

    def test_traced_runs_emit_every_per_layer_metric_and_spans_nest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run(workload, seed=0, seconds=0.01, trace=1, scale=run.TINY)
                self.assertTrue(result.correct)
                self.assertEqual(result.units, declared("per_layer"))
                self.assertEqual(set(result.metrics), set(result.units))
                tracer = result.tracer
                self.assertTrue(tracer.spans)
                self.assertTrue(tracer.nesting_ok())
                self.assertGreaterEqual(result.metrics["trace.unwrapped_s"], 0.0)
        # The tracer put every original function back.
        for fn in (run.training.train, run.training.adam_step, run.completion.solve_path,
                   run.predictor.solve_tour, run.routeseq.kernel.Tape.backward):
            self.assertFalse(hasattr(fn, "__wrapped__"), fn.__qualname__)

    def test_nesting_check_rejects_a_child_outside_its_parent(self):
        tracer = spans.Tracer()
        tracer.spans = [spans.Span("a", 0.0, 1.0, -1, "r"), spans.Span("b", 0.5, 1.5, 0, "r")]
        self.assertFalse(tracer.nesting_ok())
        tracer.spans[1].end = 0.9
        self.assertTrue(tracer.nesting_ok())
        for got, want in zip(tracer.self_times(), [0.6, 0.4]):
            self.assertAlmostEqual(got, want)


if __name__ == "__main__":
    unittest.main()

"""Print each model variant's forward+backward and whole-step time per route by zone count.

One training step, layer by layer: for each zone count and each variant the
median milliseconds over repeated runs on one generated route,
``SynthConfig(n_routes=1, zones_per_route=(z, z), seed=1)``, with the
variant's default model at seed 0 (``lstm_ed``'s head as wide as the route):

- forward+backward: the teacher-forced forward pass recorded on a new tape
  (``forward_logprob(params, scaled, tape)``) and ``Tape.backward``;
  gradient collection is outside the timed span;
- whole step: the step as ``training.train`` takes it, on that route alone:
  the tape reset, the same passes, the gradient collection and
  ``adam_step``, timed from the first ``forward_logprob`` call of a
  two-epoch ``train`` call to its second.

The two are timed run by run in turn, so a change of machine load moves
both columns alike.

    python3 tools/train_step_ms.py [--zones 5 10 15] [--runs 50]

``routeseq`` is imported from ``PYTHONPATH`` when it is set there, else from
the ``src/`` next to this script.  Information only: there is no bound.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from routeseq import training  # noqa: E402
from routeseq.datagen import SynthConfig, generate  # noqa: E402
from routeseq.kernel import Tape  # noqa: E402
from routeseq.predictor import (  # noqa: E402
    VARIANTS,
    ModelConfig,
    fit_scaler,
    forward_logprob,
    init_model,
    prepare_route,
    scale_route,
)


def step_ms(variant: str, zones: int, runs: int) -> tuple:
    """Median ms of forward+backward and of the whole training step."""
    route = generate(SynthConfig(n_routes=1, zones_per_route=(zones, zones), seed=1))[0]
    prep = prepare_route(route)
    kz = zones if variant == "lstm_ed" else None
    params = init_model(ModelConfig(variant, kz=kz), np.random.default_rng(0))
    params.scaler = fit_scaler([prep])
    scaled = scale_route(prep, params)
    times, steps, starts = [], [], []

    def timed_forward(*args):
        starts.append(time.perf_counter())
        return forward_logprob(*args)

    for _ in range(runs):
        tape = Tape()
        start = time.perf_counter()
        loss, _ = forward_logprob(params, scaled, tape)
        tape.backward(loss)
        times.append(time.perf_counter() - start)
        starts.clear()
        training.forward_logprob = timed_forward
        try:
            training.train([route], training.TrainConfig(variant, epochs=2))
        finally:
            training.forward_logprob = forward_logprob
        steps.append(starts[1] - starts[0])
    return statistics.median(times) * 1e3, statistics.median(steps) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--zones", type=int, nargs="+", default=[5, 10, 15])
    parser.add_argument("--runs", type=int, default=50)
    args = parser.parse_args()
    print(f"python {platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}")
    for zones in args.zones:
        for variant in VARIANTS:
            fb, whole = step_ms(variant, zones, args.runs)
            print(f"{variant} forward+backward, {zones} zones: {fb:.2f} ms, "
                  f"whole step {whole:.2f} ms (median of {args.runs} runs)")


if __name__ == "__main__":
    main()

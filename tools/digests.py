"""Print sha-256 digests of every deterministic output of the models.

Two checkouts that print the same lines train, decode, score and
differentiate bit-identically on this script's routes.  Run it once per
checkout and diff the outputs:

    PYTHONPATH=<checkout>/src python3 tools/digests.py > digests.txt

``routeseq`` is imported from ``PYTHONPATH`` when it is set there, else from
the ``src/`` next to this script.  Each line is ``<what> <digest>``:

- ``train``: checkpoint id and epoch losses (float hex) of every variant,
  for input order tsp and random and gradient clipping off and at 1.0;
- ``report``: the greedy and best-first ``evaluate_testset`` report JSON;
- ``trace``: per decoder step the attention and context bytes and the
  chosen zone, and the rollout's operational cost as float hex;
- ``grad``: the teacher-forced loss and every parameter gradient's bytes of
  one taped forward and backward pass per training route;
- ``dataset``: the ``routes_to_json`` bytes of a generated dataset of each
  planted behaviour;
- ``prep``: each test route's prepared zone rows ``nodes[1:]``, depot row
  ``nodes[0]``, ``pair``, ``tsp_order`` and ``zone_travel_time`` bytes;
- ``erp``: ``scoring.erp``'s cost (float hex) and edit count of each route
  of 27-56 stops against itself, its reverse, a shuffle and three swaps of
  neighbours, on the route's real matrix and on an integer-valued matrix
  (ties, zeroed depot row);
- ``zone``: ``completion.best_zone_path``'s path and cost (float hex) for
  every zone of the test routes and of the ``erp`` routes, walked in zone
  index order, on the real matrix and on an integer-valued copy (ties);
- ``cli``: the files that ``routeseq.cli.main`` writes, run with relative
  paths in a temporary directory (``generate``, ``solve-tsp --stops``, and
  per variant ``train``'s checkpoint and report without ``wall_time_s``,
  ``predict`` greedy and best-first with ``--stops``, ``evaluate
  --checkpoint`` JSON and CSV, and ``evaluate --predictions`` JSON; then
  ``generate``, ``train`` and ``predict`` with every key from a ``--config``
  file and ``--seed`` also given as a flag, and ``benchmark --epochs 2``),
  the config files, and the stdout of every command.

The training routes have 3-6 zones, so ``lstm_ed``'s head is narrower than
most of the 1-15-zone test routes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from routeseq import inference, scoring  # noqa: E402
from routeseq.cli import main as cli_main  # noqa: E402
from routeseq.completion import best_zone_path  # noqa: E402
from routeseq.datagen import BEHAVIORS, SynthConfig, generate, routes_to_json  # noqa: E402
from routeseq.domain import build_zone_instance  # noqa: E402
from routeseq.kernel import Tape  # noqa: E402
from routeseq.predictor import (  # noqa: E402
    VARIANTS,
    forward_logprob,
    model_tensors,
    prepare_route,
    scale_route,
)
from routeseq.training import TrainConfig, train  # noqa: E402

INPUT_ORDERS = ("tsp", "random")
GRAD_CLIPS = (None, 1.0)


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _trace_parts(pred):
    yield pred.operational_cost.hex()
    for t in pred.traces:
        yield t.chosen
        yield t.attention.tobytes()
        yield b"-" if t.context is None else t.context.tobytes()


def _erp_digests(routes) -> None:
    rng = np.random.default_rng(17)
    for route in routes:
        n = route.n_stops
        integer = rng.integers(0, 4, size=(n + 1, n + 1)).astype(float)
        integer[0] = 0.0
        actual = list(range(1, n + 1))
        swapped = list(actual)
        for i in rng.choice(n - 1, size=3, replace=False):
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        shuffled = list(rng.permutation(n) + 1)
        for kind, m in (("real", route.travel_time), ("integer", integer)):
            parts = []
            for predicted in (actual, actual[::-1], shuffled, swapped):
                cost, edits = scoring.erp(actual, predicted, m)
                parts += [cost.hex(), edits]
            print(f"erp {route.route_id} {kind}", _sha(parts))


def _zone_digests(tag, routes) -> None:
    """``best_zone_path`` along each route's zones in index order, as
    ``complete_sequence`` walks them, on the real matrix and on an
    integer-valued copy (ties)."""
    for route in routes:
        zones = [zone.member_stops for zone in build_zone_instance(route).zones]
        for kind, m in (("real", route.travel_time),
                        ("integer", np.floor(route.travel_time / 200.0))):
            copy = replace(route, travel_time=m)
            parts, prev = [], 0
            for z, members in enumerate(zones):
                nxt = [s + 1 for s in zones[z + 1]] if z + 1 < len(zones) else [0]
                path, cost = best_zone_path(copy, members, prev, nxt)
                parts += [*path, cost.hex()]
                prev = path[-1] + 1
            print(f"zone {tag} {route.route_id} {kind}", _sha(parts))


# The --config files of the config runs at the end of _cli_runs, which give
# each required key again as its flag.
_CLI_CONFIGS = {
    "generate-config.json": {"out": "config-data.json", "n_routes": 10, "zones": [2, 6],
                             "stops_per_zone": [1, 3], "extent_km": 4.0, "speed_kmph": 25.0,
                             "noise_sigma": 0.2, "behavior": "nearest_zone", "seed": 29},
    "train-config.json": {"data": "config-data.json", "checkpoint": "config.ckpt",
                          "variant": "pointer", "epochs": 2, "lr": 0.01, "seed": 4,
                          "input_order": "random", "train_fraction": 0.7, "clip_norm": 1.0,
                          "report": "config-train.json"},
    "predict-config.json": {"checkpoint": "config.ckpt", "data": "config-data.json",
                            "out": "config-predict.json", "mode": "greedy", "stops": True,
                            "split": "test", "train_fraction": 0.7, "seed": 4},
}


def _cli_runs():
    yield ["generate", "--out", "data.json", "--n-routes", "12", "--zones", "2", "8",
           "--stops-per-zone", "1", "3", "--seed", "23"]
    yield ["solve-tsp", "--data", "data.json", "--out", "tsp.json", "--stops"]
    for v in VARIANTS:
        yield ["train", "--data", "data.json", "--checkpoint", f"{v}.ckpt", "--variant", v,
               "--epochs", "2", "--seed", "3", "--train-fraction", "0.75",
               "--report", f"{v}-train.json"]
        yield ["predict", "--checkpoint", f"{v}.ckpt", "--data", "data.json",
               "--out", f"{v}-greedy.json", "--mode", "greedy"]
        yield ["predict", "--checkpoint", f"{v}.ckpt", "--data", "data.json",
               "--out", f"{v}-best-first.json", "--stops"]
        yield ["evaluate", "--data", "data.json", "--checkpoint", f"{v}.ckpt",
               "--out", f"{v}-evaluate.json", "--csv", f"{v}-evaluate.csv"]
        yield ["evaluate", "--data", "data.json", "--predictions", f"{v}-best-first.json",
               "--out", f"{v}-evaluate-predictions.json"]
    yield ["generate", "--out", "config-data.json", "--config", "generate-config.json",
           "--seed", "31"]
    yield ["train", "--data", "config-data.json", "--checkpoint", "config.ckpt",
           "--config", "train-config.json"]
    yield ["predict", "--checkpoint", "config.ckpt", "--data", "config-data.json",
           "--out", "config-predict.json", "--config", "predict-config.json"]
    yield ["benchmark", "--data", "data.json", "--out", "benchmark.json", "--epochs", "2"]


def _cli_digests() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in _CLI_CONFIGS.items():
                Path(name).write_text(json.dumps(doc, sort_keys=True))
            for k, argv in enumerate(_cli_runs()):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli_main(argv)
                if code != 0:
                    raise SystemExit(f"routeseq {' '.join(argv)} exited with {code}")
                print(f"cli stdout {k:02d} {argv[0]}", _sha(out.getvalue().splitlines()))
            for name in sorted(os.listdir(".")):
                raw = Path(name).read_bytes()
                if name.endswith("-train.json"):
                    report = json.loads(raw)
                    del report["wall_time_s"]
                    raw = json.dumps(report, sort_keys=True)
                print(f"cli {name}", _sha([raw]))
        finally:
            os.chdir(cwd)


def main() -> None:
    for behavior in BEHAVIORS:
        dataset = generate(SynthConfig(n_routes=5, zones_per_route=(2, 8),
                                       stops_per_zone=(1, 4), behavior=behavior, seed=19))
        print(f"dataset {behavior}", _sha([routes_to_json(dataset)]))
    erp_routes = generate(SynthConfig(n_routes=4, zones_per_route=(5, 10),
                                      stops_per_zone=(4, 8), seed=17))
    _erp_digests(erp_routes)
    _cli_digests()
    train_routes = generate(SynthConfig(n_routes=6, zones_per_route=(3, 6),
                                        stops_per_zone=(1, 3), seed=11))
    test_routes = generate(SynthConfig(n_routes=12, zones_per_route=(1, 15),
                                       stops_per_zone=(1, 3), seed=13))
    _zone_digests("erp", erp_routes)
    _zone_digests("test", test_routes)
    test_preps = [prepare_route(r) for r in test_routes]
    for prep in test_preps:
        print(f"prep {prep.route.route_id}", _sha([
            prep.nodes[1:].tobytes(), prep.nodes[0].tobytes(), prep.pair.tobytes(),
            *prep.tsp_order, prep.zinst.zone_travel_time.tobytes()]))
    for variant in VARIANTS:
        for order in INPUT_ORDERS:
            for clip in GRAD_CLIPS:
                cfg = TrainConfig(variant=variant, epochs=3, lr=0.01, seed=5, input_order=order,
                                  hidden=8, asnn_hidden=(16, 16), att_dim=8, grad_clip=clip)
                params, rep = train(train_routes, cfg)
                tag = f"{variant} {order} clip={clip}"
                print(f"train {tag}", _sha([rep.checkpoint_id,
                                             *(v.hex() for v in rep.epoch_losses)]))
                if clip is not None:
                    continue
                for mode in (inference.GREEDY, inference.BEST_FIRST):
                    report = scoring.evaluate_testset(test_routes, params=params, mode=mode)
                    text = json.dumps(report.to_dict(), sort_keys=True)
                    print(f"report {tag} {mode}", _sha([text]))
                    print(f"trace {tag} {mode}", _sha(
                        part for prep in test_preps
                        for part in _trace_parts(inference.predict(params, prep, mode))))
                parts = []
                for route in train_routes:
                    tape = Tape()
                    scaled = scale_route(prepare_route(route), params)
                    loss, _ = forward_logprob(params, scaled, tape)
                    tape.backward()
                    parts.append(float(loss).hex())
                    for name, g in sorted(tape.gradients(model_tensors(params)).items()):
                        parts += [name, g.tobytes()]
                print(f"grad {tag}", _sha(parts))


if __name__ == "__main__":
    main()

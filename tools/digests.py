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
- ``prep``: each test route's prepared ``x``, ``depot_x``, ``pair``,
  ``tsp_order`` and ``zone_travel_time`` bytes;
- ``erp``: ``scoring.erp``'s cost (float hex) and edit count of each route
  of 27-56 stops against itself, its reverse, a shuffle and three swaps of
  neighbours, on the route's real matrix and on an integer-valued matrix
  (ties, zeroed depot row).

The training routes have 3-6 zones, so ``lstm_ed``'s head is narrower than
most of the 1-15-zone test routes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from routeseq import inference, scoring  # noqa: E402
from routeseq.datagen import BEHAVIORS, SynthConfig, generate, routes_to_json  # noqa: E402
from routeseq.kernel import Tape  # noqa: E402
from routeseq.predictor import (  # noqa: E402
    VARIANTS,
    forward_logprob,
    gradients,
    prepare_route,
    scale_route,
    wrap_params,
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


def _erp_digests() -> None:
    routes = generate(SynthConfig(n_routes=4, zones_per_route=(5, 10),
                                  stops_per_zone=(4, 8), seed=17))
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


def main() -> None:
    for behavior in BEHAVIORS:
        dataset = generate(SynthConfig(n_routes=5, zones_per_route=(2, 8),
                                       stops_per_zone=(1, 4), behavior=behavior, seed=19))
        print(f"dataset {behavior}", _sha([routes_to_json(dataset)]))
    _erp_digests()
    train_routes = generate(SynthConfig(n_routes=6, zones_per_route=(3, 6),
                                        stops_per_zone=(1, 3), seed=11))
    test_routes = generate(SynthConfig(n_routes=12, zones_per_route=(1, 15),
                                       stops_per_zone=(1, 3), seed=13))
    test_preps = [prepare_route(r) for r in test_routes]
    for prep in test_preps:
        print(f"prep {prep.route.route_id}", _sha([
            prep.x.tobytes(), prep.depot_x.tobytes(), prep.pair.tobytes(),
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
                    wrapped = wrap_params(params, tape)
                    scaled = scale_route(prepare_route(route), params.scaler, order, cfg.seed)
                    loss, _ = forward_logprob(wrapped, scaled)
                    tape.backward(loss)
                    parts.append(float(loss.value).hex())
                    for name, g in sorted(gradients(params, wrapped).items()):
                        parts += [name, g.tobytes()]
                print(f"grad {tag}", _sha(parts))


if __name__ == "__main__":
    main()

"""Sequence generation from a trained model.

``greedy_decode`` picks the most probable unvisited zone at every step
(probability ties resolve to the smallest zone index).  ``generate_best_first``
is the paper's first-stop iteration: it encodes the route once, runs one
greedy rollout from each forced first zone over that encoding and keeps the
rollout with the lowest operational cost.  The plain greedy rollout is the
forced rollout of its own first pick, so it is among those candidates.
The rollouts share one ``first_step`` (step 0 precedes the forced pick) and
score no step with one zone left, so an n-zone route runs (n-1)^2 decoder
steps best-first and n-1 greedy; its zone matrix is checked once.
``predict`` dispatches on the generation mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .predictor import (
    ModelParams,
    PreparedRoute,
    ScaledRoute,
    decode,
    encode,
    first_step,
    scale_route,
    zone_probs,
)
from .tsp import _as_matrix, _seq_cost, route_cost

GREEDY = "greedy"
BEST_FIRST = "best_first"


@dataclass(eq=False)
class PredictedSequence:
    zone_order: list                 # zone indices, visit order
    traces: list                     # DecoderStepTrace per step
    operational_cost: float          # depot -> zones -> depot, zone-level seconds
    mode: str                        # "greedy" | "best_first"


def operational_cost(zone_order, instance) -> float:
    nodes = [0] + [z + 1 for z in zone_order]
    return route_cost(nodes, instance.zone_travel_time, close_tour=True)


def _rollout(params: ModelParams, scaled: ScaledRoute, start, m: np.ndarray,
             forced_first: int | None, mode: str) -> PredictedSequence:
    """The greedy rollout from ``first_step`` result ``start``, its
    operational cost summed over the checked zone matrix ``m``."""
    prep = scaled.prep
    if forced_first is not None and not 0 <= forced_first < prep.n_zones:
        raise InvalidInputError(f"forced first zone {forced_first} not in this route")
    visited = np.zeros(prep.n_zones, dtype=bool)

    def pick(i, probs):
        forced = i == 0 and forced_first is not None
        z = forced_first if forced else int(np.argmax(  # ties to the smallest zone index
            np.where(visited, -np.inf, zone_probs(scaled, probs))))
        visited[z] = True
        return z

    traces = decode(params, scaled, start, pick)[1]
    order = [t.chosen for t in traces]  # builds every step's trace
    return PredictedSequence(order, traces, _seq_cost([0, *(z + 1 for z in order)], m, True),
                             mode)


def _start(params: ModelParams, prep: PreparedRoute):
    """The route as ``params`` read it, its one ``first_step`` and its
    checked zone matrix."""
    scaled = scale_route(prep, params)
    start = first_step(params, scaled, encode(params, scaled))
    return scaled, start, _as_matrix(prep.zinst.zone_travel_time)


def greedy_decode(params: ModelParams, prep: PreparedRoute,
                  forced_first: int | None = None) -> PredictedSequence:
    """Greedy rollout; ``forced_first`` overrides the first pick and decoding
    resumes from it."""
    return _rollout(params, *_start(params, prep), forced_first, GREEDY)


def generate_best_first(params: ModelParams, prep: PreparedRoute) -> PredictedSequence:
    """Greedy rollouts from every first zone over one encoding and one step 0
    of the route; the cheapest wins, cost ties going to the smallest
    first-zone index."""
    start = _start(params, prep)
    return min((_rollout(params, *start, z, BEST_FIRST) for z in range(prep.n_zones)),
               key=lambda c: (c.operational_cost, c.zone_order[0]))


def predict(params: ModelParams, prep: PreparedRoute, mode: str) -> PredictedSequence:
    """The ``GREEDY`` or ``BEST_FIRST`` prediction for one route."""
    if mode == GREEDY:
        return greedy_decode(params, prep)
    if mode == BEST_FIRST:
        return generate_best_first(params, prep)
    raise InvalidInputError(f"unknown generation mode {mode!r}")

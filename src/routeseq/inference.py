"""Sequence generation from a trained model.

``greedy_decode`` picks the most probable unvisited zone at every step
(probability ties resolve to the smallest zone index).  ``generate_best_first``
is the paper's first-stop iteration: it encodes the route once, runs one
greedy rollout from each forced first zone over that encoding and keeps the
rollout with the lowest operational cost.  The plain greedy rollout is the
forced rollout of its own first pick, so it is among those candidates.
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
    scale_route,
)
from .tsp import route_cost

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


def _masked_argmax(scores, visited) -> int:
    """Index of the largest score among unvisited zones; ties go to the
    smallest index."""
    return int(np.argmax(np.where(visited, -np.inf, scores)))


def _rollout(params: ModelParams, scaled: ScaledRoute, encoded,
             forced_first: int | None, mode: str) -> PredictedSequence:
    prep = scaled.prep
    if forced_first is not None and not 0 <= forced_first < prep.n_zones:
        raise InvalidInputError(f"forced first zone {forced_first} not in this route")
    visited = np.zeros(prep.n_zones, dtype=bool)

    def pick(i, p_zone):
        forced = i == 0 and forced_first is not None
        z = forced_first if forced else _masked_argmax(p_zone, visited)
        visited[z] = True
        return z

    _, traces = decode(params, scaled, encoded, pick)
    order = [t.chosen for t in traces]
    return PredictedSequence(order, traces, operational_cost(order, prep.zinst), mode)


def greedy_decode(params: ModelParams, prep: PreparedRoute,
                  forced_first: int | None = None) -> PredictedSequence:
    """Greedy rollout; ``forced_first`` overrides the first pick and decoding
    resumes from it."""
    scaled = scale_route(prep, params)
    return _rollout(params, scaled, encode(params, scaled), forced_first, GREEDY)


def generate_best_first(params: ModelParams, prep: PreparedRoute) -> PredictedSequence:
    """Greedy rollouts from every first zone over one encoding of the route;
    the cheapest wins, cost ties going to the smallest first-zone index."""
    scaled = scale_route(prep, params)
    encoded = encode(params, scaled)
    return min((_rollout(params, scaled, encoded, z, BEST_FIRST) for z in range(prep.n_zones)),
               key=lambda c: (c.operational_cost, c.zone_order[0]))


def predict(params: ModelParams, prep: PreparedRoute, mode: str) -> PredictedSequence:
    """The ``GREEDY`` or ``BEST_FIRST`` prediction for one route."""
    if mode == GREEDY:
        return greedy_decode(params, prep)
    if mode == BEST_FIRST:
        return generate_best_first(params, prep)
    raise InvalidInputError(f"unknown generation mode {mode!r}")

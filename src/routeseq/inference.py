"""Sequence generation from a trained model.

Every prediction is a rollout of ``predictor.decode``, which visits the
zones it is given first, then the most probable unvisited zone at every
step (probability ties resolve to the smallest zone index).
``greedy_decode`` gives it none, or its ``forced_first`` zone.
``generate_best_first`` is the paper's first-stop iteration: it runs the
rollout from each forced first zone and keeps the one with the lowest
operational cost.  The plain greedy rollout is the forced rollout of its
own first pick, so it is among those candidates.  The rollouts share one
``first_step`` (one encoding, and step 0, which precedes the forced pick)
and score no step with one zone left, so an n-zone route runs (n-1)^2
decoder steps best-first and n-1 greedy.  A rollout's traces are built
only when read, so the losing rollouts build none.  ``predict``
dispatches on the generation mode.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import InvalidInputError
from .predictor import ModelParams, PreparedRoute, decode, first_step, scale_route
from .tsp import _seq_cost, route_cost

GREEDY = "greedy"
BEST_FIRST = "best_first"


@dataclass(eq=False)
class PredictedSequence:
    zone_order: list                 # zone indices, visit order
    traces: object                   # DecoderStepTrace per step (StepTraces)
    operational_cost: float          # depot -> zones -> depot, zone-level seconds
    mode: str                        # "greedy" | "best_first"


def operational_cost(zone_order, instance) -> float:
    nodes = [0] + [z + 1 for z in zone_order]
    return route_cost(nodes, instance.zone_travel_time, close_tour=True)


def _rollouts(params: ModelParams, prep: PreparedRoute, firsts, mode: str):
    """The greedy rollout from each first zone of ``firsts`` (None leaves
    the first pick greedy too), all over one ``first_step`` of the route,
    each with its order read from its steps' picks and its operational cost
    (as ``operational_cost``, over the zone matrix that ``prepare_route``
    checked); a rollout's traces are built only if read."""
    scaled = scale_route(prep, params)
    start = first_step(params, scaled)
    for first in firsts:
        traces = decode(params, scaled, start, () if first is None else (first,))[0]
        order = [chosen for _, chosen, _ in traces.steps]
        cost = _seq_cost([0, *(z + 1 for z in order)], prep.zinst.zone_travel_time, True)
        yield PredictedSequence(order, traces, cost, mode)


def greedy_decode(params: ModelParams, prep: PreparedRoute,
                  forced_first: int | None = None) -> PredictedSequence:
    """Greedy rollout; ``forced_first`` (an integer zone index, not a bool)
    overrides the first pick and decoding resumes from it."""
    if forced_first is not None:
        if (isinstance(forced_first, bool) or not isinstance(forced_first, numbers.Integral)
                or not 0 <= forced_first < prep.n_zones):
            raise InvalidInputError(f"forced first zone {forced_first!r} not in this route")
        forced_first = int(forced_first)
    return next(_rollouts(params, prep, [forced_first], GREEDY))


def generate_best_first(params: ModelParams, prep: PreparedRoute) -> PredictedSequence:
    """Greedy rollouts from every first zone over one encoding and one step 0
    of the route; the cheapest wins, cost ties going to the smallest
    first-zone index."""
    return min(_rollouts(params, prep, range(prep.n_zones), BEST_FIRST),
               key=lambda c: (c.operational_cost, c.zone_order[0]))


def predict(params: ModelParams, prep: PreparedRoute, mode: str) -> PredictedSequence:
    """The ``GREEDY`` or ``BEST_FIRST`` prediction for one route."""
    if mode == GREEDY:
        return greedy_decode(params, prep)
    if mode == BEST_FIRST:
        return generate_best_first(params, prep)
    raise InvalidInputError(f"unknown generation mode {mode!r}")

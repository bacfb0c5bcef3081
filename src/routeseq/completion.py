"""Expand a zone sequence into a full stop sequence.

For each zone, in order: three candidate entry stops (closest in travel time
to the previous zone's exit), three candidate exit stops (closest on average
to the next zone's stops; the depot plays "next zone" for the final zone),
one small path TSP per (entry, exit) pair, and the cheapest
within-zone path wins.  When entry and exit coincide the zone is solved as a
tour whose closing edge is dropped.
"""

from __future__ import annotations

import numpy as np

from .domain import RouteInstance, ZoneInstance
from .errors import InvalidInputError
from .tsp import solve_path, solve_tour

N_CANDIDATES = 3


def _closest(indices, scores, count):
    ranked = sorted(zip(scores, indices))
    return [idx for _, idx in ranked[:count]]


def best_zone_path(route: RouteInstance, members: list, entry_from: int, next_nodes: list):
    """Cheapest within-zone path given the matrix node we arrive from and the
    matrix nodes of the next zone.  Returns (stop indices, travel time).

    ``members`` are stop indices; ``entry_from``/``next_nodes`` are matrix
    indices (0 = depot).
    """
    tt = route.travel_time
    nodes = [m + 1 for m in members]
    if len(members) == 1:
        return [members[0]], 0.0
    firsts = _closest(members, [tt[entry_from, m + 1] for m in members], N_CANDIDATES)
    lasts = _closest(
        members,
        [float(np.mean([tt[m + 1, t] for t in next_nodes])) for m in members],
        N_CANDIDATES,
    )
    sub = tt[np.ix_(nodes, nodes)]
    pos = {m: k for k, m in enumerate(members)}
    best_path, best_cost = None, None
    for f in firsts:
        for l in lasts:
            if f == l:
                tour = solve_tour(sub, origin=pos[f])
                cost = tour.cost - float(sub[tour.order[-1], tour.order[0]])
                order = tour.order
            else:
                sol = solve_path(sub, pos[f], pos[l])
                cost, order = sol.cost, sol.order
            path = [members[k] for k in order]
            if (best_cost is None or cost < best_cost
                    or (cost == best_cost and tuple(path) < tuple(best_path))):
                best_path, best_cost = path, cost
    return best_path, float(best_cost)


def complete_sequence(zone_order, instance: ZoneInstance, route: RouteInstance) -> list:
    """Full stop sequence for a predicted zone order.

    Returns 0-based stop indices covering every stop exactly once, zones
    contiguous in the given order; the walk starts and ends at the depot
    (the depot itself is not part of the returned list).
    """
    n = instance.n_zones
    if sorted(zone_order) != list(range(n)):
        raise InvalidInputError("zone_order must be a permutation of the zones")
    result: list[int] = []
    prev_node = 0  # depot
    for idx, z in enumerate(zone_order):
        members = instance.zones[z].member_stops
        if idx + 1 < n:
            next_nodes = [m + 1 for m in instance.zones[zone_order[idx + 1]].member_stops]
        else:
            next_nodes = [0]  # the tour returns to the depot after the last zone
        path, _ = best_zone_path(route, members, prev_node, next_nodes)
        result.extend(path)
        prev_node = path[-1] + 1
    return result

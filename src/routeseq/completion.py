"""Expand a zone sequence into a full stop sequence.

For each zone, in order: three candidate entry stops (closest in travel time
to the previous zone's exit), three candidate exit stops (closest on average
to the next zone's stops; the depot plays "next zone" for the final zone),
and the cheapest within-zone path of each (entry, exit) pair; the cheapest
path wins, ties to the smallest.  A zone of at most ``EXACT_THRESHOLD`` stops
builds the Held-Karp tables of its entries as one stacked DP and reads every
exit from its entry's table, larger ones solve each pair heuristically; an
entry that is also the exit takes its tour without the closing edge.
"""

from __future__ import annotations

import numpy as np

from .domain import RouteInstance, ZoneInstance
from .errors import InvalidInputError
from .tsp import EXACT_THRESHOLD, _as_matrix, _held_karp, solve_path, solve_tour

N_CANDIDATES = 3


def _closest(members, scores):
    """Positions of the N_CANDIDATES members of lowest score, ties to the
    smaller stop index."""
    ranked = sorted(zip(scores, members, range(len(members))))
    return [k for _, _, k in ranked[:N_CANDIDATES]]


def _pair_paths(sub, firsts, lasts):
    """(order, cost) of the within-zone path of each (entry, exit) pair, as
    positions in ``sub``; an entry that is also the exit gives its tour
    minus the closing leg."""
    if len(sub) > EXACT_THRESHOLD:
        for f in firsts:
            for l in lasts:
                sol = solve_tour(sub, origin=f) if f == l else solve_path(sub, f, l)
                yield sol.order, sol.cost - (float(sub[sol.order[-1], f]) if f == l else 0.0)
        return
    m = _as_matrix(sub)
    for f, (interior, ends, path) in zip(firsts, _held_karp(m, firsts)):
        for l in lasts:
            if f == l:
                tours = ends + m[interior, f]
                u = int(tours.argmin())
                yield path(u), float(tours[u]) - float(m[interior[u], f])
            else:
                u = interior.index(l)
                yield path(u), float(ends[u])


def best_zone_path(route: RouteInstance, members: list, entry_from: int, next_nodes: list):
    """Cheapest within-zone path given the matrix node we arrive from and the
    matrix nodes of the next zone.  Returns (stop indices, travel time).

    ``members`` are stop indices; ``entry_from``/``next_nodes`` are matrix
    indices (0 = depot).
    """
    if len(members) == 1:
        return [members[0]], 0.0
    tt = route.travel_time
    nodes = [m + 1 for m in members]
    firsts = _closest(members, tt[entry_from, nodes].tolist())
    lasts = _closest(members, tt[np.ix_(nodes, next_nodes)].mean(axis=1).tolist())
    best_path, best_cost = None, None
    for order, cost in _pair_paths(tt[np.ix_(nodes, nodes)], firsts, lasts):
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

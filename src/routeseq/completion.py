"""Expand a zone sequence into a full stop sequence.

For each zone, in order: three candidate entry stops (closest in travel time
to the previous zone's exit), three candidate exit stops (closest on average
to the next zone's stops; the depot plays "next zone" for the final zone),
and the cheapest within-zone path of each (entry, exit) pair; the cheapest
path wins, ties to the smallest, and only the cheapest pairs walk their
path.  A zone of at most ``EXACT_THRESHOLD`` stops builds the Held-Karp
tables of its entries as one stacked DP and reads every exit from its
entry's table, larger ones solve each pair heuristically; an entry that is
also the exit takes its tour without the closing edge.  The travel times
are checked once per route, not per zone.
"""

from __future__ import annotations

import functools

import numpy as np

from .domain import RouteInstance, ZoneInstance
from .errors import InvalidInputError
from .tsp import EXACT_THRESHOLD, _as_matrix, _held_karp, _solve
from .tsp import solve_path  # noqa: F401  (perfbench/selftest.py reads completion.solve_path)

N_CANDIDATES = 3


def _closest(members, scores):
    """Positions of the N_CANDIDATES members of lowest score, ties to the
    smaller stop index."""
    ranked = sorted(zip(scores, members, range(len(members))))
    return [k for _, _, k in ranked[:N_CANDIDATES]]


def _pair_paths(m, firsts, lasts):
    """(cost, path) of the within-zone path of each (entry, exit) pair over
    the zone's block ``m`` of a checked matrix, where ``path()`` gives the
    order as positions in ``m``; an entry that is also the exit gives its
    tour minus the closing leg."""
    if len(m) > EXACT_THRESHOLD:
        for f in firsts:
            for l in lasts:
                sol = _solve(m, f, None if f == l else l, EXACT_THRESHOLD)
                cost = sol.cost - (float(m[sol.order[-1], f]) if f == l else 0.0)
                yield cost, lambda order=sol.order: order
        return
    for f, (interior, ends, path) in zip(firsts, _held_karp(m, firsts)):
        for l in lasts:
            if f == l:
                tours = ends + m[interior, f]
                u = int(tours.argmin())
                yield float(tours[u]) - float(m[interior[u], f]), functools.partial(path, u)
            else:
                u = interior.index(l)
                yield float(ends[u]), functools.partial(path, u)


def best_zone_path(route: RouteInstance, members: list, entry_from: int, next_nodes: list):
    """Cheapest within-zone path given the matrix node we arrive from and the
    matrix nodes of the next zone.  Returns (stop indices, travel time).

    ``members`` are stop indices; ``entry_from``/``next_nodes`` are matrix
    indices (0 = depot).  Only the pairs of the least cost walk their path,
    and a tie goes to the smallest path.  ``route.travel_time`` is read as
    checked: ``complete_sequence`` checks it once per route.
    """
    if len(members) == 1:
        return [members[0]], 0.0
    tt = route.travel_time
    nodes = [m + 1 for m in members]
    firsts = _closest(members, tt[entry_from, nodes].tolist())
    lasts = _closest(members, tt[np.ix_(nodes, next_nodes)].mean(axis=1).tolist())
    pairs = list(_pair_paths(tt[np.ix_(nodes, nodes)], firsts, lasts))
    best_cost = min(cost for cost, _ in pairs)
    best_path = min([members[k] for k in path()] for cost, path in pairs if cost == best_cost)
    return best_path, float(best_cost)


def complete_sequence(zone_order, instance: ZoneInstance, route: RouteInstance) -> list:
    """Full stop sequence for a predicted zone order.

    Returns 0-based stop indices covering every stop exactly once, zones
    contiguous in the given order; the walk starts and ends at the depot
    (the depot itself is not part of the returned list).  The route's
    travel times must be square, finite, non-negative and zero on the
    diagonal (``InvalidInputError``).
    """
    n = instance.n_zones
    if sorted(zone_order) != list(range(n)):
        raise InvalidInputError("zone_order must be a permutation of the zones")
    _as_matrix(route.travel_time)
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

"""Expand a zone sequence into a full stop sequence.

For each zone, in order: three candidate entry stops (closest in travel time
to the previous zone's exit), three candidate exit stops (closest on average
to the next zone's stops; the depot plays "next zone" for the final zone),
and the cheapest within-zone path of each (entry, exit) pair; the cheapest
path wins, ties to the smallest.  The zone's rows are gathered once, and one
scan of the pairs keeps the least cost and the pairs tied at it: only those
walk their path.  A zone of at most ``EXACT_THRESHOLD`` stops builds the
Held-Karp tables of its entries as one stacked DP and reads every exit from
its entry's table, larger ones solve each pair heuristically; an entry that
is also the exit takes its tour without the closing edge.  The travel times
are checked once per route, not per zone.
"""

from __future__ import annotations

import numpy as np

from .domain import RouteInstance, ZoneInstance
from .errors import InvalidInputError
from .tsp import EXACT_THRESHOLD, _as_matrix, _held_karp, _heuristic
from .tsp import solve_path  # noqa: F401  (perfbench/selftest.py reads completion.solve_path)

N_CANDIDATES = 3


def _closest(members, scores):
    """Positions of the N_CANDIDATES members of lowest score, ties to the
    smaller stop index."""
    ranked = sorted(zip(scores, members, range(len(members))))
    return [k for _, _, k in ranked[:N_CANDIDATES]]


def _pair_paths(m, firsts, lasts):
    """(cost, walk, u) of the within-zone path of each (entry, exit) pair
    over the zone's block ``m`` of a checked matrix, where ``walk(u)`` gives
    the order as positions in ``m``; an entry that is also the exit gives
    its tour minus the closing leg."""
    if len(m) > EXACT_THRESHOLD:
        for f in firsts:
            for l in lasts:
                sol = _heuristic(m, f, None if f == l else l)
                yield sol.cost - (float(m[sol.order[-1], f]) if f == l else 0.0), list, sol.order
        return
    for f, (interior, ends, walk) in zip(firsts, _held_karp(m, firsts)):
        for l in lasts:
            if f == l:
                tours = ends + m[interior, f]
                u = int(tours.argmin())
                yield float(tours[u]) - float(m[interior[u], f]), walk, u
            else:
                u = interior.index(l)
                yield float(ends[u]), walk, u


def best_zone_path(route: RouteInstance, members: list, entry_from: int, next_nodes: list):
    """Cheapest within-zone path given the matrix node we arrive from and the
    matrix nodes of the next zone.  Returns (stop indices, travel time).

    ``members`` are stop indices; ``entry_from``/``next_nodes`` are matrix
    indices (0 = depot).  One scan of the pairs keeps the least cost and the
    pairs tied at it; only those walk their path, and a tie goes to the
    smallest path.  ``route.travel_time`` is read as checked:
    ``complete_sequence`` checks it once per route.
    """
    if len(members) == 1:
        return [members[0]], 0.0
    tt = route.travel_time
    nodes = [m + 1 for m in members]
    rows = tt[nodes]
    firsts = _closest(members, tt[entry_from, nodes].tolist())
    # Each exit's mean time to the next zone: the bits of .mean(axis=1)
    # without its Python wrapper, as domain._mean.
    exits = np.add.reduce(rows[:, next_nodes], axis=1) / len(next_nodes)
    lasts = _closest(members, exits.tolist())
    best, tied = np.inf, []
    for cost, walk, u in _pair_paths(rows[:, nodes], firsts, lasts):
        if cost < best:
            best, tied = cost, []
        if cost == best:
            tied.append((walk, u))
    return min([members[k] for k in walk(u)] for walk, u in tied), best


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

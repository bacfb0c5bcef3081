"""Tour and path TSP over asymmetric travel-time matrices.

Instances of n <= EXACT_THRESHOLD nodes are solved exactly by Held-Karp,
larger ones by nearest-neighbor construction plus 2-opt, which recomputes
the full cost of a reversed segment because matrices may be asymmetric.
Results are deterministic.  Held-Karp runs from ``start`` over bitmasks of
the other nodes one popcount layer at a time: numpy takes a layer's
candidates ``dp[mask - v, u] + m[u, v]`` (one float add each) in a few
steps.  One table serves the tour and the path to every end; a u outside
the mask is ``inf``, so the masks without an end hold the bits of a DP that
leaves the end out.  The parent, like the tour's last node, is the first
``argmin`` over ascending u, which gives the tie rule: walking back from
the end of the order, each tie goes to the smallest node index, so an
all-equal matrix gives a descending interior (the tour from 0 over 4 nodes
is [0, 3, 2, 1]).  Nearest neighbor takes the smallest index among equally
near nodes; 2-opt keeps the first move it scans unless a later one is
better by more than 1e-12.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

EXACT_THRESHOLD = 13
_INF = float("inf")


@dataclass
class TspSolution:
    order: list          # node indices; tours start at the origin, paths at `first`
    cost: float          # summed legs (tours include the closing leg)
    method: str          # "exact" | "heuristic"


def _as_matrix(costs) -> np.ndarray:
    m = np.asarray(costs, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("cost matrix must be finite")
    if np.any(m < 0):
        raise InvalidInputError("cost matrix must be non-negative")
    if np.any(np.diag(m) != 0):
        raise InvalidInputError("cost matrix diagonal must be zero")
    return m


def _seq_cost(order, m, close: bool) -> float:
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        total += m[a, b]
    if close and len(order) > 1:
        total += m[order[-1], order[0]]
    return float(total)


def route_cost(order, costs, close_tour: bool = False) -> float:
    """Cost of visiting every node in ``order`` (closing leg if requested)."""
    m = _as_matrix(costs)
    if sorted(order) != list(range(m.shape[0])):
        raise InvalidInputError("order must be a permutation of the matrix nodes")
    return _seq_cost(list(order), m, close_tour)


_CHUNK = 1024  # pairs per numpy step: its temporaries stay under 100 KB


@functools.cache
def _layers(k: int):
    """Index arrays of the Held-Karp table over k interior nodes: the flat
    index ``mask * k + v`` of each one-node mask, row offsets, and the
    (mask, v in mask) pairs of popcounts 2..k in chunks of at most _CHUNK,
    each as flat indices, ``v`` and ``mask - v``."""
    nodes = np.arange(k, dtype=np.int32)
    bits = (np.arange(1 << k, dtype=np.int32)[:, None] >> nodes) & 1
    popcount = bits.sum(axis=1)
    chunks = []
    for size in range(2, k + 1):
        mask, v = np.nonzero(bits * (popcount == size)[:, None])
        mask, v = mask.astype(np.int32), v.astype(np.int32)
        for c in range(0, len(v), _CHUNK):
            mc, vc = mask[c:c + _CHUNK], v[c:c + _CHUNK]
            chunks.append((mc * k + vc, vc, mc ^ (1 << vc)))
    return (1 << nodes) * k + nodes, k * np.arange(_CHUNK), chunks


def _held_karp(m: np.ndarray, start: int):
    """Held-Karp table from ``start`` over every other node: returns the
    other nodes ``interior``, ``ends[u]``, the cost of the cheapest path
    through all of them that ends at ``interior[u]``, and ``path(u)``, that
    path walked back through the flat ``mask * k + v`` parent table."""
    interior = [v for v in range(m.shape[0]) if v != start]
    k = len(interior)
    idx = np.array(interior)
    step = m[idx][:, idx].T  # step[v, u]: the leg u -> v
    singles, rows, chunks = _layers(k)
    dp = np.full(k << k, _INF)
    parent = np.zeros(k << k, dtype=np.int8)
    dp[singles] = m[start, idx]
    for flat, v, prev in chunks:
        cand = dp.reshape(-1, k)[prev]
        cand += step[v]
        u = cand.argmin(axis=1)
        parent[flat] = u
        dp[flat] = cand.reshape(-1)[rows[:len(u)] + u]

    def path(u: int) -> list:
        mid, mask = [], (1 << k) - 1
        for _ in range(k):
            mid.append(interior[u])
            mask, u = mask ^ (1 << u), int(parent[mask * k + u])
        return [start] + mid[::-1]

    return interior, dp[-k:], path


def _nearest_neighbor(m: np.ndarray, start: int, pool: list, end: int | None):
    """Greedy construction from ``start`` through ``pool`` (ties: lowest index),
    optionally finishing at ``end``."""
    order = [start]
    remaining = sorted(pool)
    cur = start
    while remaining:
        best, best_v = _INF, -1
        for v in remaining:
            c = m[cur, v]
            if c < best:
                best, best_v = c, v
        order.append(best_v)
        remaining.remove(best_v)
        cur = best_v
    if end is not None:
        order.append(end)
    return order


def _two_opt(order: list, m: np.ndarray, close: bool, fixed_last: bool):
    """Best-improvement 2-opt with full recomputation of reversed segments
    (safe for asymmetric matrices).  Position 0 is fixed; the final position
    too when ``fixed_last``.  Capped at 10*n^2 improving applications."""
    n = len(order)
    hi = n - 1 if fixed_last else n
    cur_cost = _seq_cost(order, m, close)
    cap = 10 * n * n
    applied = 0
    improved = True
    while improved and applied < cap:
        improved = False
        best_cost, best_move = cur_cost, None
        for i in range(1, hi - 1):
            for j in range(i + 1, hi):
                cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
                cand_cost = _seq_cost(cand, m, close)
                if cand_cost < best_cost - 1e-12:
                    best_cost, best_move = cand_cost, cand
        if best_move is not None:
            order, cur_cost = best_move, best_cost
            applied += 1
            improved = True
    return order, cur_cost


def solve_tour(costs, origin: int = 0, exact_threshold: int = EXACT_THRESHOLD) -> TspSolution:
    """Minimum-cost tour starting and ending at ``origin``.

    Exact (Held-Karp) for n <= exact_threshold, otherwise nearest-neighbor
    construction refined by 2-opt.
    """
    m = _as_matrix(costs)
    n = m.shape[0]
    if not 0 <= origin < n:
        raise InvalidInputError(f"origin {origin} out of range for {n} nodes")
    if n == 1:
        return TspSolution([origin], 0.0, "exact")
    if n <= exact_threshold:
        interior, ends, path = _held_karp(m, origin)
        tours = ends + m[interior, origin]
        u = int(tours.argmin())
        return TspSolution(path(u), float(tours[u]), "exact")
    order = _nearest_neighbor(m, origin, [v for v in range(n) if v != origin], None)
    order, cost = _two_opt(order, m, close=True, fixed_last=False)
    return TspSolution(order, cost, "heuristic")


def solve_path(costs, first: int, last: int, exact_threshold: int = EXACT_THRESHOLD) -> TspSolution:
    """Minimum-cost Hamiltonian path from ``first`` to ``last``.

    ``first == last`` is only meaningful for a single-node instance; larger
    instances must use solve_tour instead.
    """
    m = _as_matrix(costs)
    n = m.shape[0]
    for v, name in ((first, "first"), (last, "last")):
        if not 0 <= v < n:
            raise InvalidInputError(f"{name} node {v} out of range for {n} nodes")
    if first == last:
        if n == 1:
            return TspSolution([first], 0.0, "exact")
        raise InvalidInputError("first == last is only valid for a single-node path")
    if n <= exact_threshold:
        interior, ends, path = _held_karp(m, first)
        u = interior.index(last)
        return TspSolution(path(u), float(ends[u]), "exact")
    pool = [v for v in range(n) if v not in (first, last)]
    order = _nearest_neighbor(m, first, pool, last)
    order, cost = _two_opt(order, m, close=False, fixed_last=True)
    return TspSolution(order, cost, "heuristic")

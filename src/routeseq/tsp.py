"""Tour and path TSP over asymmetric travel-time matrices.

Small instances (n <= EXACT_THRESHOLD) are solved exactly with Held-Karp
dynamic programming; larger ones with nearest-neighbor construction plus
2-opt.  Because matrices may be asymmetric, 2-opt recomputes the full cost
of the reversed segment instead of using the symmetric delta formula.
Results are deterministic.  Held-Karp's tie rule: walking back from the end
of the order, each tie goes to the smallest node index, so an all-equal
matrix gives a descending interior (the tour from 0 over 4 nodes is
[0, 3, 2, 1]).  Nearest neighbor takes the smallest index among equally
near nodes; 2-opt keeps the first move it scans unless a later one is
better by more than 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

EXACT_THRESHOLD = 13
_INF = float("inf")


@dataclass(eq=False)
class CostMatrix:
    """Square non-negative cost matrix with optional node labels."""

    matrix: np.ndarray
    labels: list | None = None


@dataclass
class TspSolution:
    order: list          # node indices; tours start at the origin, paths at `first`
    cost: float          # summed legs (tours include the closing leg)
    kind: str            # "tour" | "path"
    method: str          # "exact" | "heuristic"


def _as_matrix(costs) -> np.ndarray:
    m = costs.matrix if isinstance(costs, CostMatrix) else costs
    m = np.asarray(m, dtype=np.float64)
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


def _held_karp(m: np.ndarray, start: int, end: int):
    """Cheapest path from ``start`` through every other node to ``end``.

    ``start == end`` gives the tour from ``start`` (the order then ends with
    ``start`` again).  Every scan runs in ascending index order and keeps its
    first strict minimum; that is what gives the module's tie rule.
    """
    n = m.shape[0]
    interior = [v for v in range(n) if v not in (start, end)]
    k = len(interior)
    if k == 0:
        return [start, end], float(m[start, end])
    full = (1 << k) - 1
    dp = [[_INF] * k for _ in range(full + 1)]
    parent = [[-1] * k for _ in range(full + 1)]
    for i in range(k):
        dp[1 << i][i] = m[start, interior[i]]
    for mask in range(1, full + 1):
        row = dp[mask]
        for u in range(k):
            cur = row[u]
            if cur == _INF or not (mask >> u) & 1:
                continue
            base = interior[u]
            for nxt in range(k):
                if (mask >> nxt) & 1:
                    continue
                nmask = mask | (1 << nxt)
                cand = cur + m[base, interior[nxt]]
                if cand < dp[nmask][nxt]:
                    dp[nmask][nxt] = cand
                    parent[nmask][nxt] = u
    best, best_u = _INF, -1
    for u in range(k):
        cand = dp[full][u] + m[interior[u], end]
        if cand < best:
            best, best_u = cand, u
    mid = []
    mask, u = full, best_u
    while u != -1:
        mid.append(interior[u])
        prev = parent[mask][u]
        mask ^= 1 << u
        u = prev
    mid.reverse()
    return [start] + mid + [end], float(best)


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
        return TspSolution([origin], 0.0, "tour", "exact")
    if n <= exact_threshold:
        order, cost = _held_karp(m, origin, origin)
        return TspSolution(order[:-1], cost, "tour", "exact")
    order = _nearest_neighbor(m, origin, [v for v in range(n) if v != origin], None)
    order, cost = _two_opt(order, m, close=True, fixed_last=False)
    return TspSolution(order, cost, "tour", "heuristic")


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
            return TspSolution([first], 0.0, "path", "exact")
        raise InvalidInputError("first == last is only valid for a single-node path")
    if n <= exact_threshold:
        order, cost = _held_karp(m, first, last)
        return TspSolution(order, cost, "path", "exact")
    pool = [v for v in range(n) if v not in (first, last)]
    order = _nearest_neighbor(m, first, pool, last)
    order, cost = _two_opt(order, m, close=False, fixed_last=True)
    return TspSolution(order, cost, "path", "heuristic")

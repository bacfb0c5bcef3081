"""Tour and path TSP over asymmetric travel-time matrices.

Instances of n <= EXACT_THRESHOLD nodes are solved exactly by Held-Karp,
larger ones by nearest-neighbor construction plus 2-opt, which recomputes
the full cost of a reversed segment because matrices may be asymmetric, in
one numpy pass per move with the adds of rescoring each candidate alone.
Results are deterministic.  Held-Karp runs from a start over bitmasks of
the other nodes one popcount layer at a time: numpy takes a layer's
candidates ``dp[mask - v, u] + m[u, v]`` (one float add each) in a few
steps.  The tables of several starts run as one DP, each mask's row holding
every start's entries side by side, so they share the steps and each keeps
the adds and parents it has alone.  One table serves the tour and the path
to every end; a u outside the mask is ``inf``, so the masks without an end
hold the bits of a DP that leaves the end out.  The parent, like the tour's
last node, is the first ``argmin`` over ascending u, which gives the tie
rule: walking back from the end of the order, each tie goes to the smallest
node index, so an all-equal matrix gives a descending interior (the tour
from 0 over 4 nodes is [0, 3, 2, 1]).  Nearest neighbor takes the smallest
index among equally near nodes; 2-opt keeps the first move it scans unless
a later one is better by more than 1e-12.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

EXACT_THRESHOLD = 13
TWO_OPT_CAP = 10  # improving 2-opt moves per n^2, at most, on n nodes
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


_CHUNK = 1024  # pairs per numpy step: its temporaries stay under 100 KB a start


@functools.cache
def _layers(k: int, s: int):
    """Index arrays of s Held-Karp tables over k interior nodes, entry (mask,
    v) of table i at ``(mask * s + i) * k + v``: those of the one-node masks,
    (k, s), and the (mask, v in mask) pairs of popcounts 2..k in chunks of at
    most _CHUNK, each as (pairs, s) entries, ``v``, ``mask - v`` and the
    (pairs, s) row offsets of the chunk's candidates."""
    nodes = np.arange(k, dtype=np.int32)
    lanes = k * np.arange(s, dtype=np.int32)
    bits = (np.arange(1 << k, dtype=np.int32)[:, None] >> nodes) & 1
    popcount = bits.sum(axis=1)
    chunks = []
    for size in range(2, k + 1):
        mask, v = np.nonzero(bits * (popcount == size)[:, None])
        mask, v = mask.astype(np.int32), v.astype(np.int32)
        for c in range(0, len(v), _CHUNK):
            mc, vc = mask[c:c + _CHUNK], v[c:c + _CHUNK]
            chunks.append(((mc * s * k + vc)[:, None] + lanes, vc, mc ^ (1 << vc),
                           k * np.arange(len(vc) * s, dtype=np.int32).reshape(-1, s)))
    return ((1 << nodes) * s * k + nodes)[:, None] + lanes, chunks


def _held_karp(m: np.ndarray, starts: list) -> list:
    """Held-Karp tables from each of ``starts`` over every other node, run
    as one DP whose row of a mask holds every start's entries.  Returns per
    start the other nodes ``interior``, ``ends[u]``, the cost of the
    cheapest path through all of them that ends at ``interior[u]``, and
    ``path(u)``, that path walked back through the flat parent table."""
    n, s = m.shape[0], len(starts)
    k, full = n - 1, (1 << (n - 1)) - 1
    interior = [[v for v in range(n) if v != start] for start in starts]
    idx = np.array(interior, dtype=int)
    step = m[idx[None], idx.T[:, :, None]].reshape(k, s * k)  # step[v, i * k + u]: the leg u -> v
    singles, chunks = _layers(k, s)
    dp = np.full(s * k << k, _INF)
    parent = np.zeros(s * k << k, dtype=np.int8)
    dp[singles] = m[starts, idx.T]
    table = dp.reshape(1 << k, s * k)
    for flat, v, prev, rows in chunks:
        cand = table.take(prev, axis=0)
        cand += step.take(v, axis=0)
        u = cand.reshape(-1, s, k).argmin(axis=2)
        parent[flat] = u
        dp[flat] = cand.reshape(-1)[rows + u]

    def path(i: int, u: int) -> list:
        mid, mask = [], full
        for _ in range(k):
            mid.append(interior[i][u])
            mask, u = mask ^ (1 << u), int(parent[(mask * s + i) * k + u])
        return [starts[i]] + mid[::-1]

    return [(interior[i], table[full, i * k:(i + 1) * k], functools.partial(path, i))
            for i in range(s)]


def _nearest_neighbor(m: np.ndarray, start: int, pool: list, end: int | None):
    """Greedy construction from ``start`` through ``pool`` (ties: lowest index,
    as ``min`` keeps the first of equal keys), optionally finishing at ``end``."""
    order, remaining = [start], sorted(pool)
    while remaining:
        order.append(min(remaining, key=lambda v: m[order[-1], v]))
        remaining.remove(order[-1])
    return order if end is None else [*order, end]


@functools.cache
def _reversals(n: int, hi: int, close: bool):
    """2-opt's reversals of positions i..j (1 <= i < j < hi) of n nodes in scan
    order: the positions each walks, from a virtual node n whose 0.0 leg adds
    ``_seq_cost``'s first 0.0, and its legs' flat indexes in an (n+1)^2 matrix."""
    rows = np.array([[n, *range(i), *range(j, i - 1, -1), *range(j + 1, n), *[0] * close]
                     for i in range(1, hi - 1) for j in range(i + 1, hi)],
                    dtype=np.intp).reshape(-1, n + 1 + close)
    return rows, rows[:, :-1] * (n + 1) + rows[:, 1:]


def _two_opt(order: list, m: np.ndarray, close: bool, fixed_last: bool):
    """Best-improvement 2-opt with full recomputation of reversed segments
    (safe for asymmetric matrices).  Position 0 is fixed; the final position
    too when ``fixed_last``.  Capped at TWO_OPT_CAP * n^2 improving moves.  A
    pass sums every candidate's legs at once in ``_seq_cost``'s order and applies
    the last one in scan order that beat the running best by over 1e-12."""
    n = len(order)
    rows, legs = _reversals(n, n - 1 if fixed_last else n, close)
    cur_cost = _seq_cost(order, m, close)
    pad = np.zeros((n + 1, n + 1))  # m, and the virtual node n
    pad[:n, :n] = m
    for _ in range(int(TWO_OPT_CAP * n * n)):
        nodes = np.append(order, n)  # the node at each position
        costs = np.add.accumulate(pad[np.ix_(nodes, nodes)].take(legs), axis=1)[:, -1]
        k, best = -1, cur_cost
        while (hits := np.flatnonzero(costs[k + 1:] < best - 1e-12)).size:
            k += 1 + int(hits[0])
            best = costs[k]
        if k < 0:
            break
        order, cur_cost = nodes[rows[k, 1:n + 1]].tolist(), float(best)
    return order, cur_cost


def _heuristic(m: np.ndarray, start: int, end: int | None) -> TspSolution:
    """Nearest neighbor refined by 2-opt: the path from ``start`` to
    ``end``, or the tour from ``start`` when ``end`` is None."""
    order = _nearest_neighbor(m, start, [v for v in range(len(m)) if v not in (start, end)], end)
    order, cost = _two_opt(order, m, close=end is None, fixed_last=end is not None)
    return TspSolution(order, cost, "heuristic")


def _solve(m: np.ndarray, start: int, end: int | None) -> TspSolution:
    """``solve_path`` from ``start`` to ``end``, or ``solve_tour`` when ``end`` is None."""
    n = m.shape[0]
    if n == 1:
        return TspSolution([start], 0.0, "exact")
    if n > EXACT_THRESHOLD:
        return _heuristic(m, start, end)
    interior, ends, path = _held_karp(m, [start])[0]
    if end is None:
        ends = ends + m[interior, start]
        u = int(ends.argmin())
    else:
        u = interior.index(end)
    return TspSolution(path(u), float(ends[u]), "exact")


def solve_tour(costs, origin: int = 0) -> TspSolution:
    """Minimum-cost tour starting and ending at ``origin``.

    Exact (Held-Karp) for n <= EXACT_THRESHOLD, otherwise nearest-neighbor
    construction refined by 2-opt.
    """
    m = _as_matrix(costs)
    n = m.shape[0]
    if not 0 <= origin < n:
        raise InvalidInputError(f"origin {origin} out of range for {n} nodes")
    return _solve(m, origin, None)


def solve_path(costs, first: int, last: int) -> TspSolution:
    """Minimum-cost Hamiltonian path from ``first`` to ``last``.

    ``first == last`` is only meaningful for a single-node instance; larger
    instances must use solve_tour instead.
    """
    m = _as_matrix(costs)
    n = m.shape[0]
    for v, name in ((first, "first"), (last, "last")):
        if not 0 <= v < n:
            raise InvalidInputError(f"{name} node {v} out of range for {n} nodes")
    if first == last and n > 1:
        raise InvalidInputError("first == last is only valid for a single-node path")
    return _solve(m, first, last)

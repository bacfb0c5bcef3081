"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (exhaustive
enumeration, direct formula evaluation) and never calls the code under test,
except ``zone_path_per_pair_ref``, which calls the per-pair ``tsp`` solvers
that ``test_tsp`` checks against ``held_karp_loop``, and ``train_ref``, the
training loop tensor by tensor, which runs the model's forward and backward
passes.
"""

import re
from itertools import permutations

import numpy as np


def brute_force_tour(costs: np.ndarray, origin: int):
    """Minimum tour by enumerating every permutation of the other nodes."""
    n = costs.shape[0]
    others = [v for v in range(n) if v != origin]
    best_cost, best_order = None, None
    for perm in permutations(others):
        order = [origin, *perm]
        cost = sum(costs[a][b] for a, b in zip(order, order[1:])) + costs[order[-1]][origin]
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    if best_order is None:
        return [origin], 0.0
    return best_order, float(best_cost)


def brute_force_path(costs: np.ndarray, first: int, last: int):
    """Minimum Hamiltonian path by enumerating interior orders."""
    n = costs.shape[0]
    interior = [v for v in range(n) if v not in (first, last)]
    best_cost, best_order = None, None
    for perm in permutations(interior):
        order = [first, *perm, last]
        cost = sum(costs[a][b] for a, b in zip(order, order[1:]))
        if best_cost is None or cost < best_cost:
            best_cost, best_order = cost, order
    return best_order, float(best_cost)


def tie_rule_order(costs: np.ndarray, first: int, last: int | None):
    """Exact order and cost under the solvers' tie rule, by enumeration.

    ``last=None`` asks for the tour from ``first``; otherwise the path from
    ``first`` to ``last``.  Legs are summed left to right, a tour's closing
    leg last.  Among orders of exactly equal cost the one whose interior,
    read backwards, is lexicographically smallest wins: walking back from
    the end, each tie goes to the smallest node index.
    """
    n = costs.shape[0]
    if n == 1:
        return [first], 0.0
    end = first if last is None else last
    interior = [v for v in range(n) if v not in (first, end)]
    best = None
    for perm in permutations(interior):
        order = [first, *perm, end]
        cost = 0.0
        for a, b in zip(order, order[1:]):
            cost += costs[a][b]
        key = (cost, perm[::-1])
        if best is None or key < best[0]:
            best = (key, order)
    (cost, _), order = best
    return (order[:-1] if last is None else order), float(cost)


def nearest_neighbor_ref(costs: np.ndarray, start: int, pool, end: int | None):
    """Nearest neighbour by plain loops: from the last node, the first node
    in ascending index order of strictly smallest cost among those left;
    ``end`` is appended when given."""
    order, left = [start], set(pool)
    while left:
        best = None
        for v in range(costs.shape[0]):
            if v in left and (best is None or costs[order[-1]][v] < costs[order[-1]][best]):
                best = v
        order.append(best)
        left.remove(best)
    return order if end is None else [*order, end]


def _seq_cost_loop(order, costs, close):
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        total += costs[a, b]
    if close and len(order) > 1:
        total += costs[order[-1], order[0]]
    return float(total)


def two_opt_loop(order, costs, close, fixed_last, cap=None):
    """Best-improvement 2-opt by plain loops, rescoring every reversal of
    positions i..j (1 <= i < j, the last position kept when ``fixed_last``)
    in full, left to right from 0.0 with the closing leg last; in scan
    order a candidate is kept when it beats the running best by more than
    1e-12.  At most ``cap`` improving moves (10 n^2 by default)."""
    n = len(order)
    hi = n - 1 if fixed_last else n
    cur_cost = _seq_cost_loop(order, costs, close)
    cap = 10 * n * n if cap is None else cap
    applied = 0
    improved = True
    while improved and applied < cap:
        improved = False
        best_cost, best_move = cur_cost, None
        for i in range(1, hi - 1):
            for j in range(i + 1, hi):
                cand = order[:i] + order[i:j + 1][::-1] + order[j + 1:]
                cand_cost = _seq_cost_loop(cand, costs, close)
                if cand_cost < best_cost - 1e-12:
                    best_cost, best_move = cand_cost, cand
        if best_move is not None:
            order, cur_cost = best_move, best_cost
            applied += 1
            improved = True
    return order, cur_cost


def held_karp_loop(costs: np.ndarray, first: int, last: int):
    """Plain-loop Held-Karp over interior bitmasks (``first == last`` is the
    tour), for sizes past enumeration.  Each target keeps its first strict
    minimum over ascending predecessors; the order ends with ``last``."""
    interior = [v for v in range(costs.shape[0]) if v not in (first, last)]
    k = len(interior)
    if k == 0:
        return [first, last], float(costs[first][last])
    inf = float("inf")
    dp = [[inf] * k for _ in range(1 << k)]
    parent = [[-1] * k for _ in range(1 << k)]
    for i in range(k):
        dp[1 << i][i] = costs[first][interior[i]]
    for mask in range(1, 1 << k):
        for v in range(k):
            if not (mask >> v) & 1 or mask == 1 << v:
                continue
            prev = mask ^ (1 << v)
            for u in range(k):
                if (prev >> u) & 1:
                    cand = dp[prev][u] + costs[interior[u]][interior[v]]
                    if cand < dp[mask][v]:
                        dp[mask][v], parent[mask][v] = cand, u
    full = (1 << k) - 1
    ends = [dp[full][u] + costs[interior[u]][last] for u in range(k)]
    u = ends.index(min(ends))
    best = ends[u]
    mid, mask = [], full
    while u != -1:
        mid.append(interior[u])
        mask, u = mask ^ (1 << u), parent[mask][u]
    return [first, *mid[::-1], last], float(best)


def route_cost_ref(order, costs, close):
    total = sum(costs[a][b] for a, b in zip(order, order[1:]))
    if close and len(order) > 1:
        total += costs[order[-1]][order[0]]
    return float(total)


def time_norm_ref(travel_time, stops):
    """Row-normalized travel time: Time(a,b) / sum over the stop set."""
    cols = sorted(stops)

    def tn(a, b):
        denom = float(sum(travel_time[a][c] for c in cols))
        if denom <= 0.0:
            return 0.0
        return float(travel_time[a][b]) / denom

    return tn


def erp_traceback_ref(actual, predicted, travel_time):
    """(ERP_norm, ERP_e) from a full cost table, an op table and a traceback.

    The table fill is cell by cell, each cell's three float adds compared
    with strict ``<`` in the order match, delete, insert.  ERP_e counts the
    nonzero-cost operations met walking the op table from (0, 0).  Costs and
    counts must match ``scoring.erp`` bit for bit at any length.
    """
    match_op, delete_op, insert_op = 0, 1, 2
    a = list(actual)
    b = list(predicted)
    tt = np.asarray(travel_time, dtype=float)
    cols = sorted(set(a) | set(b))
    sums = {}

    def tn(x, y):
        if x not in sums:
            sums[x] = float(np.sum(tt[x, cols]))
        denom = sums[x]
        if denom <= 0.0:
            return 0.0
        return float(tt[x, y]) / denom

    la, lb = len(a), len(b)
    del_cost = [tn(a[i], 0) for i in range(la)]
    ins_cost = [tn(0, b[j]) for j in range(lb)]
    cost = np.zeros((la + 1, lb + 1))
    op = np.full((la + 1, lb + 1), -1, dtype=int)
    for i in range(la - 1, -1, -1):
        cost[i, lb] = cost[i + 1, lb] + del_cost[i]
        op[i, lb] = delete_op
    for j in range(lb - 1, -1, -1):
        cost[la, j] = cost[la, j + 1] + ins_cost[j]
        op[la, j] = insert_op
    for i in range(la - 1, -1, -1):
        for j in range(lb - 1, -1, -1):
            options = (
                (cost[i + 1, j + 1] + tn(a[i], b[j]), match_op),
                (cost[i + 1, j] + del_cost[i], delete_op),
                (cost[i, j + 1] + ins_cost[j], insert_op),
            )
            best, which = options[0]
            for c, o in options[1:]:
                if c < best:
                    best, which = c, o
            cost[i, j] = best
            op[i, j] = which
    edits = 0
    i = j = 0
    while i < la or j < lb:
        which = op[i, j]
        if which == match_op:
            if tn(a[i], b[j]) > 0.0:
                edits += 1
            i += 1
            j += 1
        elif which == delete_op:
            if del_cost[i] > 0.0:
                edits += 1
            i += 1
        else:
            if ins_cost[j] > 0.0:
                edits += 1
            j += 1
    return float(cost[0, 0]), edits


def erp_exhaustive(actual, predicted, travel_time):
    """(min alignment cost, edit count of the canonical optimal script).

    Enumerates every monotone edit script (match / delete-from-actual /
    insert-from-predicted, gap element = depot 0).  Among scripts within
    1e-12 of the minimum cost, the canonical one is the lexicographically
    smallest op string under match < delete < insert, which matches a
    per-cell preference of match > delete > insert; its nonzero-cost
    operations are counted.
    """
    a, b = list(actual), list(predicted)
    tn = time_norm_ref(travel_time, set(a) | set(b))
    la, lb = len(a), len(b)
    scripts = []

    def rec(i, j, cost, ops):
        if i == la and j == lb:
            scripts.append((cost, tuple(ops)))
            return
        if i < la and j < lb:
            c = tn(a[i], b[j])
            rec(i + 1, j + 1, cost + c, ops + [(0, c)])
        if i < la:
            c = tn(a[i], 0)
            rec(i + 1, j, cost + c, ops + [(1, c)])
        if j < lb:
            c = tn(0, b[j])
            rec(i, j + 1, cost + c, ops + [(2, c)])

    rec(0, 0, 0.0, [])
    best = min(cost for cost, _ in scripts)
    optimal = [ops for cost, ops in scripts if cost <= best + 1e-12]
    canonical = min(optimal, key=lambda ops: tuple(code for code, _ in ops))
    edits = sum(1 for _, c in canonical if c > 0.0)
    return best, edits


def mlp_ref(x, layers):
    """Plain-loop MLP evaluation: affine + relu hidden, affine output."""
    h = [float(v) for v in x]
    for k, (w, b) in enumerate(layers):
        out = []
        for r in range(len(w)):
            s = float(b[r])
            for c in range(len(h)):
                s += float(w[r][c]) * h[c]
            out.append(s)
        if k != len(layers) - 1:
            out = [v if v > 0 else 0.0 for v in out]
        h = out
    return np.array(h)


def lstm_ref(x, h, c, p):
    """Direct evaluation of the gate formulas."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def pre(k):  # gate k's rows of the stacked f, i, o, c weights
        rows = slice(k * len(h), (k + 1) * len(h))
        return p.w[rows] @ x + p.u[rows] @ h + p.b[rows]

    f, i, o = sig(pre(0)), sig(pre(1)), sig(pre(2))
    c_tilde = np.tanh(pre(3))
    c_new = f * c + i * c_tilde
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def sd_ref(actual, predicted):
    """Sequence deviation evaluated directly from its definition."""
    n = len(actual)
    if n < 2:
        return 0.0
    pos = {s: k for k, s in enumerate(actual)}
    total = sum(abs(pos[predicted[i]] - pos[predicted[i - 1]]) - 1 for i in range(1, n))
    return (2 * total) / (n * (n - 1))


def finite_difference(loss_fn, arr, index, eps=1e-5):
    """Central finite difference of loss_fn w.r.t. arr.flat[index]."""
    flat = arr.ravel()
    orig = flat[index]
    flat[index] = orig + eps
    lp = loss_fn()
    flat[index] = orig - eps
    lm = loss_fn()
    flat[index] = orig
    return (lp - lm) / (2.0 * eps)


def grad_close(fd, an, rel_tol=1e-4, floor=1e-4):
    """Relative agreement with a floor guarding vanishing gradients (where
    central differences are dominated by float noise)."""
    return abs(fd - an) <= rel_tol * max(abs(fd), abs(an), floor)


def zone_travel_time_ref(route, zones):
    """Zone-level matrix by separate formulas: the depot row and column
    average over the zone's member stops, zone pairs over all member pairs."""
    tt = route.travel_time
    ztt = np.zeros((len(zones) + 1, len(zones) + 1))
    for i, zi in enumerate(zones):
        rows = [k + 1 for k in zi.member_stops]
        ztt[0, i + 1] = float(np.mean(tt[0, rows]))
        ztt[i + 1, 0] = float(np.mean(tt[rows, 0]))
        for j, zj in enumerate(zones):
            if i != j:
                cols = [k + 1 for k in zj.member_stops]
                ztt[i + 1, j + 1] = float(np.mean(tt[np.ix_(rows, cols)]))
    return ztt


def _summary_ref(outgoing):
    if outgoing.size == 0:
        return [0.0, 0.0, 0.0, 0.0]
    return [float(outgoing.min()), float(outgoing.mean()),
            float(outgoing.max()), float(outgoing.std())]


def node_features_ref(route, zinst):
    """Feature rows by the per-node formulas: the depot's row (coordinates,
    no load, summary of its times to the zones, zero time to itself), then
    one row per zone (centroid, member counts and load sums, summary of its
    times to the other zones, time back to the depot)."""
    ztt = zinst.zone_travel_time
    rows = [[route.depot.lat, route.depot.lng, 0.0, 0.0, 0.0, 0.0, 0.0,
             *_summary_ref(ztt[0, 1:]), 0.0]]
    for k, zone in enumerate(zinst.zones):
        stops = [route.stops[s] for s in zone.member_stops]
        rows.append([
            zone.centroid[0], zone.centroid[1], float(len(stops)), 0.0,
            float(sum(s.n_packages for s in stops)),
            float(sum(s.service_time for s in stops)),
            float(sum(s.package_volume for s in stops)),
            *_summary_ref(np.delete(ztt[k + 1, 1:], k)),
            float(ztt[k + 1, 0]),
        ])
    return np.array(rows)


def _relationship_ref(id_a, id_b):
    pattern = r"^([A-Za-z]+)-([0-9]+)\.([0-9]+)([A-Za-z])$"
    ma, mb = re.match(pattern, id_a), re.match(pattern, id_b)
    if ma is None or mb is None:
        return [0.0] * 5
    area_a, major_a, minor_a, letter_a = ma.groups()
    area_b, major_b, minor_b, letter_b = mb.groups()
    same_area = area_a.upper() == area_b.upper()
    same_major = same_area and int(major_a) == int(major_b)
    same_minor = same_major and int(minor_a) == int(minor_b)
    return [float(same_area), float(same_major), float(same_minor),
            float(abs(int(minor_a) - int(minor_b))),
            float(abs(ord(letter_a.upper()) - ord(letter_b.upper())))]


def pair_tensor_ref(zinst):
    """Pair features pair by pair: the depot (source 0) to zone j is its
    time with zero relationship fields; zone i to zone j is the time plus
    the parsed-id relationship; a zone to itself is (0, 1, 1, 1, 0, 0)."""
    ztt = zinst.zone_travel_time
    ids = [zone.zone_id for zone in zinst.zones]
    n = len(ids)
    pair = np.zeros((n + 1, n, 6))
    for j in range(n):
        pair[0, j] = [float(ztt[0, j + 1]), 0.0, 0.0, 0.0, 0.0, 0.0]
        for i in range(n):
            if i == j:
                pair[i + 1, j] = [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]
            else:
                pair[i + 1, j] = [float(ztt[i + 1, j + 1]), *_relationship_ref(ids[i], ids[j])]
    return pair


def zone_path_per_pair_ref(route, members, entry_from, next_nodes):
    """Zone completion with one TSP solve per (entry, exit) candidate pair,
    up to 3 x 3 per zone: the former ``completion.best_zone_path``, verbatim
    but for its name, a nested ``_closest`` and 3 for ``N_CANDIDATES``."""
    from routeseq.tsp import solve_path, solve_tour

    def _closest(indices, scores, count):
        ranked = sorted(zip(scores, indices))
        return [idx for _, idx in ranked[:count]]

    tt = route.travel_time
    nodes = [m + 1 for m in members]
    if len(members) == 1:
        return [members[0]], 0.0
    firsts = _closest(members, [tt[entry_from, m + 1] for m in members], 3)
    lasts = _closest(
        members,
        [float(np.mean([tt[m + 1, t] for t in next_nodes])) for m in members],
        3,
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


def adam_per_tensor(params: dict, grads: dict, state: dict, lr: float) -> None:
    """One bias-corrected Adam update in place, tensor by tensor, each in its
    own two temporaries: the loop that the flat ``adam_step`` replaced.
    ``state`` holds the step count and the moments ``m`` and ``v`` by name."""
    state["step"] += 1
    t = state["step"]
    bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
    for name, p in params.items():
        g, m, v = grads[name], state["m"][name], state["v"][name]
        step, denom = np.multiply(g, 1.0 - 0.9), np.multiply(g, 1.0 - 0.999)
        m *= 0.9
        m += step
        denom *= g
        v *= 0.999
        v += denom
        np.divide(m, bc1, out=step)
        step *= lr
        np.sqrt(np.divide(v, bc2, out=denom), out=denom)
        denom += 1e-8
        step /= denom
        p -= step


def tape_gradients_ref(tape, named: dict) -> dict:
    """{name: gradient} of a tape that kept no flat buffer: its own array
    for a tensor that got one, a new array of zeros for any other."""
    return {name: tape.grads[id(t)] if id(t) in tape.grads else np.zeros_like(t)
            for name, t in named.items()}


def clip_ref(grads: dict, max_norm: float) -> dict:
    """New gradients scaled to the joint L2 norm ``max_norm`` when theirs
    (finite) is larger, the squares summed tensor by tensor."""
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    return {name: g * (max_norm / norm) for name, g in grads.items()} if norm > max_norm else grads


def train_ref(routes, config):
    """``training.train``'s loop with every tensor apart: the model as
    ``init_model`` makes it, each route on a new tape whose gradients are
    new arrays, ``clip_ref`` and ``adam_per_tensor``.  Returns the model
    and the epoch losses."""
    from routeseq import predictor
    from routeseq.kernel import Node, Tape, unwrap

    preps = [predictor.prepare_route(r) for r in routes]
    model_cfg = predictor.ModelConfig(
        variant=config.variant, hidden=config.hidden, asnn_hidden=tuple(config.asnn_hidden),
        att_dim=config.att_dim, input_order_mode=config.input_order, order_seed=config.seed,
        kz=max(p.n_zones for p in preps) if config.variant == "lstm_ed" else None)
    rng = np.random.default_rng(config.seed)
    params = predictor.init_model(model_cfg, rng)
    params.scaler = predictor.fit_scaler(preps)
    scaled = [predictor.scale_route(p, params) for p in preps]
    named = predictor.model_tensors(params)
    state = {"step": 0, "m": {name: np.zeros_like(t) for name, t in named.items()},
             "v": {name: np.zeros_like(t) for name, t in named.items()}}
    losses = []
    for _ in range(config.epochs):
        total = 0.0
        for idx in rng.permutation(len(scaled)):
            tape = Tape()
            loss, _ = predictor.forward_logprob(params, scaled[idx], tape)
            if isinstance(loss, Node):
                tape.backward(loss)
            grads = tape_gradients_ref(tape, named)
            if config.grad_clip is not None:
                grads = clip_ref(grads, config.grad_clip)
            adam_per_tensor(named, grads, state, config.lr)
            total += float(unwrap(loss))
        losses.append(total / len(scaled))
    return params, losses

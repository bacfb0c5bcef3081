"""Disparity scoring of predicted against executed sequences.

Stop sequences are compared with the combined score

    R = SD * ERP_norm / ERP_e        (0 when ERP_e = 0, i.e. exact match)

where SD is the adjacency-based sequence deviation, ERP_norm the Edited
Distance with Real Penalty under row-normalized travel times (Chen & Ng,
VLDB 2004), and ERP_e the number of costly edit operations along the optimal
alignment the ERP dynamic program chooses, ties resolved match > delete >
insert.  The depot is the ERP gap element.  Stop sequences are travel-time
matrix indices (1..n, depot = 0).  Zone-level first-k accuracy is
positional over the first FIRST_K zones.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import completion, inference
from .domain import RouteInstance, first_visit_zone_order
from .errors import InvalidInputError, RouteSeqError
from .predictor import ModelParams, prepare_route

FIRST_K = 4  # leading zone positions scored by first-k accuracy


def _check_permutation_pair(actual, predicted):
    if len(actual) != len(predicted) or len(set(actual)) != len(actual) \
            or set(actual) != set(predicted):
        raise InvalidInputError("predicted sequence must be a permutation of the actual one")


def sequence_deviation(actual, predicted) -> float:
    """SD(A, B) = 2/(n(n-1)) * sum_i (|pos_A(B_i) - pos_A(B_{i-1})| - 1).

    Zero iff consecutive predicted stops are consecutive in the actual
    order; a single-element sequence scores 0 by convention.
    """
    _check_permutation_pair(actual, predicted)
    n = len(actual)
    if n < 2:
        return 0.0
    pos = {stop: i for i, stop in enumerate(actual)}
    total = 0
    for a, b in zip(predicted[:-1], predicted[1:]):
        total += abs(pos[b] - pos[a]) - 1
    return (2 * total) / (n * (n - 1))


def _time_norm_row(tt: np.ndarray, x: int, cols: list) -> list:
    """Time_norm(x, .): row x of the travel times over its sum across the
    route's stops, or all zeros when that sum is not positive."""
    denom = float(np.sum(tt[x, cols]))
    if denom <= 0.0:
        return [0.0] * len(tt)
    return (tt[x] / denom).tolist()


def erp(actual, predicted, travel_time) -> tuple:
    """(ERP_norm, ERP_e) between two stop sequences.

    Three-branch dynamic program over match / delete / insert with the depot
    (matrix index 0) as the gap element; substitution costs Time_norm(a, b),
    a deleted actual stop costs Time_norm(a, depot), an inserted predicted
    stop costs Time_norm(depot, b).  Row normalization is over the route's
    stop set.  One sweep from the ends of both sequences fills cell (i, j)
    with the cheapest alignment of ``actual[i:]`` and ``predicted[j:]``,
    ties resolved match > delete > insert, and with the number of
    nonzero-cost operations along that chosen alignment: ERP_e is the count
    at (0, 0).  Only two rows of the table are held.
    """
    a = list(actual)
    b = list(predicted)
    tt = np.asarray(travel_time, dtype=float)
    cols = sorted(set(a) | set(b))
    depot = _time_norm_row(tt, 0, cols)
    ins = [depot[y] for y in b]
    lb = len(b)
    cost = [0.0] * (lb + 1)  # row i + 1 of the table, then row i
    edits = [0] * (lb + 1)
    for j in range(lb - 1, -1, -1):
        cost[j] = cost[j + 1] + ins[j]
        edits[j] = edits[j + 1] + (ins[j] > 0.0)
    for x in reversed(a):
        row = _time_norm_row(tt, x, cols)
        dele = row[0]
        below, below_e = cost, edits
        cost = [0.0] * lb + [below[lb] + dele]
        edits = [0] * lb + [below_e[lb] + (dele > 0.0)]
        for j in range(lb - 1, -1, -1):
            match = row[b[j]]
            best, e = below[j + 1] + match, below_e[j + 1] + (match > 0.0)
            c = below[j] + dele
            if c < best:
                best, e = c, below_e[j] + (dele > 0.0)
            c = cost[j + 1] + ins[j]
            if c < best:
                best, e = c, edits[j + 1] + (ins[j] > 0.0)
            cost[j] = best
            edits[j] = e
    return cost[0], edits[0]


def _disparity_terms(actual, predicted, travel_time) -> tuple:
    """``(R, SD, ERP_norm, ERP_e)``; see ``disparity``."""
    sd = sequence_deviation(actual, predicted)
    erp_norm, erp_e = erp(actual, predicted, travel_time)
    return (0.0 if erp_e == 0 else sd * erp_norm / erp_e), sd, erp_norm, erp_e


def disparity(actual, predicted, travel_time) -> float:
    """R = SD * ERP_norm / ERP_e; zero when no costly edit exists."""
    return _disparity_terms(actual, predicted, travel_time)[0]


def first_k_accuracy(actual, predicted) -> tuple:
    """Positional hit flags for the first FIRST_K elements, fewer when a
    sequence is shorter."""
    return tuple(1 if x == y else 0 for x, y in zip(actual[:FIRST_K], predicted))


@dataclass
class RouteScore:
    route_id: str
    r: float
    sd: float
    erp_norm: float
    erp_e: int
    first_k: tuple
    n_zones: int
    n_stops: int

    def to_dict(self):
        return {
            "route_id": self.route_id,
            "disparity": self.r,
            "sd": self.sd,
            "erp_norm": self.erp_norm,
            "erp_e": self.erp_e,
            "first_k_hits": list(self.first_k),
            "n_zones": self.n_zones,
            "n_stops": self.n_stops,
        }


@dataclass(eq=False)
class DisparityReport:
    rows: list
    mean_r: float
    std_r: float
    median_r: float
    accuracy: tuple      # mean positional accuracy for k = 1..FIRST_K
    failures: list       # (route_id, error message), excluded from aggregates

    def to_dict(self):
        return {
            "mean_disparity": self.mean_r,
            "std_disparity": self.std_r,
            "median_disparity": self.median_r,
            "first_k_accuracy": list(self.accuracy),
            "n_routes": len(self.rows),
            "n_failures": len(self.failures),
            "failures": [{"route_id": rid, "error": msg} for rid, msg in self.failures],
            "routes": [row.to_dict() for row in self.rows],
        }


def aggregate(rows, failures) -> DisparityReport:
    """The report over the scored ``rows``; with none, an error that names
    every failure's route id and message."""
    if not rows:
        raise InvalidInputError("; ".join(["no routes were scored",
                                           *(f"{rid}: {msg}" for rid, msg in failures)]))
    rs = np.array([row.r for row in rows])
    acc = []
    for i in range(FIRST_K):
        hits = [row.first_k[i] for row in rows if len(row.first_k) > i]
        acc.append(float(np.mean(hits)) if hits else 0.0)
    return DisparityReport(rows, float(rs.mean()), float(rs.std()),
                           float(np.median(rs)), tuple(acc), failures)


def score_route(route: RouteInstance, prep, zone_order=None, stop_indices=None) -> RouteScore:
    """Score one route given a predicted zone order, a full stop order, or
    both.  Zone orders are expanded to stops before stop-level scoring."""
    if stop_indices is None:
        if zone_order is None:
            raise InvalidInputError("need a zone order or a stop sequence to score")
        stop_indices = completion.complete_sequence(zone_order, prep.zinst, route)
    elif zone_order is None:
        zone_order = first_visit_zone_order(prep.zinst.zones, stop_indices)
    elif sorted(zone_order) != list(range(prep.n_zones)):
        raise InvalidInputError("zone_order must be a permutation of the zones")
    actual = [s + 1 for s in route.actual_stop_sequence]
    predicted = [s + 1 for s in stop_indices]
    r, sd, erp_norm, erp_e = _disparity_terms(actual, predicted, route.travel_time)
    hits = first_k_accuracy(prep.targets, zone_order)
    return RouteScore(route.route_id, r, sd, erp_norm, erp_e, hits,
                      prep.n_zones, route.n_stops)


def evaluate_testset(routes, params: ModelParams | None = None, sequences: dict | None = None,
                     mode: str = inference.BEST_FIRST) -> DisparityReport:
    """Predict (or take given sequences), expand to stops, score, aggregate.

    ``sequences`` maps route_id to {"zone_sequence": [zone ids]} and/or
    {"stop_sequence": [stop ids]}.  Routes whose input is rejected with a
    ``RouteSeqError`` are excluded and surfaced in the report's ``failures``;
    any other exception is a program bug and propagates.
    """
    if not routes:
        raise InvalidInputError("routes must be non-empty")
    if params is None and sequences is None:
        raise InvalidInputError("need a model or fixed sequences")
    if mode not in (inference.GREEDY, inference.BEST_FIRST):
        raise InvalidInputError(f"unknown generation mode {mode!r}")
    rows, failures = [], []
    for route in routes:
        try:
            prep = prepare_route(route)
            zone_order = stop_indices = None
            if sequences is not None:
                entry = sequences.get(route.route_id)
                if entry is None:
                    raise InvalidInputError("no prediction for this route")
                if not isinstance(entry, Mapping):
                    raise InvalidInputError(
                        f"prediction entry must be a mapping, not {type(entry).__name__}")
                for key in ("stop_sequence", "zone_sequence"):
                    if entry.get(key) is not None and not isinstance(entry[key], list):
                        raise InvalidInputError(
                            f"{key} must be a list, not {type(entry[key]).__name__}")
                    if not all(isinstance(v, str) for v in entry.get(key) or ()):
                        raise InvalidInputError(f"{key} must hold string ids")
                if entry.get("stop_sequence") is not None:
                    by_id = {s.stop_id: i for i, s in enumerate(route.stops)}
                    try:
                        stop_indices = [by_id[sid] for sid in entry["stop_sequence"]]
                    except KeyError as exc:
                        raise InvalidInputError(f"unknown stop id {exc.args[0]!r}") from None
                if entry.get("zone_sequence") is not None:
                    zone_order = [prep.zinst.zone_index(zid) for zid in entry["zone_sequence"]]
            else:
                zone_order = inference.predict(params, prep, mode).zone_order
            rows.append(score_route(route, prep, zone_order, stop_indices))
        except RouteSeqError as exc:
            failures.append((route.route_id, f"{type(exc).__name__}: {exc}"))
    return aggregate(rows, failures)

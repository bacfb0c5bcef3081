"""Synthetic route generation with planted driver behavior, and the
canonical JSON dataset format.

The dataset format is ``routeseq/2``: a route's (n+1)x(n+1) travel-time
matrix is one base64 string of its row-major little-endian float64 bytes
(``kernel.encode_float64``), exact to the bit.  ``load_routes`` still reads
``routeseq/1``, whose matrix is a list of JSON numbers.  A stop's fields are
checked in one pass; a stop that fails goes through ``require_field``.

Geometry: stops live in a square city of ``extent_km`` per side, grouped
into spatially coherent zones that in turn cluster into a few higher-level
blocks; zone ids follow ``<area>-<major>.<minor><letter>`` so id
relationships track geography.  The depot sits outside the city on a random
side.  Travel time between two points is Euclidean distance over speed,
multiplied by independent lognormal noise per direction (hence asymmetric).

Planted behaviors set the executed zone order:

- ``tsp``: the cost-minimal tour (the planned route; drivers comply).
- ``nearest_zone``: greedy nearest unvisited zone from the current one.
- ``cluster_biased``: transitions prefer the nearest unvisited zone of the
  current major cluster, falling back to the nearest unvisited zone; the
  route starts at whichever first zone gives that rule the lowest total
  operational cost (drivers habitually finish blocks, and pick the start
  that makes the day cheapest overall).  Both read the zone matrix as lists.

Within zones, drivers take the cheapest path as produced by the completion
procedure, so zone order is the only learnable signal.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .completion import complete_sequence
from .domain import RouteInstance, StopRecord, build_zone_instance, parse_zone_id, validate_route
from .errors import InvalidInputError, MalformedRouteError, SchemaError, is_number
from .kernel import decode_float64, encode_float64
from .tsp import _as_matrix, _nearest_neighbor, solve_tour

SCHEMA_VERSION = "routeseq/2"
BEHAVIORS = ("tsp", "nearest_zone", "cluster_biased")

_BASE_LAT = 47.0
_BASE_LNG = -122.0
_KM_PER_DEG_LAT = 111.0


@dataclass
class SynthConfig:
    n_routes: int = 100
    zones_per_route: tuple = (5, 15)
    stops_per_zone: tuple = (3, 10)
    extent_km: float = 6.0
    speed_kmph: float = 30.0
    noise_sigma: float = 0.1
    behavior: str = "cluster_biased"
    seed: int = 0


def _validate_config(config: SynthConfig):
    for name, least in (("n_routes", 1), ("seed", 0)):
        value = getattr(config, name)
        if type(value) is not int or value < least:
            raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    for name in ("zones_per_route", "stops_per_zone"):
        pair = getattr(config, name)
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(type(v) is int for v in pair)) or not 1 <= pair[0] <= pair[1]:
            raise InvalidInputError(f"{name} must be integers lo..hi, 1 <= lo <= hi: {pair!r}")
    for name in ("extent_km", "speed_kmph"):
        value = getattr(config, name)
        if not (is_number(value) and value > 0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value!r}")
    if not (is_number(config.noise_sigma) and config.noise_sigma >= 0):
        raise InvalidInputError(f"noise_sigma must be finite and >= 0, got {config.noise_sigma!r}")
    if config.behavior not in BEHAVIORS:
        raise InvalidInputError(f"behavior must be one of {BEHAVIORS}")


def _to_latlng(xy: np.ndarray) -> tuple:
    x, y = xy.tolist()
    return (_BASE_LAT + y / _KM_PER_DEG_LAT,
            _BASE_LNG + x / (_KM_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT))))


def _cluster_rollout(ztt: list, majors: list, first: int) -> tuple:
    """The cluster rule's zone order from zone ``first`` over the rows of the
    zone matrix: the nearest unvisited zone of the current major cluster,
    else the nearest unvisited zone, a tie going to the smallest zone index.
    Returns (its cost as a depot-to-depot tour, summed in ``tsp._seq_cost``'s
    order, the order)."""
    order, cost = [first], ztt[0][first + 1]
    left = [z for z in range(len(ztt) - 1) if z != first]
    while left:
        row = ztt[order[-1] + 1]
        pool = [z for z in left if majors[z] == majors[order[-1]]] or left
        nearest = min(pool, key=lambda z: row[z + 1])
        cost += row[nearest + 1]
        order.append(nearest)
        left.remove(nearest)
    return cost + ztt[order[-1] + 1][0], order


def _gen_route(rng: np.random.Generator, config: SynthConfig, route_id: str) -> RouteInstance:
    extent = config.extent_km
    zlo, zhi = config.zones_per_route
    slo, shi = config.stops_per_zone
    n_zones = int(rng.integers(zlo, zhi + 1))
    n_major = max(1, math.ceil(n_zones / 4))
    area = "ABCDEG"[int(rng.integers(0, 6))]
    centers = rng.uniform(0.15 * extent, 0.85 * extent, size=(n_major, 2))
    cluster_of = rng.integers(0, n_major, size=n_zones)

    minor_counter = [0] * n_major
    stops: list[StopRecord] = []
    xy: list[np.ndarray] = []
    for z in range(n_zones):
        c = int(cluster_of[z])
        minor_counter[c] += 1
        letter = "ABCD"[int(rng.integers(0, 4))]
        zone_id = f"{area}-{c + 1}.{minor_counter[c]}{letter}"
        # Wide scatter makes clusters overlap spatially, so the id-driven
        # block habit genuinely deviates from the pure travel-time tour.
        centroid = centers[c] + rng.normal(0.0, 0.16 * extent, size=2)
        for _ in range(int(rng.integers(slo, shi + 1))):
            p = centroid + rng.normal(0.0, 0.025 * extent, size=2)
            lat, lng = _to_latlng(p)
            stops.append(StopRecord(
                stop_id=f"S{len(stops):04d}",
                zone_id=zone_id,
                lat=lat,
                lng=lng,
                n_packages=int(rng.integers(1, 6)),
                service_time=float(rng.uniform(60.0, 300.0)),
                package_volume=float(rng.uniform(1000.0, 30000.0)),
            ))
            xy.append(p)

    side = int(rng.integers(0, 4))
    along = float(rng.uniform(0.3, 0.7)) * extent
    off = 0.35 * extent
    depot_xy = np.array([
        (along, -off), (-off, along), (along, extent + off), (extent + off, along),
    ][side])
    depot_lat, depot_lng = _to_latlng(depot_xy)
    depot = StopRecord("depot", "", depot_lat, depot_lng)

    points = np.vstack([depot_xy[None, :], np.stack(xy)])
    diff = points[:, None, :] - points[None, :, :]
    dist_km = np.sqrt((diff ** 2).sum(axis=2))
    base_s = dist_km / config.speed_kmph * 3600.0
    noise = np.exp(rng.normal(0.0, config.noise_sigma, size=base_s.shape))
    tt = base_s * noise
    np.fill_diagonal(tt, 0.0)

    route = RouteInstance(route_id, depot, stops, tt, list(range(len(stops))), {})
    zinst = build_zone_instance(route)
    ztt = zinst.zone_travel_time
    if config.behavior == "tsp":
        zone_order = [v - 1 for v in solve_tour(ztt, origin=0).order[1:]]
    elif config.behavior == "nearest_zone":
        zone_order = [v - 1 for v in _nearest_neighbor(ztt, 0, list(range(1, len(ztt))), None)[1:]]
    else:
        majors = [parse_zone_id(z.zone_id)[1] for z in zinst.zones]
        # The start whose rollout is cheapest as a tour; a tie goes to the
        # smallest first zone, the first of the orders.
        rows = _as_matrix(ztt).tolist()
        zone_order = min(_cluster_rollout(rows, majors, first) for first in range(len(majors)))[1]
    route.actual_stop_sequence = complete_sequence(zone_order, zinst, route)

    hour = int(rng.integers(6, 11))
    route.metadata = {
        "station": f"DS-{area}{1 + int(rng.integers(0, 3))}",
        "departure_time": f"2022-07-{1 + int(rng.integers(0, 28)):02d}T{hour:02d}:00:00",
        "vehicle_capacity": float(rng.choice([3.0, 4.0, 5.0])),
        "quality_label": str(rng.choice(["high", "medium", "low"])),
    }
    return route


def generate(config: SynthConfig) -> list:
    """Seed-deterministic synthetic dataset with the planted behavior."""
    _validate_config(config)
    children = np.random.SeedSequence(config.seed).spawn(config.n_routes)
    routes = []
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        routes.append(_gen_route(rng, config, f"R{k:05d}"))
    return routes


# --- JSON wire format --------------------------------------------------------

def route_to_dict(route: RouteInstance) -> dict:
    return {
        "route_id": route.route_id,
        "depot": {"lat": route.depot.lat, "lng": route.depot.lng},
        "stops": [
            {
                "id": s.stop_id,
                "zone_id": s.zone_id,
                "lat": s.lat,
                "lng": s.lng,
                "n_packages": s.n_packages,
                "service_time_s": s.service_time,
                "volume_cm3": s.package_volume,
            }
            for s in route.stops
        ],
        "travel_time_s": encode_float64(route.travel_time),
        "actual_sequence": [route.stops[i].stop_id for i in route.actual_stop_sequence],
        "metadata": route.metadata,
    }


def routes_to_json(routes) -> str:
    payload = {"version": SCHEMA_VERSION, "routes": [route_to_dict(r) for r in routes]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_routes(routes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(routes_to_json(routes))


def require_field(mapping, key, path, kind=None, default=None, least=None):
    """``mapping[key]``, which must exist unless a ``default`` stands in
    (and be a ``kind``, a JSON boolean never counting as a number and a
    number only when a finite float holds it, and at least ``least`` when
    that is given); otherwise a ``SchemaError`` at ``<path>.<key>``."""
    if default is not None and isinstance(mapping, dict) and key not in mapping:
        return default
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"{path}.{key}", f"expected {kind}, got {type(value).__name__}")
    if isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise SchemaError(f"{path}.{key}", "expected a finite number within float range")
    if least is not None and value < least:
        raise SchemaError(f"{path}.{key}", f"expected a number >= {least}, got {value}")
    return value


_REAL = (int, float)
_MAX = sys.float_info.max
# (key, kind, default) of a stop's fields; a default makes one optional and >= 0.
_STOP_FIELDS = (("id", str, None), ("zone_id", str, None), ("lat", _REAL, None),
                ("lng", _REAL, None), ("n_packages", int, 0), ("service_time_s", _REAL, 0.0),
                ("volume_cm3", _REAL, 0.0))


def route_from_dict(rd: dict, path: str, version: str = SCHEMA_VERSION) -> RouteInstance:
    """The route of the dataset element ``rd`` at ``path``, else a
    ``SchemaError`` at the offending element; only the travel-time matrix
    is read by ``version``: a base64 string, or a ``routeseq/1`` list."""
    route_id = require_field(rd, "route_id", path, str)
    depot_d = require_field(rd, "depot", path, dict)
    depot = StopRecord("depot", "", float(require_field(depot_d, "lat", f"{path}.depot", _REAL)),
                       float(require_field(depot_d, "lng", f"{path}.depot", _REAL)))
    stops_raw = require_field(rd, "stops", path, list)
    if not stops_raw:
        raise SchemaError(f"{path}.stops", f"route {route_id!r} has no stops")
    stops = []
    for k, sd in enumerate(stops_raw):
        get = sd.get if isinstance(sd, dict) else {}.get
        sid, zid, lat, lng = get("id"), get("zone_id"), get("lat"), get("lng")
        pkg, st, vol = get("n_packages", 0), get("service_time_s", 0.0), get("volume_cm3", 0.0)
        if not (type(sid) is str and type(zid) is str and zid
                and type(lat) in _REAL and -_MAX <= lat <= _MAX
                and type(lng) in _REAL and -_MAX <= lng <= _MAX
                and type(pkg) is int and 0 <= pkg <= _MAX
                and type(st) in _REAL and 0 <= st <= _MAX
                and type(vol) in _REAL and 0 <= vol <= _MAX):
            # The first bad field's error, field by field as require_field words it.
            spath = f"{path}.stops[{k}]"
            for key, kind, default in _STOP_FIELDS:
                require_field(sd, key, spath, kind, default, None if default is None else 0)
            if not zid:
                raise SchemaError(f"{spath}.zone_id", "expected a non-empty zone id")
        stops.append(StopRecord(sid, zid, float(lat), float(lng), pkg, float(st), float(vol)))
    n = len(stops)
    count, tt_path = (n + 1) ** 2, f"{path}.travel_time_s"
    flat = require_field(rd, "travel_time_s", path, None if version == SCHEMA_VERSION else list)
    if version == SCHEMA_VERSION:
        try:
            flat = decode_float64(flat, count)
        except ValueError as exc:
            raise SchemaError(tt_path, f"route {route_id!r}, {n} stops: {exc}") from None
    else:
        if len(flat) != count:
            raise SchemaError(tt_path, f"route {route_id!r}: expected {count} entries for {n} stops, "
                                       f"got {len(flat)}")
        if not set(map(type, flat)) <= {int, float}:
            raise SchemaError(tt_path, f"route {route_id!r}: entries must be numbers")
        try:
            flat = np.array(flat, dtype=float)
        except OverflowError:
            raise SchemaError(tt_path, f"route {route_id!r}: an entry exceeds the float range") from None
    tt = flat.reshape(n + 1, n + 1)
    seq_ids = require_field(rd, "actual_sequence", path, list)
    if not all(isinstance(sid, str) for sid in seq_ids):
        raise SchemaError(f"{path}.actual_sequence", f"route {route_id!r}: stop ids must be strings")
    by_id = {s.stop_id: i for i, s in enumerate(stops)}
    if sorted(seq_ids) != sorted(by_id):
        raise SchemaError(
            f"{path}.actual_sequence",
            f"route {route_id!r}: not a permutation of the stop ids",
        )
    seq = [by_id[sid] for sid in seq_ids]
    metadata = rd.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError(f"{path}.metadata", "expected an object")
    route = RouteInstance(route_id, depot, stops, tt, seq, metadata)
    try:
        validate_route(route)
    except MalformedRouteError as exc:
        raise SchemaError(path, str(exc)) from exc
    return route


def read_json_object(path) -> dict:
    """Parse a JSON file whose top level must be an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("$", "expected a top-level object")
    return payload


def load_routes(path) -> list:
    payload = read_json_object(path)
    version = payload.get("version")
    if version not in ("routeseq/1", SCHEMA_VERSION):
        raise SchemaError("version", f"expected {SCHEMA_VERSION!r} or 'routeseq/1', got {version!r}")
    routes_raw = require_field(payload, "routes", "$", list)
    routes = [route_from_dict(rd, f"routes[{i}]", version) for i, rd in enumerate(routes_raw)]
    require_unique_route_ids([r.route_id for r in routes], "routes")
    return routes


def require_unique_route_ids(ids, path) -> None:
    """A ``SchemaError`` at ``<path>[i].route_id`` for the first id that an
    earlier element already has."""
    seen = set()
    for i, route_id in enumerate(ids):
        if route_id in seen:
            raise SchemaError(f"{path}[{i}].route_id", f"duplicate route id {route_id!r}")
        seen.add(route_id)


def routes_equal(a: RouteInstance, b: RouteInstance) -> bool:
    """Structural equality including exact travel-time values."""
    return (
        a.route_id == b.route_id
        and a.depot == b.depot
        and a.stops == b.stops
        and a.travel_time.shape == b.travel_time.shape
        and bool(np.all(a.travel_time == b.travel_time))
        and a.actual_stop_sequence == b.actual_stop_sequence
        and a.metadata == b.metadata
    )

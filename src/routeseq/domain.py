"""Domain types for delivery routes and their zone-level view.

A route is a depot plus an ordered list of stops with an asymmetric travel
time matrix (depot at matrix index 0, stop ``k`` at index ``k+1``).  Zones
group stops by their zone id.  The zone level keeps the same convention:
the depot is node 0 and zone ``k`` is node ``k+1`` of the zone travel-time
matrix, of the feature rows (``node_features``) and of the pair-feature
sources (``pair_tensor``), so one code path serves the depot and the zones.
The time between two nodes is the mean travel time over all pairs of their
member stops, the depot being its own single member.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, MalformedRouteError

ZONE_FEATURE_NAMES = (
    "centroid_lat",
    "centroid_lng",
    "n_stops",
    "n_intersections",
    "n_packages",
    "total_service_time",
    "total_package_volume",
    "tt_out_min",
    "tt_out_mean",
    "tt_out_max",
    "tt_out_std",
    "tt_to_depot",
)

PAIR_FEATURE_NAMES = (
    "travel_time",
    "same_area",
    "same_major",
    "same_minor",
    "minor_diff",
    "letter_distance",
)

N_PAIR_FEATURES = len(PAIR_FEATURE_NAMES)

_ZONE_ID_RE = re.compile(r"^([A-Za-z]+)-([0-9]+)\.([0-9]+)([A-Za-z])$")


@dataclass(slots=True)
class StopRecord:
    """One parking location with its package load; slots keep this most
    numerous object of a route small.  The depot is a StopRecord with an
    empty zone_id and zero load."""

    stop_id: str
    zone_id: str
    lat: float
    lng: float
    n_packages: int = 0
    service_time: float = 0.0
    package_volume: float = 0.0


@dataclass(eq=False)
class RouteInstance:
    """One executed delivery route.

    ``travel_time`` is (n+1) x (n+1) seconds with the depot at index 0 and
    stop k at index k+1; it may be asymmetric.  ``actual_stop_sequence``
    holds 0-based indices into ``stops`` in driver-executed order.
    """

    route_id: str
    depot: StopRecord
    stops: list
    travel_time: np.ndarray
    actual_stop_sequence: list
    metadata: dict = field(default_factory=dict)

    @property
    def n_stops(self) -> int:
        return len(self.stops)


@dataclass
class Zone:
    """A labeled cluster of stops; ``member_stops`` are stop indices."""

    zone_id: str
    member_stops: list
    centroid: tuple


@dataclass(eq=False)
class ZoneInstance:
    """Zone-level view of a route: depot at index 0 of ``zone_travel_time``,
    zone k at index k+1.  ``actual_zone_sequence`` is the first-visit order
    of zone indices in the executed stop sequence."""

    zones: list
    zone_travel_time: np.ndarray
    actual_zone_sequence: list

    @property
    def n_zones(self) -> int:
        return len(self.zones)

    def zone_index(self, zone_id: str) -> int:
        for k, z in enumerate(self.zones):
            if z.zone_id == zone_id:
                return k
        raise InvalidInputError(f"unknown zone id {zone_id!r}")


def validate_route(route: RouteInstance) -> None:
    """Check the structural invariants of a RouteInstance."""
    n = len(route.stops)
    tt = route.travel_time
    if tt.shape != (n + 1, n + 1):
        raise MalformedRouteError(
            f"route {route.route_id}: travel_time shape {tt.shape} != {(n + 1, n + 1)}"
        )
    if not np.all(np.isfinite(tt)) or np.any(tt < 0):
        raise MalformedRouteError(f"route {route.route_id}: travel times must be finite and >= 0")
    if np.any(np.diag(tt) != 0):
        raise MalformedRouteError(f"route {route.route_id}: travel_time diagonal must be zero")
    if sorted(route.actual_stop_sequence) != list(range(n)):
        raise MalformedRouteError(
            f"route {route.route_id}: actual_stop_sequence is not a permutation of the stops"
        )


def parse_zone_id(zone_id: str):
    """Parse ``<area>-<major>.<minor><letter>``; None when it does not apply.

    The parser is total: unparseable ids simply yield None and the
    relationship fields of their pair features fall back to zeros.
    """
    m = _ZONE_ID_RE.match(zone_id or "")
    if m is None:
        return None
    area, major, minor, letter = m.groups()
    return area.upper(), int(major), int(minor), letter.upper()


def _mean(block: np.ndarray) -> np.float64:
    """``np.mean(block)`` without its Python wrapper: the same reduce over the
    C-order copy and the same division, so the same bits."""
    block = block.copy()
    return np.add.reduce(block, axis=None) / block.size


def build_zone_instance(route: RouteInstance) -> ZoneInstance:
    """Group stops into zones and average the stop-level travel times.

    One gather orders the matrix and the coordinates with the depot first
    and each zone's stops in one block.  Node ``a`` to node ``b`` is the
    mean of their block of (depot or member stop) pairs, a centroid the mean
    of its block of coordinates.  Raises MalformedRouteError when the route
    has no stops, its travel-time matrix is not (n+1) x (n+1), a stop has no
    zone id, or the depot or a stop has a non-finite coordinate or load or a
    negative load.
    """
    n = len(route.stops)
    if not n:
        raise MalformedRouteError(f"route {route.route_id}: has no stops")
    if np.shape(route.travel_time) != (n + 1, n + 1):
        raise MalformedRouteError(f"route {route.route_id}: travel_time shape "
                                  f"{np.shape(route.travel_time)} != {(n + 1, n + 1)}")
    members: dict[str, list[int]] = {}
    for idx, stop in enumerate(route.stops):
        if not stop.zone_id:
            raise MalformedRouteError(
                f"route {route.route_id}: stop {stop.stop_id!r} has an empty zone_id"
            )
        members.setdefault(stop.zone_id, []).append(idx)

    perm = [0] + [k + 1 for idxs in members.values() for k in idxs]
    sizes = [1] + [len(idxs) for idxs in members.values()]
    spans = [slice(hi - size, hi) for hi, size in zip(np.cumsum(sizes).tolist(), sizes)]
    points = [route.depot, *route.stops]
    values = np.array([(p.lat, p.lng, p.n_packages, p.service_time, p.package_volume)
                       for p in points], dtype=float)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise MalformedRouteError(f"route {route.route_id}: {points[bad[0]].stop_id!r} has a "
                                  "non-finite coordinate or load")
    bad = np.flatnonzero((values[:, 2:] < 0).any(axis=1))
    if len(bad):
        raise MalformedRouteError(f"route {route.route_id}: {points[bad[0]].stop_id!r} has a "
                                  "negative load")
    lat, lng = values[perm, 0], values[perm, 1]
    zones = [Zone(zid, idxs, (float(_mean(lat[span])), float(_mean(lng[span]))))
             for (zid, idxs), span in zip(members.items(), spans[1:])]
    tt = route.travel_time[np.ix_(perm, perm)]
    ztt = np.zeros((len(spans), len(spans)))
    for a, rows in enumerate(spans):
        for b, cols in enumerate(spans):
            if a != b:
                ztt[a, b] = _mean(tt[rows, cols])

    return ZoneInstance(zones, ztt, first_visit_zone_order(zones, route.actual_stop_sequence))


def first_visit_zone_order(zones, stop_indices) -> list:
    """Zone indices in the order a stop sequence first enters each zone."""
    zone_of_stop = {s: k for k, zone in enumerate(zones) for s in zone.member_stops}
    return list(dict.fromkeys(zone_of_stop[s] for s in stop_indices))


def node_features(route: RouteInstance, instance: ZoneInstance) -> np.ndarray:
    """(z+1, K) feature rows, the depot in row 0; see ZONE_FEATURE_NAMES.

    The depot has its own coordinates and no stops or load.  A node's
    travel-time summary (min, mean, max, population std) covers its times to
    the zones other than itself; with nothing to summarize (the zone of a
    single-zone route) it is all zeros; summaries reduce contiguous rows.
    """
    ztt = instance.zone_travel_time
    nodes = [((route.depot.lat, route.depot.lng), [])]
    nodes += [(zone.centroid, [route.stops[k] for k in zone.member_stops])
              for zone in instance.zones]
    others = ztt[1:, 1:][~np.eye(instance.n_zones, dtype=bool)].reshape(instance.n_zones, -1)
    summaries = np.hstack([(a.min(1), a.mean(1), a.max(1), a.std(1)) if a.size else np.zeros((4, 1))
                           for a in (ztt[:1, 1:], others)]).T
    rows = []
    for a, ((centroid, stops), summary) in enumerate(zip(nodes, summaries)):
        rows.append([
            *centroid,
            float(len(stops)),
            0.0,  # n_intersections: unknown without map data
            float(sum(s.n_packages for s in stops)),
            float(sum(s.service_time for s in stops)),
            float(sum(s.package_volume for s in stops)),
            *summary,
            ztt[a, 0],
        ])
    return np.array(rows)


def pair_tensor(instance: ZoneInstance) -> np.ndarray:
    """(z+1, z, P) directed pair features from every node (source 0 = the
    depot) to every zone; see PAIR_FEATURE_NAMES.

    The relationship fields compare the parsed zone ids and are zero when
    either id does not parse (the depot's empty id never does).  A zone's
    pair with itself is zero time with every flag set.
    """
    z = instance.n_zones
    parsed = [parse_zone_id(zid) for zid in ["", *(zone.zone_id for zone in instance.zones)]]
    valid = np.array([p is not None for p in parsed])
    fields = [(p[0], p[1], p[2], ord(p[3])) if p else ("", 0, 0, 0) for p in parsed]
    area, major, minor, letter = np.array(fields, dtype=object).T
    same_area = area[:, None] == area[None, 1:]
    same_major = same_area & (major[:, None] == major[None, 1:])
    same_minor = same_major & (minor[:, None] == minor[None, 1:])
    relationship = np.stack([
        same_area, same_major, same_minor,
        abs(minor[:, None] - minor[None, 1:]),
        abs(letter[:, None] - letter[None, 1:]),
    ], axis=-1).astype(float)
    pair = np.zeros((z + 1, z, N_PAIR_FEATURES))
    pair[..., 0] = instance.zone_travel_time[:, 1:]
    pair[..., 1:] = np.where((valid[:, None] & valid[None, 1:])[..., None], relationship, 0.0)
    pair[np.arange(1, z + 1), np.arange(z)] = (0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    return pair

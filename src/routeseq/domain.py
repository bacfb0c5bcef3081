"""Domain types for delivery routes and their zone-level view.

A route is a depot plus an ordered list of stops with an asymmetric travel
time matrix (depot at matrix index 0, stop ``k`` at index ``k+1``).  Zones
group stops by their zone id; the zone-level travel time between two zones
is the mean travel time over all member stop pairs, and the depot row and
column average over the member stops of the zone involved.
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

N_ZONE_FEATURES = len(ZONE_FEATURE_NAMES)
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
    depot_features: np.ndarray

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

    The parser is total: unparseable ids simply yield None and downstream
    pair features fall back to zeros.
    """
    m = _ZONE_ID_RE.match(zone_id or "")
    if m is None:
        return None
    area, major, minor, letter = m.groups()
    return area.upper(), int(major), int(minor), letter.upper()


def build_zone_instance(route: RouteInstance) -> ZoneInstance:
    """Group stops into zones and average the stop-level travel times.

    Zone-to-zone time is the mean over all member stop pairs; the depot row
    and column average over the target/source zone's member stops.  Raises
    MalformedRouteError when a stop has no zone id.
    """
    zone_order: list[str] = []
    members: dict[str, list[int]] = {}
    for idx, stop in enumerate(route.stops):
        if not stop.zone_id:
            raise MalformedRouteError(
                f"route {route.route_id}: stop {stop.stop_id!r} has an empty zone_id"
            )
        if stop.zone_id not in members:
            members[stop.zone_id] = []
            zone_order.append(stop.zone_id)
        members[stop.zone_id].append(idx)

    zones = []
    for zid in zone_order:
        idxs = members[zid]
        lat = float(np.mean([route.stops[k].lat for k in idxs]))
        lng = float(np.mean([route.stops[k].lng for k in idxs]))
        zones.append(Zone(zid, list(idxs), (lat, lng)))

    z = len(zones)
    tt = route.travel_time
    ztt = np.zeros((z + 1, z + 1))
    for i, zi in enumerate(zones):
        rows_i = [k + 1 for k in zi.member_stops]
        ztt[0, i + 1] = float(np.mean(tt[0, rows_i]))
        ztt[i + 1, 0] = float(np.mean(tt[rows_i, 0]))
        for j, zj in enumerate(zones):
            if i == j:
                continue
            cols_j = [k + 1 for k in zj.member_stops]
            ztt[i + 1, j + 1] = float(np.mean(tt[np.ix_(rows_i, cols_j)]))

    seq = first_visit_zone_order(zones, route.actual_stop_sequence)
    instance = ZoneInstance(zones, ztt, seq, np.zeros(N_ZONE_FEATURES))
    instance.depot_features = _depot_features(route, instance)
    return instance


def first_visit_zone_order(zones, stop_indices) -> list:
    """Zone indices in the order a stop sequence first enters each zone."""
    zone_of_stop = {s: k for k, zone in enumerate(zones) for s in zone.member_stops}
    return list(dict.fromkeys(zone_of_stop[s] for s in stop_indices))


def _tt_summary(outgoing: np.ndarray) -> tuple:
    """(min, mean, max, population std); all zeros when there is nothing
    to summarize (single-zone route convention)."""
    if outgoing.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (
        float(outgoing.min()),
        float(outgoing.mean()),
        float(outgoing.max()),
        float(outgoing.std()),
    )


def _depot_features(route: RouteInstance, instance: ZoneInstance) -> np.ndarray:
    # Depot vector: its coordinates, zero package/service load, and the
    # summary of depot-to-zone travel times.
    out = instance.zone_travel_time[0, 1:]
    mn, mean, mx, sd = _tt_summary(out)
    return np.array([
        route.depot.lat, route.depot.lng,
        0.0, 0.0, 0.0, 0.0, 0.0,
        mn, mean, mx, sd,
        0.0,
    ])


def zone_features(zone: Zone, instance: ZoneInstance, route: RouteInstance) -> np.ndarray:
    """Fixed-width feature vector of one zone; see ZONE_FEATURE_NAMES.

    The travel-time summary covers outgoing times to the *other* zones
    (diagonal and depot excluded); a single-zone route yields all-zero
    summary entries by convention.
    """
    try:
        zi = instance.zone_index(zone.zone_id)
    except InvalidInputError:
        raise InvalidInputError(f"zone {zone.zone_id!r} does not belong to this instance")
    stops = [route.stops[k] for k in zone.member_stops]
    row = instance.zone_travel_time[zi + 1, 1:]
    outgoing = np.delete(row, zi)
    mn, mean, mx, sd = _tt_summary(outgoing)
    return np.array([
        zone.centroid[0], zone.centroid[1],
        float(len(stops)),
        0.0,  # n_intersections: unknown without map data
        float(sum(s.n_packages for s in stops)),
        float(sum(s.service_time for s in stops)),
        float(sum(s.package_volume for s in stops)),
        mn, mean, mx, sd,
        float(instance.zone_travel_time[zi + 1, 0]),
    ])


def _relationship(id_a: str, id_b: str) -> tuple:
    pa, pb = parse_zone_id(id_a), parse_zone_id(id_b)
    if pa is None or pb is None:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    area_a, major_a, minor_a, letter_a = pa
    area_b, major_b, minor_b, letter_b = pb
    same_area = area_a == area_b
    same_major = same_area and major_a == major_b
    same_minor = same_major and minor_a == minor_b
    return (
        1.0 if same_area else 0.0,
        1.0 if same_major else 0.0,
        1.0 if same_minor else 0.0,
        float(abs(minor_a - minor_b)),
        float(abs(ord(letter_a) - ord(letter_b))),
    )


def pair_features(i: int, j: int, instance: ZoneInstance) -> np.ndarray:
    """Directed pair vector zone i -> zone j; see PAIR_FEATURE_NAMES."""
    if i == j:
        raise InvalidInputError("pair_features requires i != j")
    tt = float(instance.zone_travel_time[i + 1, j + 1])
    return np.array([tt, *_relationship(instance.zones[i].zone_id, instance.zones[j].zone_id)])


def depot_pair_features(j: int, instance: ZoneInstance) -> np.ndarray:
    """Directed pair vector depot -> zone j (relationship features are zero
    because the depot carries no zone id)."""
    tt = float(instance.zone_travel_time[0, j + 1])
    return np.array([tt, 0.0, 0.0, 0.0, 0.0, 0.0])


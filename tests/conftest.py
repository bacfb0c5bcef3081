import base64
import copy

import numpy as np
import pytest

from routeseq.domain import RouteInstance, StopRecord


def make_route(zone_ids, times=None, actual=None, route_id="T0", depot_latlng=(47.0, -122.0)):
    """Small hand-built route: one stop per entry of ``zone_ids``; ``times``
    is the full (n+1)x(n+1) matrix (random asymmetric when omitted)."""
    n = len(zone_ids)
    rng = np.random.default_rng(42)
    stops = [
        StopRecord(f"S{i}", zid, 47.0 + 0.01 * i, -122.0 + 0.005 * i,
                   n_packages=i + 1, service_time=60.0 * (i + 1), package_volume=100.0 * (i + 1))
        for i, zid in enumerate(zone_ids)
    ]
    if times is None:
        times = rng.uniform(10.0, 100.0, size=(n + 1, n + 1))
        np.fill_diagonal(times, 0.0)
    times = np.asarray(times, dtype=float)
    if actual is None:
        actual = list(range(n))
    depot = StopRecord("depot", "", depot_latlng[0], depot_latlng[1])
    return RouteInstance(route_id, depot, stops, times, list(actual), {})


def as_routeseq_1(doc: dict) -> dict:
    """A ``routeseq/2`` dataset document rewritten as ``routeseq/1``, each
    travel-time matrix as the list of its numbers."""
    doc = copy.deepcopy(doc)
    doc["version"] = "routeseq/1"
    for rd in doc["routes"]:
        rd["travel_time_s"] = np.frombuffer(base64.b64decode(rd["travel_time_s"]), "<f8").tolist()
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_cost_matrix(rng, n, symmetric=False):
    m = rng.uniform(1.0, 50.0, size=(n, n))
    if symmetric:
        m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m

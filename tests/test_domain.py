import numpy as np
import pytest

from conftest import make_route
from oracles import zone_travel_time_ref
from routeseq.domain import (
    build_zone_instance,
    first_visit_zone_order,
    node_features,
    pair_tensor,
    parse_zone_id,
)
from routeseq.errors import MalformedRouteError


def test_singleton_zones_travel_time():
    # time(s1 -> s2) = 100 becomes the zone-level A -> B entry unchanged
    times = np.array([
        [0, 5, 6],
        [7, 0, 100],
        [8, 9, 0],
    ], dtype=float)
    route = make_route(["A-1.1A", "B-1.1A"], times=times)
    zi = build_zone_instance(route)
    a = zi.zone_index("A-1.1A")
    b = zi.zone_index("B-1.1A")
    assert zi.zone_travel_time[a + 1, b + 1] == 100.0


def test_zone_pair_mean():
    # A = {s0, s1}, B = {s2}; times 10 and 20 average to 15
    times = np.zeros((4, 4))
    times[1, 3] = 10.0
    times[2, 3] = 20.0
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A"], times=times)
    zi = build_zone_instance(route)
    a = zi.zone_index("A-1.1A")
    b = zi.zone_index("B-1.1A")
    assert zi.zone_travel_time[a + 1, b + 1] == 15.0


def test_depot_row_uses_member_mean():
    times = np.zeros((4, 4))
    times[0, 1] = 30.0
    times[0, 2] = 50.0
    times[1, 0] = 12.0
    times[2, 0] = 14.0
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A"], times=times)
    zi = build_zone_instance(route)
    a = zi.zone_index("A-1.1A")
    assert zi.zone_travel_time[0, a + 1] == 40.0
    assert zi.zone_travel_time[a + 1, 0] == 13.0


def test_first_visit_zone_order():
    # actual stops (s2, s0, s1) with zones (B, A, A) -> zone order (B, A)
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A"], actual=[2, 0, 1])
    zi = build_zone_instance(route)
    assert [zi.zones[k].zone_id for k in zi.actual_zone_sequence] == ["B-1.1A", "A-1.1A"]
    assert first_visit_zone_order(zi.zones, [0, 2, 1]) == [zi.zone_index("A-1.1A"),
                                                           zi.zone_index("B-1.1A")]


def test_empty_zone_id_rejected():
    route = make_route(["A-1.1A", ""])
    with pytest.raises(MalformedRouteError):
        build_zone_instance(route)


def test_zone_relabel_permutation_safety(rng):
    route = make_route(["A-1.1A", "B-2.1A", "A-1.1A", "B-2.2C", "A-1.2B"])
    zi = build_zone_instance(route)
    perm = rng.permutation(5)
    shuffled = make_route([route.stops[i].zone_id for i in perm])
    shuffled.stops = [route.stops[i] for i in perm]
    idx = [0] + [int(i) + 1 for i in perm]
    shuffled.travel_time = route.travel_time[np.ix_(idx, idx)]
    shuffled.actual_stop_sequence = [int(np.argwhere(perm == s)[0, 0])
                                     for s in route.actual_stop_sequence]
    zi2 = build_zone_instance(shuffled)
    # same zone ids, identical matrices up to the relabeling
    ids1 = [z.zone_id for z in zi.zones]
    ids2 = [z.zone_id for z in zi2.zones]
    assert sorted(ids1) == sorted(ids2)
    relabel = [ids2.index(z) for z in ids1]
    m = np.ix_([0] + [r + 1 for r in relabel], [0] + [r + 1 for r in relabel])
    assert np.allclose(zi2.zone_travel_time[m], zi.zone_travel_time)


@pytest.mark.parametrize("kind", ["uniform", "integer"])
def test_zone_matrix_and_centroids_are_the_per_block_means_bit_for_bit(kind):
    # One gather sorts the stops by zone; here the zones' members interleave,
    # so that order is not the identity.  Cases 0-2 are a one-stop route, a
    # route of single-stop zones and a one-zone route.
    rng = np.random.default_rng(19)
    fixed = ([1], [1] * 5, [7])
    for case in range(90):
        sizes = fixed[case] if case < len(fixed) else rng.integers(1, 6, size=rng.integers(2, 8))
        zone_ids = [f"A-{z}.1A" for z, size in enumerate(sizes) for _ in range(size)]
        zone_ids = [zone_ids[i] for i in rng.permutation(len(zone_ids))]
        n = len(zone_ids)
        times = (rng.uniform(10.0, 100.0, size=(n + 1, n + 1)) if kind == "uniform"
                 else rng.integers(0, 60, size=(n + 1, n + 1)).astype(float))
        np.fill_diagonal(times, 0.0)
        route = make_route(zone_ids, times=times)
        zi = build_zone_instance(route)
        ref = zone_travel_time_ref(route, zi.zones)
        assert zi.zone_travel_time.tobytes() == ref.tobytes(), case
        for zone in zi.zones:
            stops = [route.stops[k] for k in zone.member_stops]
            assert zone.centroid == (float(np.mean([s.lat for s in stops])),
                                     float(np.mean([s.lng for s in stops]))), case


def test_stop_counts_add_up():
    route = make_route(["A-1.1A", "B-2.1A", "A-1.1A", "C-3.1A"])
    zi = build_zone_instance(route)
    assert sum(len(z.member_stops) for z in zi.zones) == len(route.stops)


def test_single_zone_route_matrix_is_2x2():
    route = make_route(["A-1.1A", "A-1.1A"])
    zi = build_zone_instance(route)
    assert zi.zone_travel_time.shape == (2, 2)


def test_zone_features_package_sum_and_summary():
    # packages 2 and 3 in one zone; outgoing zone times 10/20/30
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A", "C-1.1A", "D-1.1A"])
    route.stops[0].n_packages = 2
    route.stops[1].n_packages = 3
    zi = build_zone_instance(route)
    a = zi.zone_index("A-1.1A")
    zi.zone_travel_time[a + 1, 1:] = [0.0, 10.0, 20.0, 30.0]
    x = node_features(route, zi)[a + 1]
    assert x[4] == 5.0
    assert x[7] == 10.0
    assert x[8] == 20.0
    assert x[9] == 30.0
    assert x[10] == pytest.approx(np.sqrt(200.0 / 3.0), abs=1e-12)  # 8.165 by hand


def test_depot_row_of_node_features():
    # depot -> zone times 30/50 (member means); the depot carries no load
    times = np.zeros((4, 4))
    times[0, 1], times[0, 2], times[0, 3] = 20.0, 40.0, 50.0
    route = make_route(["A-1.1A", "A-1.1A", "B-1.1A"], times=times, depot_latlng=(47.5, -122.5))
    zi = build_zone_instance(route)
    x = node_features(route, zi)[0]
    assert list(x[:7]) == [47.5, -122.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert list(x[7:11]) == [30.0, 40.0, 50.0, 10.0]
    assert x[11] == 0.0


def test_single_zone_summary_is_zero():
    route = make_route(["A-1.1A", "A-1.1A"])
    zi = build_zone_instance(route)
    x = node_features(route, zi)[1]
    assert list(x[7:11]) == [0.0, 0.0, 0.0, 0.0]


def test_zone_feature_width_constant():
    r1 = make_route(["A-1.1A", "B-1.1A"])
    r2 = make_route(["A-1.1A"] * 4)
    z1 = build_zone_instance(r1)
    z2 = build_zone_instance(r2)
    assert node_features(r1, z1).shape == (3, 12)
    assert node_features(r2, z2).shape == (2, 12)


def test_parse_zone_id():
    assert parse_zone_id("B-6.2C") == ("B", 6, 2, "C")
    assert parse_zone_id("X9") is None
    assert parse_zone_id("") is None


def test_pair_features_paper_example():
    # "B-6.2C" vs "B-6.3A": same area and major cluster, different minor
    route = make_route(["B-6.2C", "B-6.3A"])
    zi = build_zone_instance(route)
    i = zi.zone_index("B-6.2C")
    j = zi.zone_index("B-6.3A")
    z = pair_tensor(zi)[i + 1, j]
    assert z[0] == zi.zone_travel_time[i + 1, j + 1]
    assert list(z[1:]) == [1.0, 1.0, 0.0, 1.0, 2.0]


def test_pair_features_identity_fields():
    # distinct ids whose parsed fields coincide: all flags set, zero diffs
    route = make_route(["B-6.2C", "b-6.2c"])
    zi = build_zone_instance(route)
    i = zi.zone_index("B-6.2C")
    j = zi.zone_index("b-6.2c")
    z = pair_tensor(zi)[i + 1, j]
    assert list(z[1:]) == [1.0, 1.0, 1.0, 0.0, 0.0]


def test_pair_features_unparseable_fallback():
    route = make_route(["B-6.2C", "X9"])
    zi = build_zone_instance(route)
    i = zi.zone_index("B-6.2C")
    j = zi.zone_index("X9")
    pair = pair_tensor(zi)
    for z in (pair[i + 1, j], pair[j + 1, i]):
        assert list(z[1:]) == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert pair[i + 1, j, 0] == zi.zone_travel_time[i + 1, j + 1]


def test_depot_pair_features():
    route = make_route(["B-6.2C", "X9"])
    zi = build_zone_instance(route)
    z = pair_tensor(zi)[0, 1]
    assert z[0] == zi.zone_travel_time[0, 2]
    assert list(z[1:]) == [0.0] * 5

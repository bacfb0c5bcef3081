import math

import numpy as np
import pytest

from routeseq import datagen
from routeseq.domain import build_zone_instance, parse_zone_id
from routeseq.errors import InvalidInputError, SchemaError
from routeseq.predictor import prepare_route
from routeseq.scoring import evaluate_testset
from routeseq.tsp import solve_tour


def _cfg(**kw):
    base = dict(n_routes=5, zones_per_route=(3, 5), stops_per_zone=(2, 4), seed=11)
    base.update(kw)
    return datagen.SynthConfig(**base)


def test_same_seed_identical_bytes():
    a = datagen.routes_to_json(datagen.generate(_cfg()))
    b = datagen.routes_to_json(datagen.generate(_cfg()))
    assert a == b


def test_different_seed_differs():
    a = datagen.routes_to_json(datagen.generate(_cfg(seed=1)))
    b = datagen.routes_to_json(datagen.generate(_cfg(seed=2)))
    assert a != b


def test_matrix_invariants():
    for route in datagen.generate(_cfg()):
        tt = route.travel_time
        n = len(route.stops)
        assert tt.shape == (n + 1, n + 1)
        assert np.all(np.diag(tt) == 0.0)
        off = tt[~np.eye(n + 1, dtype=bool)]
        assert np.all(off > 0.0)
        # lognormal noise leaves the matrix asymmetric
        assert not np.allclose(tt, tt.T)


def test_zone_ids_follow_grammar():
    for route in datagen.generate(_cfg()):
        for stop in route.stops:
            assert parse_zone_id(stop.zone_id) is not None


def test_tsp_behavior_makes_baseline_perfect():
    routes = datagen.generate(_cfg(behavior="tsp", n_routes=6))
    sequences = {}
    for r in routes:
        prep = prepare_route(r)
        tour = solve_tour(prep.zinst.zone_travel_time, origin=0)
        sequences[r.route_id] = {
            "zone_sequence": [prep.zinst.zones[v - 1].zone_id for v in tour.order[1:]]}
    report = evaluate_testset(routes, sequences=sequences)
    assert report.mean_r == pytest.approx(0.0, abs=1e-15)
    assert report.accuracy == (1.0, 1.0, 1.0, 1.0)


def test_cluster_biased_departs_from_tsp():
    routes = datagen.generate(_cfg(behavior="cluster_biased", n_routes=20, seed=3,
                                   zones_per_route=(5, 9)))
    differs = 0
    for r in routes:
        zi = build_zone_instance(r)
        tour = solve_tour(zi.zone_travel_time, origin=0)
        tsp_order = [v - 1 for v in tour.order[1:]]
        if list(zi.actual_zone_sequence) != tsp_order:
            differs += 1
    assert differs > len(routes) / 2


def test_within_zone_stops_contiguous():
    for route in datagen.generate(_cfg()):
        zone_seq = [route.stops[i].zone_id for i in route.actual_stop_sequence]
        seen = []
        for z in zone_seq:
            if not seen or seen[-1] != z:
                seen.append(z)
        assert len(seen) == len(set(seen))


def test_impossible_ranges_rejected():
    with pytest.raises(InvalidInputError):
        datagen.generate(_cfg(zones_per_route=(5, 3)))
    with pytest.raises(InvalidInputError):
        datagen.generate(_cfg(stops_per_zone=(0, 3)))
    for bad in ({"speed_kmph": 0.0}, {"speed_kmph": math.inf}, {"speed_kmph": math.nan},
                {"extent_km": math.nan}, {"extent_km": -1.0}, {"noise_sigma": -0.1},
                {"noise_sigma": math.nan}, {"noise_sigma": math.inf}, {"seed": -1},
                {"zones_per_route": (5,)}, {"n_routes": 2.5}, {"zones_per_route": (5.5, 6)}):
        with pytest.raises(InvalidInputError):
            datagen.generate(_cfg(**bad))
    with pytest.raises(InvalidInputError):
        datagen.generate(_cfg(behavior="zigzag"))


def test_roundtrip_identity(tmp_path):
    routes = datagen.generate(_cfg())
    path = tmp_path / "routes.json"
    datagen.save_routes(routes, path)
    loaded = datagen.load_routes(path)
    assert len(loaded) == len(routes)
    for a, b in zip(routes, loaded):
        assert datagen.routes_equal(a, b)


def test_double_roundtrip_bytes_stable(tmp_path):
    routes = datagen.generate(_cfg())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    datagen.save_routes(routes, p1)
    datagen.save_routes(datagen.load_routes(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_matrix_dimension_mismatch_names_route(tmp_path):
    import json

    routes = datagen.generate(_cfg(n_routes=1))
    payload = json.loads(datagen.routes_to_json(routes))
    payload["routes"][0]["travel_time_s"] = payload["routes"][0]["travel_time_s"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as err:
        datagen.load_routes(path)
    assert "R00000" in str(err.value)
    assert "travel_time_s" in err.value.json_path


def test_missing_optional_fields_default(tmp_path):
    import json

    routes = datagen.generate(_cfg(n_routes=1))
    payload = json.loads(datagen.routes_to_json(routes))
    del payload["routes"][0]["metadata"]
    for stop in payload["routes"][0]["stops"]:
        del stop["n_packages"]
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(payload))
    loaded = datagen.load_routes(path)
    assert loaded[0].metadata == {}
    assert all(s.n_packages == 0 for s in loaded[0].stops)


def test_version_field_checked(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"version": "other/9", "routes": []}')
    with pytest.raises(SchemaError) as err:
        datagen.load_routes(path)
    assert err.value.json_path == "version"


def test_actual_sequence_must_be_permutation(tmp_path):
    import json

    routes = datagen.generate(_cfg(n_routes=1))
    payload = json.loads(datagen.routes_to_json(routes))
    payload["routes"][0]["actual_sequence"][0] = payload["routes"][0]["actual_sequence"][1]
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError):
        datagen.load_routes(path)

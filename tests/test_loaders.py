"""The dataset, checkpoint and predictions loaders reject malformed files
with a ``SchemaError`` at the offending JSON path.  What they accept either
scores or files a typed route failure; no other exception escapes."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeseq.cli import PREDICTIONS_VERSION, _load_predictions
from routeseq.datagen import SynthConfig, generate, load_routes, routes_to_json
from routeseq.errors import SchemaError
from routeseq.inference import GREEDY
from routeseq.kernel import serialize_checkpoint
from routeseq.predictor import (
    ModelConfig,
    checkpoint_tensors,
    init_model,
    load_model,
    model_meta,
    prepare_route,
)
from routeseq.scoring import evaluate_testset

ROUTES = generate(SynthConfig(n_routes=2, zones_per_route=(2, 3), stops_per_zone=(1, 2), seed=4))
MODEL = init_model(ModelConfig("pairwise", hidden=4, asnn_hidden=(8,), att_dim=4),
                   np.random.default_rng(0))
DATASET = json.loads(routes_to_json(ROUTES))
CHECKPOINT = json.loads(serialize_checkpoint(checkpoint_tensors(MODEL), model_meta(MODEL)))
PREDICTIONS = {"version": PREDICTIONS_VERSION, "mode": "tsp", "predictions": [
    {"route_id": r.route_id, "mode": "tsp",
     "zone_sequence": [p.zinst.zones[z].zone_id for z in p.tsp_order],
     "stop_sequence": [s.stop_id for s in r.stops]}
    for r, p in ((r, prepare_route(r)) for r in ROUTES)]}


def _write(tmp_path, doc, name="f.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _with(doc, path, value):
    """A copy of ``doc`` with the element at ``path`` (keys and indices)
    replaced by ``value``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# --- one malformed field, named by its JSON path -----------------------------

@pytest.mark.parametrize("path, value, json_path", [
    (("routes", 0, "stops", 1, "n_packages"), "abc", "routes[0].stops[1].n_packages"),
    (("routes", 0, "stops", 1, "n_packages"), None, "routes[0].stops[1].n_packages"),
    (("routes", 0, "stops", 0, "n_packages"), 2.5, "routes[0].stops[0].n_packages"),
    (("routes", 1, "stops", 0, "service_time_s"), "x", "routes[1].stops[0].service_time_s"),
    (("routes", 1, "stops", 1, "volume_cm3"), [], "routes[1].stops[1].volume_cm3"),
    (("routes", 0, "travel_time_s", 3), "x", "routes[0].travel_time_s"),
    (("routes", 0, "actual_sequence", 0), 7, "routes[0].actual_sequence"),
    (("routes", 0, "stops", 0, "lat"), True, "routes[0].stops[0].lat"),
    (("routes", 0, "stops", 1, "n_packages"), True, "routes[0].stops[1].n_packages"),
    (("routes", 1, "stops", 0, "service_time_s"), float("nan"), "routes[1].stops[0].service_time_s"),
    (("routes", 1, "stops", 1, "volume_cm3"), float("inf"), "routes[1].stops[1].volume_cm3"),
    (("routes", 0, "depot", "lng"), float("-inf"), "routes[0].depot.lng"),
    (("routes", 0, "stops", 0, "zone_id"), "", "routes[0].stops[0].zone_id"),
])
def test_dataset_field_of_wrong_type_is_a_schema_error(tmp_path, path, value, json_path):
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, _with(DATASET, path, value)))
    assert err.value.json_path == json_path


@pytest.mark.parametrize("path, value, json_path", [
    (("routes", 0, "stops", 1, "n_packages"), -3, "routes[0].stops[1].n_packages"),
    (("routes", 1, "stops", 0, "service_time_s"), -0.5, "routes[1].stops[0].service_time_s"),
    (("routes", 1, "stops", 1, "volume_cm3"), -1, "routes[1].stops[1].volume_cm3"),
])
def test_dataset_negative_load_is_a_schema_error(tmp_path, path, value, json_path):
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, _with(DATASET, path, value)))
    assert err.value.json_path == json_path


@pytest.mark.parametrize("path, json_path", [
    (("routes", 1, "stops", 0, "lng"), "routes[1].stops[0].lng"),
    (("routes", 0, "stops", 1, "n_packages"), "routes[0].stops[1].n_packages"),
    (("routes", 0, "travel_time_s", 2), "routes[0].travel_time_s"),
])
def test_dataset_integer_beyond_float_range_is_a_schema_error(tmp_path, path, json_path):
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, _with(DATASET, path, 10 ** 400)))
    assert err.value.json_path == json_path


@pytest.mark.parametrize("path, value, json_path", [
    (("tensors",), [], "tensors"),
    (("meta",), [], "meta"),
    (("tensors", "encoder.w", "shape"), "ab", "tensors.encoder.w"),
    (("tensors", "encoder.w", "shape"), None, "tensors.encoder.w"),
    (("tensors", "encoder.w", "shape", 0), -16, "tensors.encoder.w"),
    (("meta", "hidden"), 0, "meta"),
    (("meta", "asnn_hidden"), [8, "x"], "meta"),
    (("meta", "att_dim"), 4.0, "meta"),
    (("meta", "order_seed"), 1.7, "meta"),
    (("meta", "order_seed"), True, "meta"),
    (("meta", "order_seed"), "5", "meta"),
    (("meta", "n_features"), 11, "meta.n_features"),
    (("meta", "pair_dim"), 7, "meta.pair_dim"),
    (("meta", "zone_feature_names"), CHECKPOINT["meta"]["zone_feature_names"][::-1],
     "meta.zone_feature_names"),
])
def test_checkpoint_field_of_wrong_type_is_a_schema_error(tmp_path, path, value, json_path):
    with pytest.raises(SchemaError) as err:
        load_model(_write(tmp_path, _with(CHECKPOINT, path, value), "m.ckpt"))
    assert err.value.json_path == json_path


def test_dataset_duplicate_route_id_is_a_schema_error(tmp_path):
    doc = _with(DATASET, ("routes", 1, "route_id"), ROUTES[0].route_id)
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, doc))
    assert err.value.json_path == "routes[1].route_id"


def test_predictions_duplicate_route_id_is_a_schema_error(tmp_path):
    # a dict keyed by route id would keep the last row and drop the other
    doc = _with(PREDICTIONS, ("predictions", 1, "route_id"), ROUTES[0].route_id)
    with pytest.raises(SchemaError) as err:
        _load_predictions(_write(tmp_path, doc))
    assert err.value.json_path == "predictions[1].route_id"


@pytest.mark.parametrize("value", [["S0"], {"id": "S0"}, 3])
def test_prediction_stop_id_of_wrong_type_is_a_route_failure(tmp_path, value):
    doc = _with(PREDICTIONS, ("predictions", 0, "stop_sequence", 0), value)
    report = evaluate_testset(ROUTES, sequences=_load_predictions(_write(tmp_path, doc)))
    assert report.failures == [
        (ROUTES[0].route_id, "InvalidInputError: stop_sequence must hold string ids")]
    assert len(report.rows) == 1


_ZONES = PREDICTIONS["predictions"][0]["zone_sequence"]


@pytest.mark.parametrize("zone_sequence", [[_ZONES[0]] * len(_ZONES), [], _ZONES[:-1]])
def test_prediction_zone_sequence_not_a_permutation_is_a_route_failure(tmp_path, zone_sequence):
    # beside a valid stop sequence, [z0, z0, ...] used to earn acc1 = 1.0 and
    # [] dropped the route out of every first-k mean
    doc = _with(PREDICTIONS, ("predictions", 0, "zone_sequence"), zone_sequence)
    report = evaluate_testset(ROUTES, sequences=_load_predictions(_write(tmp_path, doc)))
    assert report.failures == [
        (ROUTES[0].route_id, "InvalidInputError: zone_order must be a permutation of the zones")]
    assert len(report.rows) == 1


# --- any field replaced by a value of another JSON type ------------------------

def _json_type(value) -> str:
    """The JSON type of a parsed value; integers and floats count apart."""
    return {type(None): "null", bool: "bool", int: "integer", float: "float", str: "string",
            list: "array", dict: "object"}[type(value)]


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
    st.floats(-1e9, 1e9, allow_nan=False), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 20), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 20), max_size=2),
)


def _locations(doc, path=()):
    """The path of every element below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _mutants(doc):
    """``doc`` with one element replaced by a value of another JSON type."""
    @st.composite
    def mutant(draw):
        path = draw(st.sampled_from(list(_locations(doc))))
        old = _json_type(_at(doc, path))
        return _with(doc, path, draw(_JSON_VALUES.filter(lambda v: _json_type(v) != old)))
    return mutant()


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


@_FUZZ
@given(_mutants(DATASET))
def test_dataset_loader_fuzz(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("data"), doc)
    try:
        routes = load_routes(path)
    except SchemaError:
        return
    evaluate_testset(routes, params=MODEL, mode=GREEDY)


@_FUZZ
@given(_mutants(CHECKPOINT))
def test_checkpoint_loader_fuzz(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("ckpt"), doc, "m.ckpt")
    try:
        params = load_model(path)
    except SchemaError:
        return
    evaluate_testset(ROUTES, params=params, mode=GREEDY)


@_FUZZ
@given(_mutants(PREDICTIONS))
def test_predictions_loader_fuzz(tmp_path_factory, doc):
    path = _write(tmp_path_factory.mktemp("pred"), doc)
    try:
        sequences = _load_predictions(path)
    except SchemaError:
        return
    evaluate_testset(ROUTES, sequences=sequences)

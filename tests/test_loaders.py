"""The dataset, checkpoint and predictions loaders reject malformed files
with a ``SchemaError`` at the offending JSON path.  What they accept either
scores or files a typed route failure; no other exception escapes."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_routeseq_1
from routeseq.cli import PREDICTIONS_VERSION, _load_predictions
from routeseq.datagen import SynthConfig, generate, load_routes, routes_to_json
from routeseq.errors import SchemaError
from routeseq.inference import GREEDY
from routeseq.kernel import encode_float64, serialize_checkpoint
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
DATASET_V1 = as_routeseq_1(DATASET)
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


_MISSING = object()  # a value for ``_with`` that removes the element


def _with(doc, path, value):
    """A copy of ``doc`` with the element at ``path`` (keys and indices)
    replaced by ``value``, or removed when that is ``_MISSING``."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _dataset(path):
    """The dataset document that ``path`` is a path into: only the
    ``routeseq/1`` list form of a travel-time matrix has entries."""
    return DATASET_V1 if path[2:3] == ("travel_time_s",) and len(path) > 3 else DATASET


def _matrix(route, row=None, col=None, value=None, drop=0):
    """``route``'s travel times as a ``routeseq/2`` string, with entry
    (``row``, ``col``) set to ``value`` when that is given and the last
    ``drop`` values left out."""
    tt = route.travel_time.copy()
    if value is not None:
        tt[row, col] = value
    return encode_float64(tt.ravel()[:tt.size - drop])


_TT = ("routes", 0, "travel_time_s")


# --- one malformed field, named by its JSON path -----------------------------

def _case(path, value, json_path, message, **kw):
    """A malformed element whose error must read ``<json_path>: <message>``,
    so a reader that checks a stop in one pass keeps ``require_field``'s
    words."""
    return pytest.param(path, value, json_path, marks=pytest.mark.says(message), **kw)


_INT, _NUM, _STR = "<class 'int'>", "(<class 'int'>, <class 'float'>)", "<class 'str'>"
_S0, _S1 = ("routes", 0, "stops", 0), ("routes", 0, "stops", 1)
_BAD_TIMES = "route R00000: travel times must be finite and >= 0"


@pytest.mark.parametrize("path, value, json_path", [
    _case(("routes", 0, "stops", 1, "n_packages"), "abc", "routes[0].stops[1].n_packages",
          f"expected {_INT}, got str"),
    _case(("routes", 0, "stops", 1, "n_packages"), None, "routes[0].stops[1].n_packages",
          f"expected {_INT}, got NoneType"),
    _case(("routes", 0, "stops", 0, "n_packages"), 2.5, "routes[0].stops[0].n_packages",
          f"expected {_INT}, got float"),
    _case(("routes", 1, "stops", 0, "service_time_s"), "x", "routes[1].stops[0].service_time_s",
          f"expected {_NUM}, got str"),
    _case(("routes", 1, "stops", 1, "volume_cm3"), [], "routes[1].stops[1].volume_cm3",
          f"expected {_NUM}, got list"),
    _case(("routes", 0, "travel_time_s", 3), "x", "routes[0].travel_time_s",
          "route 'R00000': entries must be numbers"),
    _case(("routes", 0, "actual_sequence", 0), 7, "routes[0].actual_sequence",
          "route 'R00000': stop ids must be strings"),
    _case(("routes", 0, "stops", 0, "lat"), True, "routes[0].stops[0].lat",
          f"expected {_NUM}, got bool"),
    _case(("routes", 0, "stops", 1, "n_packages"), True, "routes[0].stops[1].n_packages",
          f"expected {_INT}, got bool"),
    _case(("routes", 1, "stops", 0, "service_time_s"), float("nan"),
          "routes[1].stops[0].service_time_s", "expected a finite number within float range"),
    _case(("routes", 1, "stops", 1, "volume_cm3"), float("inf"), "routes[1].stops[1].volume_cm3",
          "expected a finite number within float range"),
    _case(("routes", 0, "depot", "lng"), float("-inf"), "routes[0].depot.lng",
          "expected a finite number within float range"),
    _case(("routes", 0, "stops", 0, "zone_id"), "", "routes[0].stops[0].zone_id",
          "expected a non-empty zone id"),
    _case(_TT, [0.0] * 9, "routes[0].travel_time_s",
          "route 'R00000', 4 stops: expected a base64 string, got list", id="v2-matrix-not-a-string"),
    # The rest of this message is the base64 decoder's, which Python words.
    pytest.param(_TT, "!" + _matrix(ROUTES[0]), "routes[0].travel_time_s", id="v2-matrix-not-base64"),
    _case(_TT, _matrix(ROUTES[0], drop=1), "routes[0].travel_time_s",
          "route 'R00000', 4 stops: expected 25 float64 values, got 192 bytes",
          id="v2-matrix-one-value-short"),
    _case(_TT, _matrix(ROUTES[0], 1, 2, float("nan")), "routes[0]",
          _BAD_TIMES, id="v2-matrix-nan"),
    _case(_TT, _matrix(ROUTES[0], 2, 1, -1.0), "routes[0]",
          _BAD_TIMES, id="v2-matrix-negative"),
    _case(_TT, _matrix(ROUTES[0], 1, 1, 5.0), "routes[0]",
          "route R00000: travel_time diagonal must be zero", id="v2-matrix-nonzero-diagonal"),
    _case(_S0, 7, "routes[0].stops[0].id", "missing required field", id="stop-not-an-object"),
    _case(_S0, ["S0000"], "routes[0].stops[0].id", "missing required field",
          id="stop-a-list"),
    *(_case((*_S0, key), _MISSING, f"routes[0].stops[0].{key}", "missing required field",
            id=f"stop-without-{key}") for key in ("id", "zone_id", "lat", "lng")),
    _case((*_S0, "id"), 7, "routes[0].stops[0].id", f"expected {_STR}, got int",
          id="stop-id-an-int"),
    _case((*_S0, "zone_id"), None, "routes[0].stops[0].zone_id", f"expected {_STR}, got NoneType",
          id="stop-zone-id-null"),
    _case((*_S0, "lat"), "47.1", "routes[0].stops[0].lat", f"expected {_NUM}, got str",
          id="stop-lat-a-string"),
    _case(("routes", 1, "stops", 0, "service_time_s"), False, "routes[1].stops[0].service_time_s",
          f"expected {_NUM}, got bool", id="stop-service-time-a-bool"),
    _case((*_S1, "id"), 3.5, "routes[0].stops[1].id", f"expected {_STR}, got float",
          id="second-stop-id-a-float"),
    _case((*_S1, "lng"), "x", "routes[0].stops[1].lng", f"expected {_NUM}, got str",
          id="second-stop-lng-a-string"),
])
def test_dataset_field_of_wrong_type_is_a_schema_error(tmp_path, request, path, value, json_path):
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, _with(_dataset(path), path, value)))
    assert err.value.json_path == json_path
    if says := request.node.get_closest_marker("says"):
        assert str(err.value) == f"{json_path}: {says.args[0]}"


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
    (("routes", 0, "stops", 0, "lat"), "routes[0].stops[0].lat"),
    (("routes", 1, "stops", 2, "service_time_s"), "routes[1].stops[2].service_time_s"),
    (("routes", 1, "stops", 3, "volume_cm3"), "routes[1].stops[3].volume_cm3"),
    (("routes", 0, "depot", "lat"), "routes[0].depot.lat"),
])
def test_dataset_integer_beyond_float_range_is_a_schema_error(tmp_path, path, json_path):
    with pytest.raises(SchemaError) as err:
        load_routes(_write(tmp_path, _with(_dataset(path), path, 10 ** 400)))
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
    # b64decode drops characters outside the alphabet unless it validates
    pytest.param(("tensors", "encoder.b", "data"),
                 "!\n*" + CHECKPOINT["tensors"]["encoder.b"]["data"], "tensors.encoder.b",
                 id="data-stray-characters-tensors.encoder.b"),
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

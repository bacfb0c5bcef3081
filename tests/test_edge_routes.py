"""Degenerate routes through the whole pipeline: no stops, one zone, one
stop per zone, and zone ids that do not parse."""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from conftest import make_route
from oracles import route_cost_ref
from routeseq.completion import complete_sequence
from routeseq.errors import InvalidInputError, MalformedRouteError
from routeseq.inference import BEST_FIRST, GREEDY, predict
from routeseq.kernel import adam_init, adam_step
from routeseq.predictor import (
    VARIANTS,
    ModelConfig,
    flatten_model,
    init_model,
    model_tensors,
    prepare_route,
)
from routeseq.scoring import evaluate_testset, score_route
from routeseq.training import TrainConfig, train

SMALL = TrainConfig(epochs=1, hidden=8, asnn_hidden=(16, 16), att_dim=8)


def test_single_zone_route_end_to_end():
    route = make_route(["A-1.1A"] * 3)
    # The driver takes the cheapest path through the zone's three stops,
    # which completion finds among its 3 x 3 entry/exit candidates.
    route.actual_stop_sequence = list(min(
        permutations(range(3)),
        key=lambda p: route_cost_ref([s + 1 for s in p], route.travel_time, close=False),
    ))
    prep = prepare_route(route)
    assert prep.nodes[1:].shape == (1, 12)
    assert prep.pair.shape == (2, 1, 6)
    assert prep.tsp_order == (0,) and prep.targets == (0,)
    params, report = train([route], SMALL)
    assert len(report.epoch_losses) == 1 and report.epoch_losses[0] == 0.0
    zone_order = predict(params, prep, BEST_FIRST).zone_order
    assert zone_order == [0]
    assert complete_sequence(zone_order, prep.zinst, route) == route.actual_stop_sequence
    score = score_route(route, prep, zone_order)
    assert score.r == 0.0
    assert score.first_k == (1,)


def test_one_zone_route_takes_a_zero_gradient_adam_step():
    # A one-zone route's one decoder step is not scored, so its loss depends
    # on no parameter; training still adds 0.0 to the epoch loss and takes
    # one Adam step with every gradient 0.
    route = make_route(["A-1.1A"] * 3)
    for variant in VARIANTS:
        params, report = train([route], replace(SMALL, variant=variant))
        assert report.epoch_losses == [0.0]
        model = init_model(ModelConfig(variant=variant, hidden=SMALL.hidden,
                                       asnn_hidden=SMALL.asnn_hidden, att_dim=SMALL.att_dim,
                                       kz=1 if variant == "lstm_ed" else None),
                           np.random.default_rng(SMALL.seed))
        flat = flatten_model(model)
        expected = model_tensors(model)
        adam_step(flat, np.zeros_like(flat), adam_init(expected, lr=SMALL.lr))
        for name, tensor in model_tensors(params).items():
            assert np.array_equal(tensor, expected[name]), (variant, name)


def test_every_zone_has_one_stop():
    route = make_route(["A-1.1A", "B-2.1A", "C-1.2B", "A-1.3C"], actual=[2, 0, 3, 1])
    prep = prepare_route(route)
    assert list(prep.nodes[1:, 2]) == [1.0] * 4
    assert [z.member_stops for z in prep.zinst.zones] == [[0], [1], [2], [3]]
    params, _ = train([route], SMALL)
    zone_order = predict(params, prep, BEST_FIRST).zone_order
    assert complete_sequence(zone_order, prep.zinst, route) == zone_order
    score = score_route(route, prep, list(prep.targets))
    assert score.r == 0.0
    assert score.first_k == (1, 1, 1, 1)
    report = evaluate_testset([route], params=params)
    assert report.failures == [] and len(report.rows) == 1


def test_unparseable_zone_ids_evaluate_without_failures():
    routes = [
        make_route(["X9", "zz", "X9", "Q-1", "zz"], route_id="U0", actual=[4, 1, 0, 2, 3]),
        make_route(["B-6.2C", "X9", "B-6.2C", "A-1.1"], route_id="U1", actual=[1, 3, 0, 2]),
        make_route(["??", "-1.1A"], route_id="U2", actual=[1, 0]),
    ]
    for route in routes:
        prep = prepare_route(route)
        n = prep.n_zones
        relationship = prep.pair[:, :, 1:].copy()
        relationship[np.arange(1, n + 1), np.arange(n)] = 0.0  # the self-pairs
        assert not relationship.any()
    params, _ = train(routes, SMALL)
    report = evaluate_testset(routes, params=params)
    assert report.failures == []
    assert [row.route_id for row in report.rows] == ["U0", "U1", "U2"]


def test_route_without_stops_is_one_typed_failure_in_every_variant_and_mode():
    # The JSON loader rejects such a route; built in code, it must fail at
    # the boundary the same way whatever the model and decoder.
    empty = make_route([], times=np.zeros((1, 1)), route_id="E0")
    good = make_route(["A-1.1A", "B-1.1A"], route_id="G0")
    for variant in VARIANTS:
        params, _ = train([good], replace(SMALL, variant=variant))
        for mode in (GREEDY, BEST_FIRST):
            report = evaluate_testset([empty, good], params=params, mode=mode)
            assert report.failures == [("E0", "MalformedRouteError: route E0: has no stops")]
            assert [row.route_id for row in report.rows] == ["G0"]


def test_non_finite_stop_data_is_one_typed_failure_in_every_variant():
    # A route built in code with a NaN or infinite coordinate or load fails
    # at the boundary, whatever the model (JSON input never gets this far).
    good = make_route(["A-1.1A", "B-1.1A"], route_id="G0")
    bad_routes = []
    for k, (who, name, value) in enumerate([("depot", "lat", np.nan), ("stop", "lat", np.nan),
                                            ("stop", "lng", np.inf), ("stop", "n_packages", np.nan),
                                            ("stop", "service_time", np.inf),
                                            ("stop", "package_volume", -np.inf)]):
        route = make_route(["A-1.1A", "B-1.1A", "A-1.1A"], route_id=f"N{k}")
        setattr(route.depot if who == "depot" else route.stops[1], name, value)
        with pytest.raises(MalformedRouteError, match="non-finite coordinate or load"):
            prepare_route(route)
        bad_routes.append(route)
    for variant in VARIANTS:
        params, _ = train([good], replace(SMALL, variant=variant))
        report = evaluate_testset([*bad_routes, good], params=params)
        assert [route_id for route_id, _ in report.failures] == [r.route_id for r in bad_routes]
        assert all(msg.startswith("MalformedRouteError") for _, msg in report.failures)
        assert [row.route_id for row in report.rows] == ["G0"]


def test_wrong_shape_matrix_and_negative_loads_are_typed_failures_in_every_variant():
    # Built in code, a route whose travel-time matrix is n x n instead of
    # (n+1) x (n+1), or whose stop has a negative load, fails at the
    # boundary whatever the model (the JSON loader rejects both).
    good = make_route(["A-1.1A", "B-1.1A"], route_id="G0")
    short = make_route(["A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"], route_id="S0")
    short.travel_time = short.travel_time[:4, :4]
    bad_routes = [short]
    for k, name in enumerate(("n_packages", "service_time", "package_volume")):
        route = make_route(["A-1.1A", "B-1.1A", "A-1.1A"], route_id=f"L{k}")
        setattr(route.stops[1], name, -3)
        with pytest.raises(MalformedRouteError, match="negative load"):
            prepare_route(route)
        bad_routes.append(route)
    with pytest.raises(MalformedRouteError, match="travel_time shape"):
        prepare_route(short)
    for variant in VARIANTS:
        params, _ = train([good], replace(SMALL, variant=variant))
        report = evaluate_testset([*bad_routes, good], params=params)
        assert [route_id for route_id, _ in report.failures] == [r.route_id for r in bad_routes]
        assert all(msg.startswith("MalformedRouteError") for _, msg in report.failures)
        assert [row.route_id for row in report.rows] == ["G0"]


def test_a_set_whose_every_route_fails_names_each_failure():
    # A one-route set whose 4-stop route has a 4 x 4 matrix scores no route:
    # the error names the route and says why it failed.
    short = make_route(["A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"], route_id="S0")
    short.travel_time = short.travel_time[:4, :4]
    params = init_model(ModelConfig("asnn", hidden=8, asnn_hidden=(16,)), np.random.default_rng(0))
    with pytest.raises(InvalidInputError, match=r"^no routes were scored; S0: MalformedRouteError: "
                                                r"route S0: travel_time shape"):
        evaluate_testset([short], params=params)

import numpy as np
import pytest

import routeseq.inference
from conftest import make_route
from oracles import route_cost_ref
from routeseq.errors import InvalidInputError
from routeseq.inference import (
    BEST_FIRST,
    GREEDY,
    generate_best_first,
    greedy_decode,
    operational_cost,
    predict,
)
from routeseq.predictor import (
    INPUT_ORDER_MODES,
    VARIANTS,
    ModelConfig,
    fit_scaler,
    init_model,
    model_tensors,
    prepare_route,
)

K_SMALL = dict(hidden=8, asnn_hidden=(16, 16), att_dim=8)


def _setup(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"), variant="pairwise",
           seed=0, zero=False, times=None, input_order="tsp", kz=None):
    route = make_route(list(zone_ids), times=times)
    prep = prepare_route(route)
    cfg = ModelConfig(variant=variant,
                      kz=((kz or prep.n_zones) if variant == "lstm_ed" else None),
                      input_order_mode=input_order, order_seed=seed, **K_SMALL)
    params = init_model(cfg, np.random.default_rng(seed))
    params.scaler = fit_scaler([prep])
    if zero:
        for arr in model_tensors(params).values():
            arr[...] = 0.0
    return prep, params


def test_single_zone_any_variant():
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        prep, params = _setup(zone_ids=("A-1.1A",), variant=variant, seed=3)
        pred = greedy_decode(params, prep)
        assert pred.zone_order == [0]
        assert pred.mode == GREEDY


def test_uniform_attention_ties_break_by_zone_index():
    prep, params = _setup(zero=True)
    pred = greedy_decode(params, prep)
    assert pred.zone_order == [0, 1, 2, 3]


def test_hand_built_model_picks_far_zone_first():
    times = np.array([
        [0.0, 10.0, 50.0],
        [5.0, 0.0, 7.0],
        [6.0, 8.0, 0.0],
    ])
    prep, params = _setup(zone_ids=("A-1.1A", "B-1.1A"), times=times)
    from routeseq.kernel import MlpLayer, MlpParams
    from routeseq.predictor import identity_scaler
    params.scaler = identity_scaler()
    for arr in model_tensors(params).values():
        arr[...] = 0.0
    w = np.zeros((1, 6 + 16))
    w[0, 0] = 1.0  # score = raw travel time from the previous stop
    params.asnn = MlpParams([MlpLayer(w, np.zeros(1))])
    pred = greedy_decode(params, prep)
    zb = prep.zinst.zone_index("B-1.1A")
    za = prep.zinst.zone_index("A-1.1A")
    assert pred.zone_order == [zb, za]


def test_forced_first_resumes_decoding():
    prep, params = _setup(seed=11)
    for z in range(prep.n_zones):
        pred = greedy_decode(params, prep, forced_first=z)
        assert pred.zone_order[0] == z
        assert sorted(pred.zone_order) == list(range(prep.n_zones))


def test_forced_first_out_of_range():
    prep, params = _setup()
    with pytest.raises(InvalidInputError):
        greedy_decode(params, prep, forced_first=7)


def test_predicted_sequence_oc_matches_route_cost():
    prep, params = _setup(seed=5)
    pred = greedy_decode(params, prep)
    nodes = [0] + [z + 1 for z in pred.zone_order]
    expected = route_cost_ref(nodes, prep.zinst.zone_travel_time, close=True)
    assert pred.operational_cost == pytest.approx(expected, rel=1e-12)


def test_best_first_returns_minimum_candidate():
    prep, params = _setup(seed=7)
    best = generate_best_first(params, prep)
    assert best.mode == BEST_FIRST
    # independent loop over every forced start
    ocs = []
    for z in range(prep.n_zones):
        cand = greedy_decode(params, prep, forced_first=z)
        ocs.append(cand.operational_cost)
    assert best.operational_cost == pytest.approx(min(ocs), rel=1e-12)


def _rollout_bits(pred):
    return (pred.zone_order, repr(pred.operational_cost),
            [t.attention.tobytes() for t in pred.traces],
            [None if t.context is None else t.context.tobytes() for t in pred.traces])


@pytest.mark.parametrize("input_order", INPUT_ORDER_MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_greedy_rollout_is_the_forced_rollout_of_its_first_zone(variant, input_order):
    # best-first takes its candidates from the forced rollouts only; the
    # plain greedy rollout must be one of them, bit for bit
    five = ("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C", "C-1.1A")
    cases = [(("A-1.1A",), None), (five, None)]
    if variant == "lstm_ed":
        cases.append((five, 2))  # a head narrower than the route
    for zone_ids, kz in cases:
        for seed in (0, 1):
            prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=seed,
                                  input_order=input_order, kz=kz)
            greedy = greedy_decode(params, prep)
            forced = greedy_decode(params, prep, forced_first=greedy.zone_order[0])
            assert _rollout_bits(greedy) == _rollout_bits(forced), (zone_ids, kz, seed)


def test_best_first_encodes_once_per_route(monkeypatch):
    calls = []
    encode = routeseq.inference.encode

    def counting_encode(params, scaled):
        calls.append(scaled.prep.route.route_id)
        return encode(params, scaled)

    monkeypatch.setattr(routeseq.inference, "encode", counting_encode)
    for variant in VARIANTS:
        prep, params = _setup(variant=variant, seed=1)
        calls.clear()
        generate_best_first(params, prep)
        assert len(calls) == 1, variant
        calls.clear()
        predict(params, prep, BEST_FIRST)
        assert len(calls) == 1, variant


def test_best_first_single_zone_equals_greedy():
    prep, params = _setup(zone_ids=("A-1.1A",), seed=7)
    assert generate_best_first(params, prep).zone_order == greedy_decode(params, prep).zone_order


def test_best_first_never_worse_than_greedy():
    for seed in range(5):
        prep, params = _setup(seed=seed)
        greedy = greedy_decode(params, prep)
        best = generate_best_first(params, prep)
        assert best.operational_cost <= greedy.operational_cost + 1e-12


def test_predict_dispatches_on_mode():
    prep, params = _setup(seed=7)
    ours = predict(params, prep, BEST_FIRST)
    assert ours.zone_order == generate_best_first(params, prep).zone_order
    assert ours.mode == BEST_FIRST
    greedy = predict(params, prep, GREEDY)
    assert greedy.zone_order == greedy_decode(params, prep).zone_order
    assert greedy.mode == GREEDY
    with pytest.raises(InvalidInputError, match="unknown generation mode"):
        predict(params, prep, "bogus")


def test_uniform_model_matches_reimplementation_oracle():
    # with uniform attention every rollout visits remaining zones in index
    # order, so the best candidate is computable independently
    prep, params = _setup(zero=True)
    n = prep.n_zones
    best_oc, best_first = None, None
    for z in range(n):
        order = [z] + [k for k in range(n) if k != z]
        oc = route_cost_ref([0] + [v + 1 for v in order], prep.zinst.zone_travel_time, close=True)
        if best_oc is None or oc < best_oc - 1e-15 or (oc == best_oc and z < best_first):
            best_oc, best_first = oc, z
    pred = generate_best_first(params, prep)
    assert pred.operational_cost == pytest.approx(best_oc, rel=1e-12)
    assert pred.zone_order[0] == best_first


def test_decode_is_deterministic_and_permutation():
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        prep, params = _setup(variant=variant, seed=2)
        p1 = greedy_decode(params, prep)
        p2 = greedy_decode(params, prep)
        assert p1.zone_order == p2.zone_order
        assert sorted(p1.zone_order) == list(range(prep.n_zones))
        b1 = generate_best_first(params, prep)
        b2 = generate_best_first(params, prep)
        assert b1.zone_order == b2.zone_order


def test_traces_cover_each_step():
    prep, params = _setup(seed=4)
    pred = greedy_decode(params, prep)
    assert [t.step for t in pred.traces] == list(range(prep.n_zones))
    for t in pred.traces:
        assert abs(t.attention.sum() - 1.0) < 1e-9
    assert [t.chosen for t in pred.traces] == pred.zone_order


def test_operational_cost_helper():
    prep, params = _setup()
    oc = operational_cost([0, 1, 2, 3], prep.zinst)
    assert oc == pytest.approx(
        route_cost_ref([0, 1, 2, 3, 4], prep.zinst.zone_travel_time, close=True), rel=1e-12)


def test_lstm_ed_decodes_routes_wider_than_its_head():
    # a head of kz = 2 slots on a 4-zone route: once both slots are visited,
    # no zone left has a probability and the smallest unvisited index wins
    route = make_route(["A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"])
    prep = prepare_route(route)
    cfg = ModelConfig(variant="lstm_ed", kz=2, **K_SMALL)
    params = init_model(cfg, np.random.default_rng(0))
    params.scaler = fit_scaler([prep])
    pred = greedy_decode(params, prep)
    assert sorted(pred.zone_order) == list(range(4))
    for i, t in enumerate(pred.traces):
        if i < 2:
            assert abs(t.attention.sum() - 1.0) < 1e-9
        else:
            assert np.all(t.attention == 0.0)
            assert t.chosen == min(set(range(4)) - set(pred.zone_order[:i]))
    assert sorted(generate_best_first(params, prep).zone_order) == list(range(4))

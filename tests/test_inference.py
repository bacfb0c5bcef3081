import numpy as np
import pytest

import routeseq.inference
from conftest import make_route
from oracles import route_cost_ref
from routeseq.errors import InvalidInputError
from routeseq.inference import (
    BEST_FIRST,
    GREEDY,
    _rollouts,
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
    forward_logprob,
    init_model,
    model_tensors,
    prepare_route,
    scale_route,
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
    assert best.operational_cost == min(ocs)


def _rollout_bits(pred):
    return (pred.zone_order, repr(pred.operational_cost),
            [t.attention.tobytes() for t in pred.traces],
            [None if t.context is None else t.context.tobytes() for t in pred.traces])


_FIVE = ("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C", "C-1.1A")
_ROUTES = [_FIVE[:1], _FIVE[:2], _FIVE]


def _rollout_cases(variant):
    """(zone ids, kz): routes of 1, 2 and 5 zones, and for lstm_ed a head
    narrower than the route."""
    cases = [(zone_ids, None) for zone_ids in _ROUTES]
    return cases + [(_FIVE, 2)] if variant == "lstm_ed" else cases


@pytest.mark.parametrize("input_order", INPUT_ORDER_MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_greedy_rollout_is_the_forced_rollout_of_its_first_zone(variant, input_order):
    # best-first takes its candidates from the forced rollouts only; the
    # plain greedy rollout must be one of them, bit for bit
    for zone_ids, kz in _rollout_cases(variant):
        for seed in (0, 1):
            prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=seed,
                                  input_order=input_order, kz=kz)
            greedy = greedy_decode(params, prep)
            forced = greedy_decode(params, prep, forced_first=greedy.zone_order[0])
            assert _rollout_bits(greedy) == _rollout_bits(forced), (zone_ids, kz, seed)


@pytest.mark.parametrize("input_order", INPUT_ORDER_MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_best_first_is_the_cheapest_independent_forced_rollout(variant, input_order):
    # best-first shares one step 0 between its rollouts; each must still be
    # the rollout greedy_decode runs alone from that first zone, bit for bit
    for zone_ids, kz in _rollout_cases(variant):
        for seed in (0, 1):
            prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=seed,
                                  input_order=input_order, kz=kz)
            alone = min((greedy_decode(params, prep, forced_first=z) for z in range(prep.n_zones)),
                        key=lambda c: (c.operational_cost, c.zone_order[0]))
            best = generate_best_first(params, prep)
            assert _rollout_bits(best) == _rollout_bits(alone), (zone_ids, kz, seed)


@pytest.mark.parametrize("variant", VARIANTS)
def test_best_first_rollouts_share_step_arrays_without_reading_each_others_rows(variant):
    # best-first's rollouts share one first_step, so one set of step arrays
    # whose row 0 step 0 wrote; each rollout writes rows 1 on.  Run in either
    # order, each must be bit for bit the rollout from its own first_step,
    # and best-first the cheapest of those.
    for zone_ids, kz in _rollout_cases(variant):
        prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=1, kz=kz)
        n = prep.n_zones
        own = [next(_rollouts(params, prep, [z], BEST_FIRST)) for z in range(n)]
        for order in (range(n), range(n - 1, -1, -1)):
            rollouts = _rollouts(params, prep, order, BEST_FIRST)
            bits = {r.zone_order[0]: _rollout_bits(r) for r in rollouts}
            assert [bits[z] for z in range(n)] == [_rollout_bits(r) for r in own], (zone_ids, kz)
        cheapest = min(own, key=lambda c: (c.operational_cost, c.zone_order[0]))
        assert _rollout_bits(generate_best_first(params, prep)) == _rollout_bits(cheapest)


@pytest.mark.parametrize("variant", VARIANTS)
def test_decoder_steps_per_route(variant, monkeypatch):
    # Step 0 is computed once per route and shared by the best-first
    # rollouts, and a step with one zone left is not scored: an n-zone route
    # scores (n-1)^2 steps best-first and n-1 greedy or teacher-forced, each
    # through the decoder LSTM for the recurrent variants (asnn has none).
    calls = {"decode_step": 0, "_scores": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(routeseq.predictor, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(routeseq.predictor, name, counting)

    def count(run):
        for name in calls:
            calls[name] = 0
        run()
        return calls["decode_step"], calls["_scores"]

    for zone_ids in _ROUTES:
        n = len(zone_ids)
        prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=2)  # lstm_ed: kz = n
        lstm = variant != "asnn"
        for run, steps in ((lambda: generate_best_first(params, prep), (n - 1) ** 2),
                           (lambda: greedy_decode(params, prep), n - 1),
                           (lambda: forward_logprob(params, scale_route(prep, params)), n - 1)):
            assert count(run) == (steps if lstm else 0, steps), (n, steps)


def test_best_first_encodes_once_per_route(monkeypatch):
    # one encoding, and for the pair MLP one set of its route-constant terms
    calls = []
    encode = routeseq.predictor.encode
    pair_terms = routeseq.predictor.pair_terms

    def counting_encode(params, scaled):
        calls.append("encode")
        return encode(params, scaled)

    def counting_pair_terms(*args):
        calls.append("pair_terms")
        return pair_terms(*args)

    monkeypatch.setattr(routeseq.predictor, "encode", counting_encode)
    monkeypatch.setattr(routeseq.predictor, "pair_terms", counting_pair_terms)
    for variant in VARIANTS:
        expected = ["encode", "pair_terms"] if variant in ("pairwise", "asnn") else ["encode"]
        prep, params = _setup(variant=variant, seed=1)
        calls.clear()
        generate_best_first(params, prep)
        assert calls == expected, variant
        calls.clear()
        predict(params, prep, BEST_FIRST)
        assert calls == expected, variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_best_first_builds_only_the_winners_traces_and_only_when_read(variant, monkeypatch):
    # a rollout reads its order from its steps' picks, so best-first builds
    # no DecoderStepTrace until the returned prediction's traces are read,
    # and then that prediction's n only, none of the losing rollouts'
    built = []
    trace = routeseq.predictor.DecoderStepTrace

    def counting(*args):
        built.append(args[0])
        return trace(*args)

    monkeypatch.setattr(routeseq.predictor, "DecoderStepTrace", counting)
    for zone_ids, kz in _rollout_cases(variant)[2:]:  # 5 zones; lstm_ed's 2-slot head too
        prep, params = _setup(zone_ids=zone_ids, variant=variant, seed=1, kz=kz)
        built.clear()
        best = generate_best_first(params, prep)
        assert built == [], kz
        assert [t.step for t in best.traces] == built == list(range(prep.n_zones)), kz


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

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_route
from oracles import (
    finite_difference,
    grad_close,
    mlp_ref,
    node_features_ref,
    pair_tensor_ref,
    zone_travel_time_ref,
)
from routeseq.datagen import SynthConfig, generate
from routeseq.errors import ConfigError, SchemaError
from routeseq.inference import greedy_decode
from routeseq.kernel import (
    LstmState,
    MlpLayer,
    MlpParams,
    Tape,
    deserialize_checkpoint,
    init_lstm,
    serialize_checkpoint,
    softmax,
    zero_state,
)
from routeseq.predictor import (
    VARIANTS,
    ModelConfig,
    _decode_backward,
    _pair_terms,
    _scores,
    checkpoint_tensors,
    decode,
    decode_step,
    encode,
    first_step,
    fit_scaler,
    flatten_model,
    forward_logprob,
    identity_scaler,
    init_model,
    load_model,
    model_meta,
    model_tensors,
    params_from_checkpoint,
    prepare_route,
    random_input_order,
    save_model,
    scale_route,
)

K_SMALL = dict(hidden=8, asnn_hidden=(16, 16), att_dim=8)


def _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A"), times=None, actual=None):
    route = make_route(list(zone_ids), times=times, actual=actual)
    return prepare_route(route)


def _model(variant, prep, seed=0, scaler=None, **overrides):
    kwargs = {"kz": prep.n_zones if variant == "lstm_ed" else None, **K_SMALL, **overrides}
    cfg = ModelConfig(variant=variant, **kwargs)
    params = init_model(cfg, np.random.default_rng(seed))
    params.scaler = scaler or fit_scaler([prep])
    return params


def _reading_at_random(params, seed):
    """``params`` with a config that reads routes in the random order of ``seed``."""
    return replace(params, config=replace(params.config, input_order_mode="random",
                                          order_seed=seed))


def _rows(params, keys):
    """One step's rows for the scorer's later layers' inputs over ``keys``."""
    widths = ([layer.w.shape[1] for layer in params.asnn.layers[1:]] if params.asnn
              else [len(params.pointer.w1)] if params.pointer else [])
    return [np.empty((len(keys), width)) for width in widths]


def _depot_scores(params, sc, d, keys):
    """Step 0's scores, from the depot, with the query ``d`` over ``keys``."""
    return _scores(params, sc, 0, d, keys, _pair_terms(params, sc, keys), _rows(params, keys))


def _zeroed(params):
    for arr in model_tensors(params).values():
        arr[...] = 0.0
    return params


def test_prepare_route_shapes():
    prep = _prep()
    n = prep.n_zones
    assert prep.nodes[1:].shape == (n, 12)
    assert prep.pair.shape == (n + 1, n, 6)
    assert sorted(prep.tsp_order) == list(range(n))
    assert sorted(prep.targets) == list(range(n))
    # a zone's pair row with itself: zero time, all relationship flags set
    assert list(prep.pair[1, 0]) == [0.0, 1.0, 1.0, 1.0, 0.0, 0.0]


def _scaler_ref(preps):
    """Means/stds over every depot and zone row and over every directed pair
    row but the self-pairs, gathered row by row."""
    xs = np.stack([p.nodes[0] for p in preps] + [row for p in preps for row in p.nodes[1:]])
    zs = np.stack([p.pair[src, j] for p in preps for src in range(p.n_zones + 1)
                   for j in range(p.n_zones) if src != j + 1])
    stds = [np.where(a.std(axis=0) < 1e-9, 1.0, a.std(axis=0)) for a in (xs, zs)]
    return xs.mean(axis=0), stds[0], zs.mean(axis=0), stds[1]


_EDGE_ZONE_IDS = {
    "single_zone": ["A-1.1A", "A-1.1A", "A-1.1A"],
    "single_stop": ["A-1.1A", "B-2.1C", "A-1.2B", "C-1.1A"],
    "single_zone_single_stop": ["B-6.2C"],
    "unparseable": ["X9", "B-6.2C", "zz", "B-6.2C", "A-1.1", "X9"],
    "lower_case": ["a-1.1a", "A-1.1A", "b-6.2c", "B-6.3A", "a-1.1a"],
}


@pytest.mark.parametrize("routes", [
    *[generate(SynthConfig(n_routes=6, zones_per_route=(1, 8), stops_per_zone=(1, 3),
                           behavior=b, seed=3)) for b in ("cluster_biased", "nearest_zone", "tsp")],
    [make_route(ids, route_id=name) for name, ids in _EDGE_ZONE_IDS.items()],
    # rows of 8 or more times, which numpy sums pairwise in 8 lanes
    generate(SynthConfig(n_routes=4, zones_per_route=(9, 15), stops_per_zone=(1, 3), seed=4)),
], ids=["cluster_biased", "nearest_zone", "tsp", "edge", "9_to_15_zones"])
def test_prepared_tensors_match_per_node_and_per_pair_references(routes):
    preps = [prepare_route(r) for r in routes]
    for p in preps:
        assert np.array_equal(p.zinst.zone_travel_time, zone_travel_time_ref(p.route, p.zinst.zones))
        ref = node_features_ref(p.route, p.zinst)
        assert np.array_equal(p.nodes[0], ref[0])
        assert np.array_equal(p.nodes[1:], ref[1:])
        assert np.array_equal(p.pair, pair_tensor_ref(p.zinst))
    sc = fit_scaler(preps)
    for got, want in zip((sc.x_mean, sc.x_std, sc.z_mean, sc.z_std), _scaler_ref(preps)):
        assert np.array_equal(got, want)


def test_random_input_order_stable():
    assert random_input_order("R1", 6, 3) == random_input_order("R1", 6, 3)
    orders = {random_input_order(f"R{i}", 6, 3) for i in range(20)}
    assert len(orders) > 1


def test_planned_reading_order_and_unknown_modes_are_config_errors():
    prep = _prep()
    params = _model("pairwise", prep)
    assert scale_route(prep, params).order == prep.tsp_order
    with pytest.raises(ConfigError):
        ModelConfig("pairwise", input_order_mode="sorted")
    # a config replaced after init_model is checked too, not read at random
    with pytest.raises(ConfigError):
        replace(params.config, input_order_mode="sorted")


def test_encode_single_zone():
    prep = _prep(zone_ids=("A-1.1A",))
    params = _model("pairwise", prep)
    sc = scale_route(prep, params)
    keys, state, _ = encode(params, sc)
    assert np.asarray(keys).shape == (1, 8)
    assert np.asarray(state.h).shape == (8,)


def test_encode_zero_params_gives_zero_outputs():
    prep = _prep()
    params = _zeroed(_model("pairwise", prep))
    sc = scale_route(prep, params)
    keys, *_ = encode(params, sc)
    for e in np.asarray(keys):
        assert np.all(e == 0.0)


def test_encode_is_order_sensitive():
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    params = _model("pairwise", prep, seed=5)
    sc1 = scale_route(prep, params)
    sc2 = scale_route(prep, _reading_at_random(params, 99))
    assert tuple(sc1.order) != tuple(sc2.order)
    e1 = np.asarray(encode(params, sc1)[0])
    e2 = np.asarray(encode(params, sc2)[0])
    assert not np.allclose(e1, e2)


def test_encode_asnn_keys_are_scaled_features():
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    params = _model("asnn", prep, seed=5)
    sc = scale_route(prep, _reading_at_random(params, 99))
    keys, state, _ = encode(params, sc)
    assert state is None
    assert np.array_equal(keys, params.scaler.transform_x(prep.nodes[1:][list(sc.order)]))


def test_pair_attention_uniform_for_zero_params():
    prep = _prep()
    params = _zeroed(_model("pairwise", prep))
    sc = scale_route(prep, params)
    d = np.zeros(8)
    enc_matrix = np.zeros((3, 8))
    a = softmax(_depot_scores(params, sc, d, enc_matrix))
    assert np.allclose(a, 1.0 / 3.0)


def test_pair_attention_single_zone():
    prep = _prep(zone_ids=("A-1.1A",))
    params = _model("pairwise", prep)
    sc = scale_route(prep, params)
    a = softmax(_depot_scores(params, sc, np.zeros(8), np.zeros((1, 8))))
    assert np.allclose(a, [1.0])


def test_pair_attention_hand_built_ranks_by_travel_time():
    # single-layer head that copies the (unscaled) travel-time input, with a
    # decoder-output query (pairwise) and with a zone-feature query (asnn)
    times = np.array([
        [0.0, 10.0, 50.0],
        [5.0, 0.0, 7.0],
        [6.0, 8.0, 0.0],
    ])
    prep = _prep(zone_ids=("A-1.1A", "B-1.1A"), times=times)
    zb = prep.zinst.zone_index("B-1.1A")
    za = prep.zinst.zone_index("A-1.1A")
    for variant, key_dim in (("pairwise", 8), ("asnn", 12)):
        params = _model(variant, prep, scaler=identity_scaler())
        w = np.zeros((1, 6 + 2 * key_dim))
        w[0, 0] = 1.0
        params.asnn = MlpParams([MlpLayer(w, None)])
        sc = scale_route(prep, _reading_at_random(params, 1))
        assert sc.order == (zb, za)  # positions differ from zone indices
        if variant == "pairwise":
            query, keys = np.zeros(8), np.zeros((2, 8))
        else:
            query, keys = sc.nodes[0], sc.nodes[1:]
        a = softmax(_depot_scores(params, sc, query, keys))[sc.pos_of_zone]
        # depot -> zone B costs 50 vs 10 for zone A, so B gets the attention
        assert a[zb] > a[za], variant
        assert a[zb] == pytest.approx(math.exp(50) / (math.exp(50) + math.exp(10)), rel=1e-12)


def test_pair_scores_match_the_mlp_reference_over_joined_rows():
    # every source node's step of routes of 1, 2, 5 and 15 zones, against the
    # plain-loop MLP over the rows [pair; query; key]; the query is a
    # decoder output (pairwise) or the source's features (asnn)
    zone_ids = [f"{a}-{k}.1A" for a in "AB" for k in range(1, 9)]
    for n in (1, 2, 5, 15):
        prep = _prep(zone_ids=zone_ids[:n])
        for variant in ("pairwise", "asnn"):
            params = _model(variant, prep, seed=n)
            sc = scale_route(prep, params)
            keys, *_ = encode(params, sc)
            terms = _pair_terms(params, sc, keys)
            layers = [(l.w, np.zeros(1) if l.b is None else l.b) for l in params.asnn.layers]
            rng = np.random.default_rng(n)
            for src in range(n + 1):
                d = rng.uniform(-1.0, 1.0, size=8) if variant == "pairwise" else sc.nodes[src]
                ref = [mlp_ref(np.concatenate([sc.pair[src, j], d, keys[j]]), layers)[0]
                       for j in range(n)]
                got = _scores(params, sc, src, d, keys, terms, _rows(params, keys))
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=variant)


def test_pair_mlp_has_no_output_bias():
    # the softmax ignores a shift shared by every score, so an output bias
    # of the pair MLP would get zero gradient
    prep = _prep()
    for variant in ("pairwise", "asnn"):
        params = _model(variant, prep)
        last = len(params.asnn.layers) - 1
        names = model_tensors(params)
        assert params.asnn.layers[last].b is None
        assert f"asnn.{last}.w" in names and f"asnn.{last}.b" not in names, variant
        assert all(f"asnn.{k}.b" in names for k in range(last)), variant
        assert f"asnn.{last}.b" not in checkpoint_tensors(params), variant


def test_asnn_does_not_depend_on_input_order():
    # asnn has no recurrence, so the reading order only relabels its
    # candidates; a mix-up of zone indices and input positions breaks this
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C", "C-1.1A"))
    params = _model("asnn", prep, seed=8)
    by_tsp = scale_route(prep, params)
    by_random = scale_route(prep, _reading_at_random(params, 99))
    assert by_tsp.order != by_random.order
    l_tsp, t_tsp = forward_logprob(params, by_tsp)
    l_random, t_random = forward_logprob(params, by_random)
    assert float(l_tsp) == pytest.approx(float(l_random), rel=0, abs=1e-12)
    for a, b in zip(t_tsp, t_random, strict=True):
        assert a.chosen == b.chosen
        np.testing.assert_allclose(a.attention, b.attention, rtol=0, atol=1e-12)


def test_pointer_attention_uniform_when_w1_w4_zero():
    prep = _prep()
    params = _model("pointer", prep, seed=3)
    params.pointer.w1[...] = 0.0
    params.pointer.w4[...] = 0.0
    sc = scale_route(prep, params)
    keys, state, _ = encode(params, sc)
    a = softmax(_depot_scores(params, sc, state.h, keys))
    assert np.allclose(a, 1.0 / 3.0)


def test_pointer_attention_w4_sign_controls_ranking():
    times = np.array([
        [0.0, 10.0, 50.0],
        [5.0, 0.0, 7.0],
        [6.0, 8.0, 0.0],
    ])
    prep = _prep(zone_ids=("A-1.1A", "B-1.1A"), times=times)
    params = _model("pointer", prep, scaler=identity_scaler())
    params.pointer.w1[...] = 0.0
    params.pointer.w4[...] = 0.0
    params.pointer.w4[0] = 1.0
    sc = scale_route(prep, params)
    a = softmax(_depot_scores(params, sc, np.zeros(8), np.zeros((2, 8))))[sc.pos_of_zone]
    zb = prep.zinst.zone_index("B-1.1A")
    za = prep.zinst.zone_index("A-1.1A")
    assert a[zb] > a[za]
    params.pointer.w4[0] = -1.0
    a = softmax(_depot_scores(params, sc, np.zeros(8), np.zeros((2, 8))))[sc.pos_of_zone]
    assert a[za] > a[zb]


def test_pointer_attention_saturation_stays_finite():
    prep = _prep()
    params = _model("pointer", prep, seed=3)
    params.pointer.w2 *= 1e6
    params.pointer.w3 *= 1e6
    sc = scale_route(prep, params)
    keys, state, _ = encode(params, sc)
    a = softmax(_depot_scores(params, sc, state.h, keys))
    assert np.all(np.isfinite(np.asarray(a)))


def test_decode_step_zero_params():
    prep = _prep()
    params = _zeroed(_model("pairwise", prep))
    sc = scale_route(prep, params)
    step = decode_step(params, sc.nodes[0], np.zeros(8), zero_state(8),
                       (np.empty(params.decoder.w.shape[1]), np.empty((7, 8))))
    assert np.all(step.h == 0.0) and np.all(step.c == 0.0)


def test_decode_step_state_matters():
    prep = _prep()
    params = _model("pairwise", prep, seed=9)
    sc = scale_route(prep, params)
    s0 = zero_state(8)
    s1 = LstmState(np.ones(8), np.ones(8))
    d0 = decode_step(params, sc.nodes[0], np.zeros(8), s0,
                     (np.empty(params.decoder.w.shape[1]), np.empty((7, 8)))).h
    d1 = decode_step(params, sc.nodes[0], np.zeros(8), s1,
                     (np.empty(params.decoder.w.shape[1]), np.empty((7, 8)))).h
    assert not np.allclose(d0, d1)


def test_forward_logprob_single_zone_zero_loss():
    prep = _prep(zone_ids=("A-1.1A",))
    for variant in ("pairwise", "pointer", "asnn"):
        params = _model(variant, prep, seed=2)
        sc = scale_route(prep, params)
        loss, traces = forward_logprob(params, sc)
        assert float(loss) == pytest.approx(0.0, abs=1e-12)
        assert len(traces) == 1


def test_forward_logprob_uniform_loss_is_n_ln_n():
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    # Uniform scores over n = 4 zones.  Step i normalizes over the n - i
    # zones not yet visited, so it costs ln(n - i) and the total is
    # ln 4 + ln 3 + ln 2 + ln 1 = ln 24 (not n ln n, which an unmasked
    # softmax over all four zones at every step would give).
    expected = math.log(24)
    pairwise = _zeroed(_model("pairwise", prep))
    sc = scale_route(prep, pairwise)
    loss, traces = forward_logprob(pairwise, sc)
    assert float(loss) == pytest.approx(expected, rel=1e-12)
    visited = set()
    for i, t in enumerate(traces):
        for z in range(4):
            if z in visited:
                assert t.attention[z] == 0.0
            else:
                assert t.attention[z] == pytest.approx(1.0 / (4 - i), rel=1e-12)
        visited.add(t.chosen)
    pointer = _model("pointer", prep, seed=1)
    pointer.pointer.w1[...] = 0.0
    pointer.pointer.w4[...] = 0.0
    loss, _ = forward_logprob(pointer, scale_route(prep, pointer))
    assert float(loss) == pytest.approx(expected, rel=1e-12)


def test_forward_logprob_deterministic():
    prep = _prep()
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        params = _model(variant, prep, seed=4)
        sc = scale_route(prep, params)
        l1, _ = forward_logprob(params, sc)
        l2, _ = forward_logprob(params, sc)
        assert float(l1) == float(l2)


def test_taped_forward_node_counts(monkeypatch):
    # Backward passes that one forward records: one on its tape for a route
    # of 15 zones or of 2, the decoder's, whose pass runs the encoder's and
    # the key term's too, whatever the variant; none for a one-zone route,
    # whose loss depends on no parameter, and none on any tape without one.
    recorded = []
    record = Tape.record
    monkeypatch.setattr(Tape, "record", lambda tape, backward: (recorded.append(backward),
                                                                record(tape, backward)))
    ids = [f"{a}-{k}.1A" for a in "AB" for k in range(1, 9)]
    for n, want in ((15, 1), (2, 1), (1, 0)):
        prep = _prep(zone_ids=ids[:n])
        for variant in VARIANTS:
            params = _model(variant, prep)
            sc = scale_route(prep, params)
            tape = Tape()
            forward_logprob(params, sc, tape)
            assert len(tape._nodes) == want, (n, variant)
            forward_logprob(params, sc)
            assert len(recorded) == want, (n, variant)
            recorded.clear()


_ZONE_IDS = ("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C", "C-1.1A")
_TINY = dict(hidden=3, asnn_hidden=(4,), att_dim=4)


def _fd_check(params, loss_of, grads):
    """Every entry of every tensor of ``params``: central difference of
    ``loss_of()`` against ``grads``."""
    for name, arr in model_tensors(params).items():
        for idx in range(arr.size):
            fd = finite_difference(loss_of, arr, idx)
            an = grads[name].ravel()[idx]
            assert grad_close(fd, an), f"{name}[{idx}] fd={fd} an={an}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_decoder_op_gradients_match_central_differences(variant):
    # Routes of 1 zone (no scored step: a 0 loss, no pass recorded), 2
    # zones (one scored step) and 5 zones, driven in an order that is not
    # the reading order; every tensor entry against its central difference.
    for n, actual in ((1, None), (2, [1, 0]), (5, [3, 0, 4, 1, 2])):
        prep = _prep(zone_ids=_ZONE_IDS[:n], actual=actual)
        params = _model(variant, prep, seed=n, **_TINY)
        sc = scale_route(prep, params)
        tape = Tape()
        loss, _ = forward_logprob(params, sc, tape)
        if n == 1:
            assert not tape._nodes and float(loss) == 0.0
            continue
        tape.backward()
        _fd_check(params, lambda: float(forward_logprob(params, sc)[0]),
                  tape.gradients(model_tensors(params)))


@pytest.mark.parametrize("kz", [3, 7])
def test_decoder_op_gradients_with_lstm_ed_head_narrower_and_wider(kz):
    # A head of 3 slots on a 5-zone route scores only while two of its
    # slots are unvisited; one of 7 masks its last two slots at every step.
    # The stacked probabilities of a fixed rollout, reduced by fixed
    # weights, whose gradient the decoder's backward pass takes, against
    # central differences.
    prep = _prep(zone_ids=_ZONE_IDS, actual=[3, 0, 4, 1, 2])
    params = _model("lstm_ed", prep, seed=4, kz=kz, **_TINY)
    sc = scale_route(prep, params)
    order = [sc.order[pos] for pos in (2, 0, 4, 1, 3)]  # zones, by input position
    weights = np.random.default_rng(kz).normal(size=(4, kz))

    def reduced():
        start = first_step(params, sc)
        traces, steps = decode(params, sc, start, order)
        probs = np.stack([step[0] for step in traces.steps[:len(steps)]])
        return start, probs, steps, weights[:len(probs)]

    start, probs, steps, w = reduced()
    assert len(probs) == (2 if kz == 3 else 4)
    tape = Tape()
    _decode_backward(params, sc, start[0], steps, probs, w, tape.grads)

    def loss_of():
        _, p, _, w = reduced()
        return float(np.sum(p * w))

    _fd_check(params, loss_of, tape.gradients(model_tensors(params)))


def test_target_below_the_nll_clamp_gets_zero_gradient():
    # Two zones, one scored step whose target gets probability e^-40: its
    # term is clamped at -ln(1e-12) and passes no gradient, so every
    # parameter's gradient is 0.
    times = np.array([[0.0, 10.0, 50.0], [5.0, 0.0, 7.0], [6.0, 8.0, 0.0]])
    prep = _prep(zone_ids=("A-1.1A", "B-1.1A"), times=times, actual=[0, 1])
    params = _model("pointer", prep, scaler=identity_scaler())
    params.pointer.w1[...] = 0.0
    params.pointer.w4[...] = 0.0
    params.pointer.w4[0] = 1.0
    sc = scale_route(prep, params)
    tape = Tape()
    loss, traces = forward_logprob(params, sc, tape)
    assert traces[0].attention[prep.targets[0]] < 1e-12
    assert float(loss) == -math.log(1e-12)
    tape.backward()
    assert all(np.all(g == 0.0) for g in tape.gradients(model_tensors(params)).values())


@pytest.mark.parametrize("variant", VARIANTS)
def test_taped_and_plain_decoding_give_the_same_bytes(variant):
    # The decoder runs every step on plain arrays whether it records or not:
    # the same probabilities, contexts, picks and loss, byte for byte.
    prep = _prep(zone_ids=_ZONE_IDS, actual=[3, 0, 4, 1, 2])
    params = _model(variant, prep, seed=6)
    sc = scale_route(prep, params)
    plain_loss, plain = forward_logprob(params, sc)
    tape = Tape()
    taped_loss, taped = forward_logprob(params, sc, tape)
    assert float(taped_loss).hex() == float(plain_loss).hex()
    for a, b in zip(plain, taped, strict=True):
        assert a.chosen == b.chosen and a.attention.tobytes() == b.attention.tobytes()
        contexts = [b"-" if t.context is None else t.context.tobytes() for t in (a, b)]
        assert contexts[0] == contexts[1]


def test_forward_logprob_attention_sums_to_one():
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    for variant in ("pairwise", "pointer", "asnn"):
        params = _model(variant, prep, seed=8)
        sc = scale_route(prep, params)
        _, traces = forward_logprob(params, sc)
        for t in traces:
            assert abs(t.attention.sum() - 1.0) < 1e-9


def test_forward_logprob_training_sanity_loss_decreases():
    # 50 optimizer steps on one fixed route must reduce the loss
    from routeseq.kernel import adam_init, adam_step

    prep = _prep()
    params = _model("pairwise", prep, seed=6)
    sc = scale_route(prep, params)
    flat = flatten_model(params)
    named = model_tensors(params)
    opt = adam_init(named, lr=0.01)
    first = last = None
    for _ in range(50):
        tape = Tape(named)
        loss, _ = forward_logprob(params, sc, tape)
        tape.backward()
        tape.gradients(named)
        adam_step(flat, tape.grads.flat, opt)
        last = float(loss)
        first = first if first is not None else last
    assert last < first


def test_training_and_decoding_share_the_masked_softmax():
    # Regression test: teacher forcing once normalized over every zone,
    # visited ones included, while decoding picked among unvisited zones.
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    n = prep.n_zones
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        # lstm_ed gets head slots beyond the route's zones; they are masked too
        kz = {"kz": n + 2} if variant == "lstm_ed" else {}
        params = _model(variant, prep, seed=3, **kz)
        greedy = greedy_decode(params, prep)
        # a route whose driven order is this model's own greedy rollout
        forced = replace(prep, targets=tuple(greedy.zone_order))
        loss, traces = forward_logprob(params, scale_route(forced, params))
        for steps in (traces, greedy.traces):
            visited = set()
            for t in steps:
                assert t.attention.sum() == pytest.approx(1.0, abs=1e-12), variant
                assert all(t.attention[z] == 0.0 for z in visited), variant
                visited.add(t.chosen)
        last = traces[-1]
        assert last.attention[last.chosen] == 1.0  # -ln 1 = 0: the last step adds no loss
        assert float(loss) == pytest.approx(
            sum(-math.log(t.attention[t.chosen]) for t in traces[:-1]), rel=1e-12)
        for tf, gd in zip(traces, greedy.traces, strict=True):
            assert tf.chosen == gd.chosen
            assert np.array_equal(tf.attention, gd.attention), variant
            if variant in ("pairwise", "pointer"):
                assert np.array_equal(tf.context, gd.context), variant
            else:
                assert tf.context is None and gd.context is None
    cell = init_lstm(3, 4, np.random.default_rng(0))
    assert np.all(cell.b[:4] == 1.0)  # forget gate
    assert np.all(cell.b[4:] == 0.0)


def test_gradient_check_all_variants_small():
    cfgs = {"pairwise": {}, "pointer": {}, "lstm_ed": {}, "asnn": {}}
    prep = _prep()
    for variant in cfgs:
        params = _model(variant, prep, seed=13)
        sc = scale_route(prep, params)
        tape = Tape()
        loss, _ = forward_logprob(params, sc, tape)
        tape.backward()
        named = model_tensors(params)
        grads = tape.gradients(named)

        def loss_of():
            l, _ = forward_logprob(params, sc)
            return float(l)

        for name, arr in named.items():
            for idx in {0, arr.size - 1}:
                fd = finite_difference(loss_of, arr, idx)
                an = grads[name].ravel()[idx]
                assert grad_close(fd, an), f"{variant} {name}[{idx}] fd={fd} an={an}"


def test_lstm_ed_head_masks_positions_beyond_kz():
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    params = _model("lstm_ed", prep, kz=2)
    sc = scale_route(prep, params)
    by_zone = greedy_decode(params, prep).traces[0].attention
    assert by_zone.shape == (4,)
    assert by_zone.sum() == pytest.approx(1.0)
    beyond = [sc.order[k] for k in range(2, 4)]
    for z in beyond:
        assert by_zone[z] == 0.0


def test_checkpoint_roundtrip_all_variants(tmp_path):
    prep = _prep()
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        params = _model(variant, prep, seed=21)
        path = tmp_path / f"{variant}.ckpt"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.config == params.config
        for name, arr in model_tensors(params).items():
            assert np.array_equal(model_tensors(loaded)[name], arr), name
        sc = scale_route(prep, params)
        l1, _ = forward_logprob(params, sc)
        sc2 = scale_route(prep, loaded)
        l2, _ = forward_logprob(loaded, sc2)
        assert float(l1) == float(l2)


def test_per_gate_checkpoint_loads_into_stacked_gates():
    # checkpoints written before the LSTM gates were stacked hold each of an
    # LSTM's w, u and b as four tensors, encoder.w_f ... encoder.b_c
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    for variant in ("pairwise", "pointer", "lstm_ed"):
        params = _model(variant, prep, seed=21)
        per_gate = {}
        for name, arr in checkpoint_tensors(params).items():
            if name.startswith(("encoder.", "decoder.")):
                for gate, rows in zip("fioc", np.split(arr, 4)):
                    per_gate[f"{name}_{gate}"] = rows
            else:
                per_gate[name] = arr
        raw = serialize_checkpoint(per_gate, model_meta(params))
        loaded = params_from_checkpoint(*deserialize_checkpoint(raw))
        assert checkpoint_tensors(loaded).keys() == checkpoint_tensors(params).keys()
        for name, arr in checkpoint_tensors(params).items():
            assert np.array_equal(checkpoint_tensors(loaded)[name], arr), (variant, name)
        ours, theirs = greedy_decode(params, prep), greedy_decode(loaded, prep)
        assert ours.zone_order == theirs.zone_order
        for a, b in zip(ours.traces, theirs.traces, strict=True):
            assert np.array_equal(a.attention, b.attention), variant


def test_checkpoint_with_pair_mlp_output_bias_loads():
    # checkpoints written while the pair MLP had an output bias hold
    # asnn.<last>.b; the loader ignores it, and the shared shift it added to
    # every score changes no probability beyond round-off
    prep = _prep(zone_ids=("A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"))
    for variant in ("pairwise", "asnn"):
        params = _model(variant, prep, seed=21)
        params.asnn.layers[-1].b = np.array([0.75])
        old_file = checkpoint_tensors(params)
        assert f"asnn.{len(params.asnn.layers) - 1}.b" in old_file
        loaded = params_from_checkpoint(old_file, model_meta(params))
        assert loaded.asnn.layers[-1].b is None
        ours, theirs = greedy_decode(params, prep), greedy_decode(loaded, prep)
        assert ours.zone_order == theirs.zone_order, variant
        for a, b in zip(ours.traces, theirs.traces, strict=True):
            np.testing.assert_allclose(a.attention, b.attention, rtol=0, atol=1e-12)


def test_checkpoint_loader_names_what_is_malformed():
    prep = _prep()
    params = _model("pairwise", prep)
    meta = model_meta(params)
    tensors = checkpoint_tensors(params)
    del tensors["scaler.x_mean"]
    with pytest.raises(SchemaError) as err:
        params_from_checkpoint(tensors, meta)
    assert err.value.json_path == "tensors.scaler.x_mean"
    tensors = checkpoint_tensors(params)
    tensors["encoder.u"] = tensors["encoder.u"][:, :-1]
    with pytest.raises(SchemaError) as err:
        params_from_checkpoint(tensors, meta)
    assert err.value.json_path == "tensors.encoder.u"
    tensors = checkpoint_tensors(params)
    for gate, rows in zip("fioc", np.split(tensors.pop("decoder.b"), 4)):
        tensors[f"decoder.b_{gate}"] = rows
    tensors["decoder.b_o"] = tensors["decoder.b_o"][:-1]
    with pytest.raises(SchemaError) as err:
        params_from_checkpoint(tensors, meta)
    assert err.value.json_path == "tensors.decoder.b_o"
    for bad in ({"hidden": "abc"}, {"asnn_hidden": 5}, {"variant": "bogus"}):
        with pytest.raises(SchemaError):
            params_from_checkpoint(checkpoint_tensors(params), {**meta, **bad})
    # a head width on a variant without the lstm_ed head
    with pytest.raises(SchemaError) as err:
        params_from_checkpoint(checkpoint_tensors(params), {**meta, "kz": 3})
    assert err.value.json_path == "meta"


# One weight per variant that a bad value once went through unnoticed.
_WEIGHT_OF = {"pairwise": "asnn.1.w", "pointer": "pointer.w3", "lstm_ed": "fc.0.w",
              "asnn": "asnn.1.w"}


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_with_non_finite_or_unusable_values_is_rejected(variant):
    # A NaN weight once loaded and then decoded zones in index order, and a
    # zero scaler std passed through evaluation the same way; each bad value
    # is a SchemaError naming the tensor, a legacy per-gate one included.
    prep = _prep()
    params = _model(variant, prep)
    meta = model_meta(params)
    cases = [(_WEIGHT_OF[variant], np.nan), (_WEIGHT_OF[variant], np.inf),
             ("scaler.x_std", 0.0), ("scaler.z_std", -1.0)]
    for name, value in cases:
        tensors = {k: v.copy() for k, v in checkpoint_tensors(params).items()}
        tensors[name].flat[0] = value
        with pytest.raises(SchemaError) as err:
            params_from_checkpoint(tensors, meta)
        assert err.value.json_path == f"tensors.{name}", (name, value)
    if variant != "asnn":
        tensors = {k: v.copy() for k, v in checkpoint_tensors(params).items()}
        for gate, rows in zip("fioc", np.split(tensors.pop("encoder.w"), 4)):
            tensors[f"encoder.w_{gate}"] = rows
        tensors["encoder.w_o"][0, 0] = np.nan
        with pytest.raises(SchemaError) as err:
            params_from_checkpoint(tensors, meta)
        assert err.value.json_path == "tensors.encoder.w_o"
    assert params_from_checkpoint(checkpoint_tensors(params), meta).config == params.config


def test_init_model_validation():
    with pytest.raises(ConfigError):
        init_model(ModelConfig("bogus"), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        init_model(ModelConfig("lstm_ed"), np.random.default_rng(0))  # kz missing
    for variant in ("pairwise", "pointer", "asnn"):  # kz is the lstm_ed head width
        with pytest.raises(ConfigError):
            init_model(ModelConfig(variant, kz=3), np.random.default_rng(0))
    # Layer widths are integers of at least 1, and the order seed an integer;
    # a pair MLP with no hidden layer stays valid.
    for variant, bad in (("pairwise", {"hidden": 0}), ("pairwise", {"hidden": True}),
                         ("pairwise", {"hidden": 8.0}), ("pointer", {"att_dim": 0}),
                         ("asnn", {"asnn_hidden": (16, False)}), ("lstm_ed", {"kz": 0}),
                         ("lstm_ed", {"kz": True}), ("pairwise", {"order_seed": 1.0}),
                         ("asnn", {"asnn_hidden": 5})):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ModelConfig(variant, **{"kz": 3 if variant == "lstm_ed" else None, **bad})
    assert init_model(ModelConfig("asnn", asnn_hidden=()), np.random.default_rng(0)).asnn


def test_mlp_reference_on_asnn_shape(rng):
    # duplicate-implementation oracle on the attention head's exact shape
    from routeseq.kernel import init_mlp, mlp_values

    p = init_mlp((70, 128, 128, 1), rng)
    for layer in p.layers:
        layer.b = rng.normal(size=layer.b.shape)
    x = rng.normal(size=70)
    out = [np.empty(l.w.shape[0]) for l in p.layers[:-1]]
    assert np.allclose(mlp_values(x, p.layers, out)[0], mlp_ref(x, [(l.w, l.b) for l in p.layers]),
                       atol=1e-12)
    # the pair MLP's output layer has no bias: same as a zero one
    ref = mlp_ref(x, [(l.w, l.b) for l in p.layers[:-1]] + [(p.layers[-1].w, np.zeros(1))])
    p.layers[-1].b = None
    assert np.allclose(mlp_values(x, p.layers, out)[0], ref, atol=1e-12)

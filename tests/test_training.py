import math

import numpy as np
import pytest

from conftest import make_route
from oracles import train_ref
from routeseq import datagen, predictor, training
from routeseq.errors import ConfigError, InvalidInputError, TrainingDivergedError
from routeseq.kernel import Grads, MlpLayer, Tape, checkpoint_id, serialize_checkpoint
from routeseq.predictor import (
    checkpoint_tensors,
    forward_logprob,
    load_model,
    model_meta,
    prepare_route,
    save_model,
    scale_route,
)
from routeseq.training import TrainConfig, split_dataset, train


def _routes(n=8, seed=0, behavior="cluster_biased"):
    return datagen.generate(datagen.SynthConfig(
        n_routes=n, zones_per_route=(3, 4), stops_per_zone=(2, 3),
        behavior=behavior, seed=seed))


def test_split_8_2():
    train_set, test_set = split_dataset(list(range(10)), (0.8, 0.2), seed=1)
    assert len(train_set) == 8 and len(test_set) == 2
    assert sorted(train_set + test_set) == list(range(10))


def test_split_deterministic():
    a = split_dataset(list(range(30)), seed=5)
    b = split_dataset(list(range(30)), seed=5)
    assert a == b


def test_split_seed_changes_split():
    a = split_dataset(list(range(100)), seed=1)
    b = split_dataset(list(range(100)), seed=2)
    assert a != b


def test_split_validation():
    with pytest.raises(InvalidInputError):
        split_dataset([1], (0.8, 0.2))
    with pytest.raises(InvalidInputError):
        split_dataset(list(range(10)), (0.7, 0.2))
    with pytest.raises(InvalidInputError):
        split_dataset(list(range(3)), (0.99, 0.01))
    for seed in (-1, 1.5):
        with pytest.raises(InvalidInputError):
            split_dataset(list(range(10)), (0.8, 0.2), seed=seed)
    with pytest.raises(InvalidInputError):  # sums to 1, but is not a pair
        split_dataset(list(range(10)), (0.5, 0.3, 0.2))
    with pytest.raises(InvalidInputError):
        split_dataset(list(range(10)), (1.0,))
    for fractions in (("a", "b"), (0.8, None), 0.8):  # once a bare TypeError
        with pytest.raises(InvalidInputError):
            split_dataset(list(range(10)), fractions)


def test_epochs_must_be_positive():
    for epochs in (0, 1.5, True):  # a count: 1.5 once failed in range, True trained 1 epoch
        with pytest.raises(InvalidInputError):
            train(_routes(2), TrainConfig(epochs=epochs))


def test_seed_must_be_non_negative():
    with pytest.raises(InvalidInputError):
        train(_routes(2), TrainConfig(epochs=1, seed=-1))


@pytest.mark.parametrize("bad", [
    {"lr": 0.0}, {"lr": -0.01}, {"lr": math.nan}, {"lr": math.inf},
    {"grad_clip": 0.0}, {"grad_clip": -1.0}, {"grad_clip": math.nan}, {"grad_clip": math.inf},
    {"lr": "x"}, {"lr": True}, {"grad_clip": True}, {"lr": None},
])
def test_learning_rate_and_clip_norm_must_be_finite_and_positive(bad):
    # a negative step climbs the loss, a zero one or a zero clip norm never
    # moves it, and a NaN clip norm would silently disable clipping
    with pytest.raises(InvalidInputError):
        train(_routes(2), TrainConfig(epochs=1, **bad))


def test_empty_training_set_rejected():
    with pytest.raises(InvalidInputError):
        train([], TrainConfig(epochs=1))


@pytest.mark.parametrize("bad", [{"hidden": 0}, {"hidden": -1}, {"asnn_hidden": (0,)},
                                 {"variant": "pointer", "att_dim": 0}, {"asnn_hidden": 5}])
def test_a_layer_width_below_one_is_a_config_error(bad):
    # It once failed in init_model's rng.uniform: an untyped OverflowError
    # after a divide-by-zero warning, or numpy's bare ValueError.
    with pytest.raises(ConfigError):
        train(_routes(2), TrainConfig(epochs=1, **bad))


def test_overfits_single_route():
    # a single 3-zone route, 200 epochs: the loss collapses
    route = make_route(["A-1.1A", "A-2.1B", "B-1.1A"])
    config = TrainConfig(variant="pairwise", epochs=200, lr=0.01, seed=0,
                         hidden=8, asnn_hidden=(16, 16))
    params, report = train([route], config)
    assert report.epoch_losses[-1] < 0.05 * report.epoch_losses[0]


def test_loss_trend_on_small_set():
    routes = _routes(n=50, seed=4)
    config = TrainConfig(variant="pairwise", epochs=5, seed=1,
                         hidden=8, asnn_hidden=(16, 16))
    _, report = train(routes, config)
    losses = report.epoch_losses
    upticks = sum(1 for a, b in zip(losses, losses[1:]) if b > a * 1.05)
    assert upticks <= 1
    assert losses[-1] < losses[0]


def test_bitwise_identical_checkpoints():
    routes = _routes(n=5, seed=2)
    config = TrainConfig(variant="pointer", epochs=2, seed=7, hidden=8, asnn_hidden=(16, 16))
    from routeseq.kernel import serialize_checkpoint
    from routeseq.predictor import checkpoint_tensors, model_meta

    p1, r1 = train(routes, config)
    p2, r2 = train(routes, config)
    raw1 = serialize_checkpoint(checkpoint_tensors(p1), model_meta(p1))
    raw2 = serialize_checkpoint(checkpoint_tensors(p2), model_meta(p2))
    assert raw1 == raw2
    assert r1.checkpoint_id == r2.checkpoint_id
    assert r1.epoch_losses == r2.epoch_losses


def test_nan_loss_aborts_with_route_and_epoch(monkeypatch):
    routes = _routes(n=2, seed=3)

    def bad_forward(params, scaled, tape):
        return np.asarray(np.nan), []

    monkeypatch.setattr(training, "forward_logprob", bad_forward)
    with pytest.raises(TrainingDivergedError) as err:
        train(routes, TrainConfig(epochs=1, hidden=8, asnn_hidden=(16, 16)))
    assert "epoch 1" in str(err.value)
    assert "R0000" in str(err.value)


def test_one_tape_per_call_and_no_trace_built_in_training(monkeypatch):
    # A train call records every step on one tape, runs its backward passes
    # once per step, one per route here, and reads no trace, so it builds
    # none; a taped forward's traces are built when read, with the bytes of
    # the plain forward's.
    built = {"tape": 0, "trace": 0, "backward": 0, "passes": 0}

    class CountedTape(Tape):
        def __init__(self, *args):
            built["tape"] += 1
            super().__init__(*args)

        def backward(self):
            built["backward"] += 1
            built["passes"] += len(self._nodes)
            super().backward()

    def counted_trace(*args, trace=predictor.DecoderStepTrace):
        built["trace"] += 1
        return trace(*args)

    monkeypatch.setattr(training, "Tape", CountedTape)
    monkeypatch.setattr(predictor, "DecoderStepTrace", counted_trace)
    routes = _routes(n=3, seed=4)
    params, report = train(routes, TrainConfig(epochs=2, hidden=8, asnn_hidden=(16, 16)))
    assert built == {"tape": 1, "trace": 0, "backward": 6, "passes": 6}
    assert len(report.epoch_losses) == 2

    sc = scale_route(prepare_route(routes[0]), params)
    _, plain = forward_logprob(params, sc)
    tape = Tape()
    _, taped = forward_logprob(params, sc, tape)
    assert built["trace"] == 0
    for a, b in zip(plain, taped, strict=True):
        assert a.step == b.step and a.chosen == b.chosen
        assert a.attention.tobytes() == b.attention.tobytes()
        assert a.context.tobytes() == b.context.tobytes()
    assert built["trace"] == 2 * sc.prep.n_zones


@pytest.mark.parametrize("variant", predictor.VARIANTS)
def test_flat_training_state_matches_the_per_tensor_loop(variant):
    # training.train keeps the model, its gradients and Adam's moments in
    # flat buffers; train_ref keeps every tensor apart, as a new array per
    # gradient, and steps Adam tensor by tensor.  A one-zone route (a step
    # whose every gradient is 0) is in the set.
    routes = [*_routes(n=4, seed=5), make_route(["A-1.1A"] * 3)]
    for clip in (None, 1.0):
        config = TrainConfig(variant=variant, epochs=3, lr=0.01, seed=2, hidden=6,
                             asnn_hidden=(8, 8), att_dim=5, grad_clip=clip)
        params, report = train(routes, config)
        ref, losses = train_ref(routes, config)
        assert [v.hex() for v in report.epoch_losses] == [v.hex() for v in losses], clip
        assert (serialize_checkpoint(checkpoint_tensors(params), model_meta(params))
                == serialize_checkpoint(checkpoint_tensors(ref), model_meta(ref))), clip


def test_a_negative_zero_first_gradient_block_keeps_its_sign():
    # A tensor's first gradient block of its full shape is written into its
    # view of the tape's flat buffer, not added to zeros, which would turn
    # -0.0 into +0.0.  numpy's sums and BLAS products start from +0.0, so no
    # block that the model hands over is -0.0; the pin sets one sum block to
    # -0.0 by hand.
    layer = MlpLayer(np.ones((2, 2)), np.ones(2))
    named = {"w": layer.w, "b": layer.b}
    tape = Tape(named)
    tape.grads.flat[:] = np.nan  # what an earlier step left behind
    grads = Grads()
    grads.add(layer.b, np.zeros(2))
    grads._sums[id(layer.b)][1][:] = [-0.0, -1.0]
    grads.outer(layer.w, np.array([[0.5, -1.0]]), np.array([[2.0, 3.0]]))
    grads.hand(tape.grads)
    g = tape.gradients(named)
    assert np.shares_memory(g["b"], tape.grads.flat) and np.shares_memory(g["w"], tape.grads.flat)
    assert tape.grads.flat.tobytes() == np.array([1.0, 1.5, -2.0, -3.0, -0.0, -1.0]).tobytes()


def test_checkpoint_file_written_and_loadable(tmp_path):
    routes = _routes(n=4, seed=9)
    path = tmp_path / "model.ckpt"
    config = TrainConfig(variant="lstm_ed", epochs=1, seed=3, hidden=8)
    params, report = train(routes, config)
    assert save_model(params, path) == report.checkpoint_id
    assert checkpoint_id(path.read_bytes()) == report.checkpoint_id
    loaded = load_model(path)
    assert loaded.config.variant == "lstm_ed"
    assert loaded.config.kz == params.config.kz
    from routeseq.predictor import prepare_route
    prep = prepare_route(routes[0])
    sc = scale_route(prep, loaded)
    l1, _ = forward_logprob(loaded, sc)
    l2, _ = forward_logprob(params, scale_route(prep, params))
    assert float(l1) == float(l2)


def test_grad_clip_trains():
    routes = _routes(n=3, seed=1)
    config = TrainConfig(epochs=2, grad_clip=10.0, hidden=8, asnn_hidden=(16, 16))
    _, report = train(routes, config)
    assert all(np.isfinite(v) for v in report.epoch_losses)


def test_random_input_order_trains():
    routes = _routes(n=3, seed=1)
    config = TrainConfig(epochs=2, input_order="random", hidden=8, asnn_hidden=(16, 16))
    params, report = train(routes, config)
    assert params.config.input_order_mode == "random"
    assert all(np.isfinite(v) for v in report.epoch_losses)


def test_all_variants_train():
    routes = _routes(n=3, seed=6)
    for variant in ("pairwise", "pointer", "lstm_ed", "asnn"):
        config = TrainConfig(variant=variant, epochs=1, hidden=8, asnn_hidden=(16, 16))
        params, report = train(routes, config)
        assert params.config.variant == variant
        assert len(report.epoch_losses) == 1

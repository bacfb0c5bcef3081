import gc
import math
import warnings
import weakref
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest

from conftest import make_route
from oracles import finite_difference, grad_close, lstm_ref, mlp_ref
from routeseq.errors import InvalidInputError, NumericError, SchemaError
from routeseq.kernel import (
    Grads,
    LstmCellParams,
    LstmState,
    MlpLayer,
    MlpParams,
    Tape,
    adam_init,
    adam_step,
    clip_gradients,
    deserialize_checkpoint,
    flat_views,
    init_lstm,
    init_mlp,
    lstm_sequence,
    lstm_sequence_backward,
    lstm_step,
    map_tensors,
    mlp_backward,
    mlp_values,
    named_tensors,
    nll,
    pair_scores,
    pair_terms,
    serialize_checkpoint,
    softmax,
    zero_state,
)
from routeseq.kernel.autodiff import Gradients
from routeseq.kernel.layers import _sigmoid_np
from routeseq.predictor import (
    VARIANTS,
    ModelConfig,
    _decode_backward,
    decode,
    first_step,
    fit_scaler,
    forward_logprob,
    init_model,
    model_tensors,
    prepare_route,
    scale_route,
)


def _zero_lstm(input_dim, hidden):
    p = init_lstm(input_dim, hidden, np.random.default_rng(0))
    return map_tensors(p, lambda _, t: np.zeros_like(t))


# --- backward passes ---------------------------------------------------------
#
# Each case is an op over plain arrays that returns its output and its
# backward pass, ``backward(g, grads)``, which hands the gradients of the
# op's inputs, from the gradient ``g`` of its output, to ``grads`` (a
# ``Gradients``).

def _arrays(*shapes):
    """Input maker: entries of magnitude 0.2-1.5 with random signs, so no
    entry sits within a finite-difference step of 0."""
    def make(rng):
        return [np.array(rng.uniform(0.2, 1.5, size=s) * rng.choice([-1.0, 1.0], size=s))
                for s in shapes]
    return make


def _mlp_op(x, params):
    """The MLP over ``mlp_values`` on a vector or on rows, and its backward
    pass over ``mlp_backward``; a one-unit output layer over rows gives one
    score per row, as the pair scorer reads it."""
    a, ins = mlp_values(x, params.layers,
                        [np.empty((*x.shape[:-1], l.w.shape[0])) for l in params.layers[:-1]])
    m = len(x) if x.ndim == 2 else 1

    def backward(g, grads):
        acc = Grads()
        g_in = mlp_backward(params.layers, [v.reshape(m, -1) for v in ins], g.reshape(m, -1), acc)
        acc.add(x, g_in.reshape(x.shape))
        acc.hand(grads)

    return (a.reshape(-1) if x.ndim == 2 and a.shape[1] == 1 else a), backward


def mlp_forward(x, params):
    """The output of ``_mlp_op``."""
    return _mlp_op(x, params)[0]


# The encoder's cases read four rows of width 2 from a non-zero state.
_X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 2))
_START = LstmState(np.full(3, 0.3), np.full(3, -0.2))


def _lstm_sequence(w, u, b, outputs=True):
    """lstm_sequence over its plain forward and backward: a weighted sum of
    its output rows, then its final h and c.  Every weight is non-zero, or
    (``outputs=False``) every weight is 0, so the gradient comes through
    the final state alone, as ``lstm_ed`` reads it."""
    params = LstmCellParams(w, u, b)
    out, state, steps = lstm_sequence(_X, _START, params)
    mix = np.linspace(1.0, 2.0, len(_X)) * outputs
    n = len(state.h)

    def backward(g, grads):
        acc = Grads()
        lstm_sequence_backward(_X, _START, params, steps, np.outer(mix, g[:n]), g[n:2 * n],
                               g[2 * n:], acc)
        acc.hand(grads)

    return np.concatenate([mix @ out, state.h, state.c]), backward


def _mlp(x, *wb):
    """_mlp_op over layers (w0, b0, w1, b1, ...); an odd count leaves the
    output layer without bias."""
    return _mlp_op(x, MlpParams([MlpLayer(w, b) for w, b in zip_longest(wb[::2], wb[1::2])]))


def _nll(p):
    """``nll`` of three steps of ``p``, whose gradient rows make the
    backward pass."""
    loss, g_p = nll(p, [2, 0, 1])

    def backward(g, grads):
        grads[id(p)] = g * g_p

    return loss, backward


# The decoder's cases run on one 5-zone route, teacher-forced along a
# driven order that is not the reading order, with hidden width 3, a pair
# MLP of one hidden layer of 4 units (asnn_hidden=(4,)) and attention width 4.
_ROUTE = prepare_route(make_route(["A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C", "C-1.1A"],
                                  actual=[3, 0, 4, 1, 2]))

def _decoder(variant, tensors, kz=None, loss=False, asnn_hidden=(4,)):
    """The decoder over ``_ROUTE``, teacher-forced, for a seeded model of
    ``variant`` whose tensors named in ``tensors`` are replaced, with its
    backward pass, ``_decode_backward``: the scored steps' stacked
    probabilities, or with ``loss`` their ``nll``."""
    params = init_model(ModelConfig(variant, hidden=3, asnn_hidden=asnn_hidden, att_dim=4, kz=kz),
                        np.random.default_rng(0))
    params.scaler = fit_scaler([_ROUTE])
    params = replace(params, **{name: map_tensors(getattr(params, name),
                                                  lambda n, t: tensors.get(n, t), name)
                                for name in ("encoder", "decoder", "asnn", "pointer", "fc")})
    scaled = scale_route(_ROUTE, params)
    targets = _ROUTE.targets
    start = first_step(params, scaled)
    traces, steps = decode(params, scaled, start, targets)
    probs = np.stack([step[0] for step in traces.steps[:len(steps)]])

    def backward(g, grads):
        _decode_backward(params, scaled, start[0], steps, probs, g, grads)

    if not loss:
        return probs, backward
    value, g_probs = nll(probs, scaled.pos_of_zone[list(targets[:len(probs)])])
    return value, lambda g, grads: backward(g * g_probs, grads)


def _model(variant, names, loss=False, kz=None, asnn_hidden=(4,)):
    """A ``_decoder`` case whose inputs are the model's tensors ``names``."""
    return lambda *ts: _decoder(variant, dict(zip(names, ts)), kz, loss, asnn_hidden)


def _probs(rows, width):
    """Input maker: one (rows, width) matrix of probability rows."""
    return lambda rng: [rng.dirichlet(np.ones(width), size=rows)]


_ENCODER = ("encoder.w", "encoder.u", "encoder.b")
_LSTM = ("decoder.w", "decoder.u", "decoder.b")
_PAIR_MLP = ("asnn.0.w", "asnn.0.b", "asnn.1.w")

# name -> (op over the inputs, returning its output and backward pass, input
# maker, finite-difference step).  The decoder's cases are named after the
# parts of its backward pass that they single out.
OP_CASES = {
    # the decoder LSTM fed the last stop's features alone (lstm_ed), from
    # the encoder's final state, into the head: the encoder's gradients
    # come through its final state only
    "lstm_cell": (_model("lstm_ed", (*_ENCODER, *_LSTM, "fc.0.w", "fc.0.b"), kz=5),
                  _arrays((12, 12), (12, 3), (12,), (12, 12), (12, 3), (12,), (5, 3), (5,)),
                  1e-5),
    # the decoder's [last stop's features; context] input: the context's
    # gradient reaches the step before and the keys, and so the encoder
    "lstm_cell_two_blocks": (_model("pairwise", (*_ENCODER, *_LSTM)),
                             _arrays((12, 12), (12, 3), (12,), (12, 15), (12, 3), (12,)), 1e-5),
    # the encoder alone, from the gradients of its outputs and final state
    "lstm_sequence": (_lstm_sequence, _arrays((12, 2), (12, 3), (12,)), 1e-5),
    "lstm_sequence_final_state": (
        lambda *args: _lstm_sequence(*args, outputs=False),
        _arrays((12, 2), (12, 3), (12,)), 1e-5),
    # at this seed every hidden pre-activation of the MLP cases is >= 0.005 from the kink
    "mlp_vector": (_mlp, _arrays((3,), (4, 3), (4,), (2, 4), (2,)), 1e-5),
    "mlp_vector_no_out_bias": (_mlp, _arrays((3,), (4, 3), (4,), (2, 4)), 1e-5),
    "mlp_rows": (_mlp, _arrays((5, 3), (4, 3), (4,), (4, 4), (4,), (1, 4), (1,)), 1e-5),
    "mlp_rows_no_out_bias": (_mlp, _arrays((5, 3), (4, 3), (4,), (4, 4), (4,), (1, 4)), 1e-5),
    "mlp_rows_wide_out": (_mlp, _arrays((5, 3), (4, 3), (4,), (2, 4), (2,)), 1e-5),
    # the pair scorer at pairwise's widths, [pair rows; query; keys]: the
    # keys, the encoder's outputs, reach the key term, the context and
    # (through the decoder LSTM) the queries
    "pair_scores": (_model("pairwise", (*_ENCODER, *_PAIR_MLP)),
                    _arrays((12, 12), (12, 3), (12,), (4, 12), (4,), (1, 4)), 1e-5),
    # through nll: the candidates the mask leaves out get a score gradient
    # of exactly 0, which the scorer's backward skips
    "pair_scores_masked_nll": (
        _model("pairwise", (*_ENCODER, *_PAIR_MLP), loss=True),
        _arrays((12, 12), (12, 3), (12,), (4, 12), (4,), (1, 4)), 1e-5),
    # at asnn's widths: the queries and keys are constant node features
    "pair_scores_asnn_masked_nll": (_model("asnn", _PAIR_MLP, loss=True),
                                    _arrays((4, 30), (4,), (1, 4)), 1e-5),
    # a pair MLP of one layer scores with its first layer's sum
    "pair_scores_one_layer": (_model("pairwise", (*_ENCODER, "asnn.0.w"), asnn_hidden=()),
                              _arrays((12, 12), (12, 3), (12,), (1, 12)), 1e-5),
    "pointer_scores": (_model("pointer", (*_ENCODER, "pointer.w1", "pointer.w2", "pointer.w3",
                                          "pointer.w4")),
                       _arrays((12, 12), (12, 3), (12,), (4,), (4, 3), (4, 3), (6,)), 1e-5),
    # every head slot a zone's: step 0's softmax runs over all of them
    "softmax": (_model("lstm_ed", ("fc.0.w", "fc.0.b"), kz=5), _arrays((5, 3), (5,)), 1e-5),
    # a head wider than the route: its last two slots are masked at every step
    "softmax_masked": (_model("lstm_ed", ("fc.0.w", "fc.0.b"), kz=7), _arrays((7, 3), (7,)),
                       1e-5),
    # a step small enough that the perturbed probabilities still sum to 1
    # within nll's 1e-6 check
    "nll": (_nll, _probs(3, 5), 1e-7),
}


def _weights(rng, shape):
    """Random weights that reduce an output of ``shape`` to a scalar with
    ``_reduce``: a row and a column vector for a matrix, one vector for a
    vector, none for a scalar."""
    return [rng.normal(size=s) for s in shape]


def _reduce(out, weights):
    """``out`` as a scalar, ``a·(out b)`` for a matrix, ``out·w`` for a
    vector, a scalar as it is, and the gradient of that scalar by ``out``."""
    if len(weights) == 2:
        a, b = weights
        return a @ (out @ b), np.outer(a, b)
    return (out @ weights[0], weights[0]) if weights else (out, np.ones(()))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_central_difference(name):
    op, make, eps = OP_CASES[name]
    rng = np.random.default_rng(7)
    inputs = make(rng)
    out, backward = op(*inputs)
    w = _weights(rng, np.shape(out))

    def loss_fn():
        return float(_reduce(op(*inputs)[0], w)[0])

    grads = Gradients({})
    backward(_reduce(out, w)[1], grads)
    for k, x in enumerate(inputs):
        grad = grads[id(x)]
        assert grad.shape == x.shape
        for idx in range(x.size):
            fd = finite_difference(loss_fn, x, idx, eps)
            an = grad.ravel()[idx]
            assert grad_close(fd, an), f"input {k}[{idx}]: fd={fd} an={an}"


def test_finished_tape_is_freed_without_cyclic_gc():
    # One whole training step per variant: the taped forward of a route and
    # backward.  The recorded pass holds the tape's gradients, not the tape.
    prep = prepare_route(make_route(["A-1.1A", "A-2.1B", "B-1.1A", "B-2.2C"]))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for variant in VARIANTS:
            kz = prep.n_zones if variant == "lstm_ed" else None
            params = init_model(ModelConfig(variant, hidden=8, asnn_hidden=(16, 16), att_dim=8,
                                            kz=kz), np.random.default_rng(0))
            params.scaler = fit_scaler([prep])
            gc.collect()
            tape = Tape()
            loss, _ = forward_logprob(params, scale_route(prep, params), tape)
            tape.backward()
            tape_ref, value_ref = weakref.ref(tape), weakref.ref(loss)
            pass_ref = weakref.ref(tape._nodes[0])
            del tape, loss
            assert tape_ref() is None, variant
            assert value_ref() is None, variant
            assert pass_ref() is None, variant
            assert gc.collect() == 0, variant  # no cycle was left for the collector
    finally:
        if was_enabled:
            gc.enable()


def _lstm_cell(x, state, p):
    """One LSTM step of the cell ``p`` on plain arrays: (h, c)."""
    step = lstm_step(p.w, p.u, p.b, x, state.h, state.c, np.empty((7, len(state.h))))
    return step.h, step.c


def test_sigmoid_one_division_matches_the_two_branch_form():
    # one division of the selected numerator is elementwise the same IEEE
    # operation as the select of two divisions
    rng = np.random.default_rng(3)
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308])
    for k in range(2000):
        x = np.concatenate([rng.normal(scale=10.0 ** (k % 4), size=16), edges])
        e = np.exp(-np.abs(x))
        two_branch = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert _sigmoid_np(x, np.empty_like(x)).tobytes() == two_branch.tobytes()


# --- lstm --------------------------------------------------------------------

def test_lstm_sequence_is_a_loop_of_lstm_cell_bit_for_bit(rng):
    # the encoder against a loop of the decoder's plain step
    p = init_lstm(4, 6, rng)
    x = rng.normal(size=(7, 4))
    start = LstmState(rng.normal(size=6), rng.normal(size=6))
    state, outputs = start, []
    for row in x:
        state = LstmState(*_lstm_cell(row, state, p))
        outputs.append(state.h)
    keys, final, steps = lstm_sequence(x, start, p)
    assert np.array_equal(keys, np.stack(outputs))
    assert np.array_equal(final.h, state.h) and np.array_equal(final.c, state.c)
    assert steps.shape == (len(x), 7, 6) and np.array_equal(steps[:, 6], keys)
    assert np.array_equal(steps[-1, 4], final.c)


def test_lstm_zero_everything():
    p = _zero_lstm(3, 4)
    h, c = _lstm_cell(np.zeros(3), zero_state(4), p)
    assert np.all(h == 0.0)
    assert np.all(c == 0.0)


def test_lstm_saturation_matches_reference():
    # large weights force the gates to saturate; compare against the formulas
    rng = np.random.default_rng(5)
    p = init_lstm(2, 3, rng)
    p.w[:3] += 100.0   # forget gate
    p.b[3:6] -= 50.0   # input gate
    x = rng.normal(size=2)
    h0, c0 = rng.normal(size=3), rng.normal(size=3) + 5.0
    h, c = _lstm_cell(x, LstmState(h0.copy(), c0.copy()), p)
    h_ref, c_ref = lstm_ref(x, h0, c0, p)
    assert np.allclose(h, h_ref, atol=1e-14)
    assert np.allclose(c, c_ref, atol=1e-14)


def test_init_lstm_stacks_the_per_gate_draws():
    # one draw per stacked matrix consumes the random stream that one draw
    # per gate did: w_f, w_i, w_o, w_c, then u_f, u_i, u_o, u_c
    p = init_lstm(3, 4, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    w = [rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=(4, 3)) for _ in range(4)]
    u = [rng.uniform(-0.5, 0.5, size=(4, 4)) for _ in range(4)]
    assert np.array_equal(p.w, np.concatenate(w))
    assert np.array_equal(p.u, np.concatenate(u))


def test_lstm_output_bounded(rng):
    p = init_lstm(4, 6, rng)
    state = LstmState(rng.normal(size=6), rng.normal(size=6) * 10)
    h, _ = _lstm_cell(rng.normal(size=4), state, p)
    assert np.all(np.abs(h) <= 1.0)


def test_lstm_rejects_non_finite():
    p = _zero_lstm(2, 2)
    with pytest.raises(NumericError):
        lstm_sequence(np.array([[0.0, 0.0], [np.nan, 0.0]]), zero_state(2), p)


def test_lstm_gradients_every_parameter(rng):
    # d ||h'||^2 / d theta for every single component, one step of the
    # encoder's backward pass from a non-zero state
    p = init_lstm(3, 4, rng)
    x = rng.normal(size=(1, 3))
    start = LstmState(rng.normal(size=4), rng.normal(size=4))

    def loss_fn():
        _, state, _ = lstm_sequence(x, start, p)
        return float(np.sum(state.h ** 2))

    _, state, steps = lstm_sequence(x, start, p)
    grads = Grads()
    lstm_sequence_backward(x, start, p, steps, np.zeros((1, 4)), 2.0 * state.h, np.zeros(4), grads)
    tape = Tape()
    grads.hand(tape.grads)
    grads = tape.gradients(named_tensors(p, "p"))
    for name, arr in named_tensors(p, "p").items():
        g = grads[name]
        for idx in range(arr.size):
            fd = finite_difference(loss_fn, arr, idx)
            assert grad_close(fd, g.ravel()[idx]), f"{name}[{idx}]: fd={fd} an={g.ravel()[idx]}"


# --- mlp ---------------------------------------------------------------------

def test_mlp_zero_weights_returns_bias():
    p = MlpParams([MlpLayer(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))])
    assert np.allclose(mlp_forward(np.array([5.0, 6.0]), p), [1.0, 2.0, 3.0])


def test_mlp_identity_layer():
    p = MlpParams([MlpLayer(np.eye(4), np.zeros(4))])
    x = np.array([1.0, -2.0, 3.0, -4.0])
    assert np.allclose(mlp_forward(x, p), x)


def test_mlp_matches_reference(rng):
    p = init_mlp((2, 128, 128, 1), rng)
    x = rng.normal(size=2)
    got = mlp_forward(x, p)
    ref = mlp_ref(x, [(l.w, l.b) for l in p.layers])
    assert np.allclose(got, ref, atol=1e-12)


def test_mlp_batched_matches_vector(rng):
    p = init_mlp((5, 7, 1), rng)
    xs = rng.normal(size=(4, 5))
    batched = mlp_forward(xs, p)
    rows = np.concatenate([mlp_forward(x, p) for x in xs])
    assert batched.shape == (4,)  # a one-unit output layer gives one score per row
    assert np.allclose(batched, rows, atol=1e-14)


def test_pair_scores_add_the_route_terms_then_run_the_mlp(rng):
    # pair rows (4 sources x 3 keys x 2), keys and query of width 3
    p = init_mlp((8, 5, 1), rng)
    pair, keys, d, nodes = (rng.normal(size=s) for s in ((4, 3, 2), (3, 3), (3,), (4, 3)))
    w, b = p.layers[0].w, p.layers[0].b
    pair_term = (pair.reshape(12, 2) @ w[:, :2].T).reshape(4, 3, 5)[2]
    key_term = keys @ w[:, 5:].T + b
    rest = MlpParams(p.layers[1:])
    got = pair_scores(pair_terms(pair, keys, p), 2, d, [np.empty((3, 5))])
    assert np.array_equal(got, mlp_forward(np.maximum(pair_term + key_term + w[:, 2:5] @ d, 0.0),
                                           rest))
    got = pair_scores(pair_terms(pair, keys, p, nodes), 2, None,  # route-constant queries
                      [np.empty((3, 5))])
    query_term = (nodes @ w[:, 2:5].T)[2]
    assert np.array_equal(got, mlp_forward(np.maximum(pair_term + key_term + query_term, 0.0),
                                           rest))


def test_mlp_width_mismatch():
    # the pair scorer: 2 pair features, key width 3, so a query width of 3
    p = init_mlp((8, 4, 1), np.random.default_rng(0))
    pair, keys = np.zeros((3, 2, 2)), np.zeros((2, 3))
    with pytest.raises(InvalidInputError):
        pair_scores(pair_terms(pair, keys, p), 0, np.zeros(4), [np.empty((2, 4))])
    with pytest.raises(InvalidInputError):
        pair_terms(pair, keys, p, np.zeros((3, 2)))
    with pytest.raises(InvalidInputError):
        pair_terms(pair, np.zeros((2, 7)), p)


# --- softmax / cross-entropy (nll) ------------------------------------------------

def test_softmax_symmetric_pair():
    assert np.allclose(softmax(np.zeros(2)), [0.5, 0.5])


def test_softmax_closed_form():
    p = softmax(np.log(np.array([1.0, 3.0])))
    assert p[0] == pytest.approx(0.25, abs=1e-15)
    assert p[1] == pytest.approx(0.75, abs=1e-15)


def test_softmax_shift_invariance(rng):
    u = rng.normal(size=7)
    assert np.allclose(softmax(u), softmax(u + 123.45), atol=1e-12)


def test_softmax_sums_to_one_positive(rng):
    for _ in range(20):
        u = rng.normal(size=int(rng.integers(1, 12))) * 50
        p = softmax(u)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


def test_softmax_rejects_empty():
    with pytest.raises(InvalidInputError):
        softmax(np.zeros(0))


def test_masked_softmax(rng):
    u = rng.normal(size=5) * 30
    allowed = np.array([True, False, True, True, False])
    p = softmax(u, allowed)
    assert np.all(p[~allowed] == 0.0)
    assert np.allclose(p[allowed], softmax(u[allowed]), atol=1e-15)
    assert softmax(u, np.eye(5, dtype=bool)[2])[2] == 1.0
    with pytest.raises(InvalidInputError):
        softmax(u, np.zeros(5, dtype=bool))
    # Through the decoder op: an lstm_ed head wider than the route has slots
    # the mask leaves out at every step, and their head rows get gradient
    # exactly 0 (the "softmax_masked" case checks the rest against central
    # differences).
    w, b = rng.normal(size=(7, 3)), rng.normal(size=7)
    _, backward = _decoder("lstm_ed", {"fc.0.w": w, "fc.0.b": b}, kz=7, loss=True)
    grads = Gradients({})
    backward(1.0, grads)
    gw, gb = grads[id(w)], grads[id(b)]
    assert np.all(gw[5:] == 0.0) and np.all(gb[5:] == 0.0)
    assert np.all(gw[:5] != 0.0)


def test_cross_entropy_uniform():
    assert nll(np.full((1, 5), 0.2), [3])[0] == pytest.approx(math.log(5), abs=1e-12)
    two = np.array([[0.2] * 5, [0.5, 0.5, 0.0, 0.0, 0.0]])
    assert nll(two, [3, 0])[0] == pytest.approx(math.log(10), abs=1e-12)


def test_cross_entropy_certain():
    p = np.zeros((1, 4))
    p[0, 1] = 1.0
    assert nll(p, [1])[0] == 0.0
    assert nll(np.zeros((0, 4)), [])[0] == 0.0


def test_cross_entropy_clamp():
    p = np.array([[1.0 - 1e-15, 1e-15], [0.25, 0.75]])
    loss, g = nll(p[:1], [1])
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)
    assert np.array_equal(g, [[0.0, 0.0]])  # the clamped term passes no gradient
    assert np.array_equal(nll(p, [1, 0])[1], [[0.0, 0.0], [-4.0, 0.0]])


def test_cross_entropy_validation():
    with pytest.raises(InvalidInputError):
        nll(np.array([[0.9, 0.2]]), [0])  # does not sum to 1
    with pytest.raises(InvalidInputError):
        nll(np.array([[0.5, 0.5]]), [2])  # target out of range
    with pytest.raises(InvalidInputError):
        nll(np.array([0.5, 0.5]), [0])  # not a matrix of rows
    with pytest.raises(InvalidInputError):
        nll(np.array([[0.5, 0.5]]), [0, 1])  # a target without a row
    with pytest.raises(InvalidInputError):
        nll(np.array([[0.5, 0.5], [0.5, 0.6]]), [0, 1])  # a later step


def test_softmax_cross_entropy_gradient(rng):
    # The teacher-forced loss through the decoder op: the lstm_ed head's
    # bias gets the scores' gradient, which for the softmax of the one
    # scored step of a two-zone route under nll is p - onehot(target).
    prep = prepare_route(make_route(["A-1.1A", "B-1.1A"], actual=[1, 0]))
    params = init_model(ModelConfig("lstm_ed", hidden=3, kz=2), rng)
    params.scaler = fit_scaler([prep])
    params.fc.layers[0].b[...] = rng.normal(size=2)
    sc = scale_route(prep, params)
    tape = Tape()
    loss, traces = forward_logprob(params, sc, tape)
    tape.backward()
    grads = tape.gradients(model_tensors(params))
    p = traces[0].attention[list(sc.order)]
    target = sc.pos_of_zone[prep.targets[0]]
    np.testing.assert_allclose(grads["fc.0.b"], p - np.eye(2)[target], rtol=1e-12, atol=1e-15)

    def loss_fn():
        return float(forward_logprob(params, sc)[0])

    b = params.fc.layers[0].b
    for idx in range(2):
        assert grad_close(finite_difference(loss_fn, b, idx), grads["fc.0.b"][idx])


# --- adam ----------------------------------------------------------------------

def _flat(named):
    """The tensors ``named`` copied into one flat buffer, and its views by
    name, as ``training.train`` lays out the model's."""
    flat = np.concatenate([np.ravel(t) for t in named.values()])
    return flat, dict(zip(named, flat_views(flat, named.values())))


def test_adam_zero_gradient_keeps_parameters():
    flat, params = _flat({"w": np.array([1.0, -2.0])})
    state = adam_init(params)
    before = params["w"].copy()
    adam_step(flat, np.zeros(2), state)
    assert np.all(params["w"] == before)


def test_adam_single_step_hand_value():
    # one step with g = 1: bias-corrected ratio is 1, so the move is -lr
    flat, params = _flat({"w": np.array([0.5])})
    state = adam_init(params, lr=0.001)
    adam_step(flat, np.array([1.0]), state)
    delta = params["w"][0] - 0.5
    assert delta == pytest.approx(-0.001, rel=1e-6)


def test_adam_monotone_shrink():
    flat, params = _flat({"w": np.array([1.0])})
    state = adam_init(params, lr=0.01)
    v0 = params["w"][0]
    adam_step(flat, np.array([1.0]), state)
    v1 = params["w"][0]
    adam_step(flat, np.array([1.0]), state)
    v2 = params["w"][0]
    assert v2 < v1 < v0


def test_adam_step_bits_match_the_one_line_update(rng):
    # adam_step works in scratch rows; its bits are those of the textbook
    # lines, tensor by tensor
    flat, params = _flat({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)})
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    state = adam_init(params, lr=0.01)
    for t in range(1, 6):
        grads = {name: rng.normal(size=p.shape) for name, p in ref.items()}
        adam_step(flat, _flat(grads)[0], state)
        for name, g in grads.items():
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
            ref[name] -= 0.01 * (m[name] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[name] / (1.0 - 0.999 ** t)) + 1e-8)
            assert np.array_equal(params[name], ref[name]), (name, t)


def test_adam_rejects_nan_without_touching():
    # after one step, so the moments are not zeros; the first non-finite
    # entry is b's, and u's comes after it
    flat, params = _flat({"w": np.array([1.0, -1.0]), "b": np.array([2.0]), "u": np.array([3.0])})
    state = adam_init(params)
    adam_step(flat, np.array([0.5, -0.25, 0.125, 1.0]), state)
    before = flat.copy(), state.buf[:2].copy()
    for bad in ([0.5, 0.0, np.nan, np.inf], [0.5, 0.0, -np.inf, 0.0]):
        with pytest.raises(NumericError, match="'b'"):
            adam_step(flat, np.array(bad), state)
    with pytest.raises(NumericError, match="'w'"):
        adam_step(flat, np.array([0.0, np.nan, 0.0, 0.0]), state)
    assert flat.tobytes() == before[0].tobytes()
    assert state.buf[:2].tobytes() == before[1].tobytes()  # m and v
    assert state.step == 1


def test_clip_gradients_scales_in_place_to_the_joint_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([[4.0]])}
    clip_gradients(grads, 2.5)  # norm 5: halved
    assert np.array_equal(grads["a"], [1.5, 0.0]) and np.array_equal(grads["b"], [[2.0]])
    clip_gradients(grads, 5.0)  # a norm below the cap keeps its bits
    assert np.array_equal(grads["a"], [1.5, 0.0]) and np.array_equal(grads["b"], [[2.0]])


def test_clip_gradients_when_the_sum_of_squares_overflows():
    # 1e200 squared overflows; the joint norm is still 1e200 (to the last
    # bits), so the clipped gradients keep their directions, not zeros
    grads = {"a": np.array([1e200, 1.0]), "b": np.array([3.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clip_gradients(grads, 5.0)
    assert grads["a"][0] == pytest.approx(5.0, rel=1e-15)
    assert grads["a"][1] == pytest.approx(5e-200, rel=1e-15)
    assert grads["b"][0] == pytest.approx(1.5e-199, rel=1e-15)
    huge = {"a": np.full(4, 1e300)}  # norm 2e300: every entry clipped to 2.5
    clip_gradients(huge, 5.0)
    assert np.allclose(huge["a"], 2.5, rtol=1e-15, atol=0.0)


# --- checkpoints -----------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(rng):
    tensors = {
        "a.w": rng.normal(size=(3, 4)),
        "a.b": rng.normal(size=4) * 1e-300,  # denormal-scale values survive too
        "c": np.array(math.pi),
    }
    meta = {"variant": "pairwise", "note": 7}
    loaded, meta2 = deserialize_checkpoint(serialize_checkpoint(tensors, meta))
    assert meta2 == meta
    for name, arr in tensors.items():
        assert loaded[name].shape == np.asarray(arr).shape
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64


def test_checkpoint_serialization_deterministic(rng):
    tensors = {"w": rng.normal(size=(2, 2))}
    assert serialize_checkpoint(tensors, {"x": 1}) == serialize_checkpoint(tensors, {"x": 1})


def test_checkpoint_rejects_garbage():
    with pytest.raises(SchemaError):
        deserialize_checkpoint(b"not json")
    with pytest.raises(SchemaError):
        deserialize_checkpoint(b'{"format": "other"}')

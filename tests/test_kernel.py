import gc
import math
import weakref
from itertools import zip_longest

import numpy as np
import pytest

from conftest import make_route
from oracles import finite_difference, grad_close, lstm_ref, mlp_ref
from routeseq.errors import InvalidInputError, NumericError, SchemaError
from routeseq.kernel import (
    LstmCellParams,
    LstmState,
    MlpLayer,
    MlpParams,
    Node,
    Tape,
    adam_init,
    adam_step,
    deserialize_checkpoint,
    init_lstm,
    init_mlp,
    lstm_cell,
    lstm_sequence,
    map_tensors,
    matmul,
    mlp_forward,
    named_tensors,
    nll,
    pair_scores,
    pair_terms,
    pointer_scores,
    serialize_checkpoint,
    softmax,
    unwrap,
    zero_state,
)
from routeseq.predictor import (
    VARIANTS,
    ModelConfig,
    fit_scaler,
    forward_logprob,
    init_model,
    prepare_route,
    scale_route,
    wrap_params,
)


def _zero_lstm(input_dim, hidden):
    p = init_lstm(input_dim, hidden, np.random.default_rng(0))
    return map_tensors(p, lambda _, t: np.zeros_like(t))


# --- autodiff ops ------------------------------------------------------------

def _arrays(*shapes):
    """Input maker: entries of magnitude 0.2-1.5 with random signs, so no
    entry sits within a finite-difference step of 0."""
    def make(rng):
        return [np.array(rng.uniform(0.2, 1.5, size=s) * rng.choice([-1.0, 1.0], size=s))
                for s in shapes]
    return make


_MASK = np.array([True, False, True, True, False])


def _side_by_side(*parts):
    """The vectors ``parts`` end to end, through an identity layer of
    ``mlp_forward``."""
    width = sum(unwrap(p).shape[-1] for p in parts)
    return mlp_forward(list(parts), MlpParams([MlpLayer(np.eye(width), None)]))


def _lstm_both(*args):
    """lstm_cell over the input blocks ``args[:-5]``, both outputs side by
    side: h_new = o*tanh(c_new) reaches every input through c_new too."""
    *xs, h, c, w, u, b = args
    state, _ = lstm_cell(xs, LstmState(h, c), LstmCellParams(w, u, b))
    return _side_by_side(state.h, state.c)


def _lstm_sequence(x, h, c, w, u, b, outputs=True):
    """lstm_sequence's final state after a weighted sum of its output rows,
    every weight non-zero, or (``outputs=False``) the final state alone, as
    ``lstm_ed`` reads it."""
    out, state = lstm_sequence(x, LstmState(h, c), LstmCellParams(w, u, b))
    if not outputs:
        return _side_by_side(state.h, state.c)
    return _side_by_side(matmul(np.linspace(1.0, 2.0, len(unwrap(x))), out), state.h, state.c)


def _mlp(x, *wb):
    """mlp_forward over layers (w0, b0, w1, b1, ...); an odd count leaves
    the output layer without bias."""
    return mlp_forward([x], MlpParams([MlpLayer(w, b) for w, b in zip_longest(wb[::2], wb[1::2])]))


# Constant pair rows (6 source nodes x 5 keys x 2 features) and node
# features (6 x 4) of the pair-scorer cases; they get no gradient.
_PAIR = np.random.default_rng(3).normal(size=(6, 5, 2))
_NODES = np.random.default_rng(4).normal(size=(6, 4))


def _pair(keys, d, layers, queries=None):
    """The pair scorer's step from source node 2 over ``keys``, with the
    query ``d`` or (``d`` None) the route-constant ``queries``."""
    return pair_scores(pair_terms(_PAIR, keys, MlpParams(layers), queries), 2, d)


def _probs(*sizes):
    """Input maker: one probability vector per size."""
    return lambda rng: [rng.dirichlet(np.ones(s)) for s in sizes]


# name -> (op over the inputs, input maker, finite-difference step)
OP_CASES = {
    "matmul_2d_2d": (matmul, _arrays((3, 4), (4, 2)), 1e-5),
    "matmul_2d_1d": (matmul, _arrays((3, 4), (4,)), 1e-5),
    "matmul_1d_2d": (matmul, _arrays((4,), (4, 3)), 1e-5),
    "matmul_1d_1d": (matmul, _arrays((4,), (4,)), 1e-5),
    "lstm_cell": (_lstm_both, _arrays((2,), (3,), (3,), (12, 2), (12, 3), (12,)), 1e-5),
    # the decoder's [last stop's features; context] input
    "lstm_cell_two_blocks": (_lstm_both, _arrays((2,), (1,), (3,), (3,), (12, 3), (12, 3), (12,)),
                             1e-5),
    # four rows from a non-zero initial state
    "lstm_sequence": (_lstm_sequence, _arrays((4, 2), (3,), (3,), (12, 2), (12, 3), (12,)), 1e-5),
    "lstm_sequence_final_state": (
        lambda *args: _lstm_sequence(*args, outputs=False),
        _arrays((4, 2), (3,), (3,), (12, 2), (12, 3), (12,)), 1e-5),
    # at this seed every hidden pre-activation of the MLP cases is >= 0.005 from the kink
    "mlp_vector": (_mlp, _arrays((3,), (4, 3), (4,), (2, 4), (2,)), 1e-5),
    "mlp_vector_no_out_bias": (_mlp, _arrays((3,), (4, 3), (4,), (2, 4)), 1e-5),
    "mlp_rows": (_mlp, _arrays((5, 3), (4, 3), (4,), (4, 4), (4,), (1, 4), (1,)), 1e-5),
    "mlp_rows_no_out_bias": (_mlp, _arrays((5, 3), (4, 3), (4,), (4, 4), (4,), (1, 4)), 1e-5),
    "mlp_rows_wide_out": (_mlp, _arrays((5, 3), (4, 3), (4,), (2, 4), (2,)), 1e-5),
    # a weight that is an op's output gets its gradient before that op's backward runs
    "mlp_rows_computed_weight": (
        lambda x, a, v, w1: mlp_forward([x], MlpParams([MlpLayer(matmul(a, v), None),
                                                        MlpLayer(w1, None)])),
        _arrays((5, 3), (4, 2), (2, 3), (1, 4)), 1e-5),
    # the pair scorer at pairwise's widths, [pair rows; query; keys], the
    # query and the keys computed (tape nodes); at this seed every
    # first-layer pre-activation of the pair-scorer cases is >= 0.1 from the kink
    "pair_scores": (
        lambda k, d, w0, b0, w1: _pair(k, d, [MlpLayer(w0, b0), MlpLayer(w1, None)]),
        _arrays((5, 3), (3,), (4, 8), (4,), (1, 4)), 1e-5),
    # through the masked softmax into nll: the rows the mask leaves out get a
    # score gradient of exactly 0, which the MLP's backward skips
    "pair_scores_masked_nll": (
        lambda k, d, w0, b0, w1: nll([(softmax(_pair(k, d, [MlpLayer(w0, b0),
                                                            MlpLayer(w1, None)]), _MASK), 2)]),
        _arrays((5, 3), (3,), (6, 8), (6,), (1, 6)), 1e-5),
    # at asnn's widths: the queries and keys are constant node features, and
    # the first layer's weight is an op's output, so its column blocks get
    # their gradients before that op's backward runs
    "pair_scores_asnn_masked_nll": (
        lambda a, v, b0, w1: nll([(softmax(_pair(_NODES[1:], None, [
            MlpLayer(matmul(a, v), b0), MlpLayer(w1, None)], _NODES), _MASK), 2)]),
        _arrays((6, 2), (2, 10), (6,), (1, 6)), 1e-5),
    # a pair MLP of one layer scores with its first layer's sum
    "pair_scores_one_layer": (lambda k, d, w0: _pair(k, d, [MlpLayer(w0, None)]),
                              _arrays((5, 3), (3,), (1, 8)), 1e-5),
    "pointer_scores": (pointer_scores,
                       _arrays((4, 3), (3,), (4, 2), (5,), (5, 3), (5, 3), (2,)), 1e-5),
    "softmax": (softmax, _arrays((5,)), 1e-5),
    "softmax_masked": (lambda u: softmax(u, _MASK), _arrays((5,)), 1e-5),
    # a step small enough that the perturbed probabilities still sum to 1
    # within nll's 1e-6 check
    "nll": (lambda p0, p1, p2: nll([(p0, 2), (p1, 0), (p2, 1)]), _probs(5, 4, 2), 1e-7),
}


def _weights(rng, shape):
    """Random weights that reduce an output of ``shape`` to a scalar with
    ``_reduce``: a row and a column vector for a matrix, one vector for a
    vector, none for a scalar."""
    return [rng.normal(size=s) for s in shape]


def _reduce(out, weights):
    """``out`` as a scalar through matmul only: ``a·(out b)`` for a matrix,
    ``out·w`` for a vector, a scalar as it is."""
    if len(weights) == 2:
        return matmul(weights[0], matmul(out, weights[1]))
    return matmul(out, weights[0]) if weights else out


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_central_difference(name):
    op, make, eps = OP_CASES[name]
    rng = np.random.default_rng(7)
    inputs = make(rng)
    plain = op(*inputs)
    assert not isinstance(plain, Node)  # nothing is recorded without a Node input
    w = _weights(rng, np.shape(plain))

    def loss_fn():
        return float(_reduce(op(*inputs), w))

    tape = Tape()
    leaves = [tape.leaf(x) for x in inputs]
    tape.backward(_reduce(op(*leaves), w))
    for k, (x, leaf) in enumerate(zip(inputs, leaves)):
        assert leaf.grad.shape == x.shape
        for idx in range(x.size):
            fd = finite_difference(loss_fn, x, idx, eps)
            an = leaf.grad.ravel()[idx]
            assert grad_close(fd, an), f"input {k}[{idx}]: fd={fd} an={an}"


def test_finished_tape_is_freed_without_cyclic_gc():
    # One whole training step per variant: the taped forward of a route,
    # backward, and the weight-gradient rows the tape sums at its end.
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
            loss, _ = forward_logprob(wrap_params(params, tape), scale_route(prep, params))
            tape.backward(loss)
            assert not tape._rows, variant  # the deferred rows are summed and dropped
            tape_ref, value_ref = weakref.ref(tape), weakref.ref(loss.value)
            del tape, loss
            assert tape_ref() is None, variant
            assert value_ref() is None, variant
            assert gc.collect() == 0, variant  # no cycle was left for the collector
    finally:
        if was_enabled:
            gc.enable()


# --- lstm_cell ---------------------------------------------------------------

def test_lstm_sequence_is_a_loop_of_lstm_cell_bit_for_bit(rng):
    p = init_lstm(4, 6, rng)
    x = rng.normal(size=(7, 4))
    start = LstmState(rng.normal(size=6), rng.normal(size=6))
    state, outputs = start, []
    for row in x:
        state, h = lstm_cell([row], state, p)
        outputs.append(h)
    tape = Tape()
    for params in (p, map_tensors(p, lambda _, t: tape.leaf(t))):
        keys, final = lstm_sequence(x, start, params)
        assert np.array_equal(unwrap(keys), np.stack(outputs))
        assert np.array_equal(unwrap(final.h), state.h)
        assert np.array_equal(unwrap(final.c), state.c)
    assert len(tape._nodes) == 3  # the outputs, then the final h and c


def test_lstm_zero_everything():
    p = _zero_lstm(3, 4)
    state, e = lstm_cell([np.zeros(3)], zero_state(4), p)
    assert np.all(e == 0.0)
    assert np.all(state.c == 0.0)


def test_lstm_saturation_matches_reference():
    # large weights force the gates to saturate; compare against the formulas
    rng = np.random.default_rng(5)
    p = init_lstm(2, 3, rng)
    p.w[:3] += 100.0   # forget gate
    p.b[3:6] -= 50.0   # input gate
    x = rng.normal(size=2)
    h0, c0 = rng.normal(size=3), rng.normal(size=3) + 5.0
    state, e = lstm_cell([x], LstmState(h0.copy(), c0.copy()), p)
    h_ref, c_ref = lstm_ref(x, h0, c0, p)
    assert np.allclose(e, h_ref, atol=1e-14)
    assert np.allclose(state.c, c_ref, atol=1e-14)


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
    _, e = lstm_cell([rng.normal(size=4)], state, p)
    assert np.all(np.abs(e) <= 1.0)


def test_lstm_rejects_non_finite():
    p = _zero_lstm(2, 2)
    with pytest.raises(NumericError):
        lstm_cell([np.array([np.nan, 0.0])], zero_state(2), p)


def test_lstm_gradients_every_parameter(rng):
    # d ||h'||^2 / d theta for every single component
    p = init_lstm(3, 4, rng)
    x = rng.normal(size=3)
    h0, c0 = rng.normal(size=4), rng.normal(size=4)

    def loss_fn():
        state, e = lstm_cell([x], LstmState(h0, c0), p)
        return float(np.sum(np.asarray(e) ** 2))

    tape = Tape()
    wrapped = map_tensors(p, lambda _, t: tape.leaf(t))
    state, e = lstm_cell([x], LstmState(h0, c0), wrapped)
    loss = matmul(e, e)
    tape.backward(loss)
    grads = {n: t.grad for n, t in named_tensors(wrapped, "p").items()}
    for name, arr in named_tensors(p, "p").items():
        g = grads[name]
        for idx in range(arr.size):
            fd = finite_difference(loss_fn, arr, idx)
            assert grad_close(fd, g.ravel()[idx]), f"{name}[{idx}]: fd={fd} an={g.ravel()[idx]}"


# --- mlp ---------------------------------------------------------------------

def test_mlp_zero_weights_returns_bias():
    p = MlpParams([MlpLayer(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))])
    assert np.allclose(mlp_forward([np.array([5.0, 6.0])], p), [1.0, 2.0, 3.0])


def test_mlp_identity_layer():
    p = MlpParams([MlpLayer(np.eye(4), np.zeros(4))])
    x = np.array([1.0, -2.0, 3.0, -4.0])
    assert np.allclose(mlp_forward([x], p), x)


def test_mlp_matches_reference(rng):
    p = init_mlp((2, 128, 128, 1), rng)
    x = rng.normal(size=2)
    got = mlp_forward([x], p)
    ref = mlp_ref(x, [(l.w, l.b) for l in p.layers])
    assert np.allclose(got, ref, atol=1e-12)


def test_mlp_batched_matches_vector(rng):
    p = init_mlp((5, 7, 1), rng)
    xs = rng.normal(size=(4, 5))
    batched = mlp_forward([xs], p)
    rows = np.concatenate([mlp_forward([x], p) for x in xs])
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
    got = pair_scores(pair_terms(pair, keys, p), 2, d)
    assert np.array_equal(got, mlp_forward([np.maximum(pair_term + key_term + w[:, 2:5] @ d, 0.0)],
                                           rest))
    got = pair_scores(pair_terms(pair, keys, p, nodes), 2)  # route-constant queries
    query_term = (nodes @ w[:, 2:5].T)[2]
    assert np.array_equal(got, mlp_forward([np.maximum(pair_term + key_term + query_term, 0.0)],
                                           rest))


def test_mlp_width_mismatch():
    p = init_mlp((3, 2), np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        mlp_forward([np.zeros(4)], p)
    # the pair scorer: 2 pair features, key width 3, so a query width of 3
    p = init_mlp((8, 4, 1), np.random.default_rng(0))
    pair, keys = np.zeros((3, 2, 2)), np.zeros((2, 3))
    with pytest.raises(InvalidInputError):
        pair_scores(pair_terms(pair, keys, p), 0, np.zeros(4))
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

    def loss_fn():
        return float(nll([(softmax(u, allowed), 3)]))

    tape = Tape()
    un = tape.leaf(u)
    tape.backward(nll([(softmax(un, allowed), 3)]))
    assert np.all(un.grad[~allowed] == 0.0)
    for idx in range(5):
        assert grad_close(finite_difference(loss_fn, u, idx), un.grad[idx])


def test_cross_entropy_uniform():
    p = np.full(5, 0.2)
    assert nll([(p, 3)]) == pytest.approx(math.log(5), abs=1e-12)
    assert nll([(p, 3), (np.full(2, 0.5), 0)]) == pytest.approx(math.log(10), abs=1e-12)


def test_cross_entropy_certain():
    p = np.zeros(4)
    p[1] = 1.0
    assert nll([(p, 1)]) == 0.0
    assert nll([]) == 0.0


def test_cross_entropy_clamp():
    p = np.array([1.0 - 1e-15, 1e-15])
    assert nll([(p, 1)]) == pytest.approx(-math.log(1e-12), rel=1e-12)
    tape = Tape()
    clamped, free = tape.leaf(p), tape.leaf(np.array([0.25, 0.75]))
    tape.backward(nll([(clamped, 1), (free, 0)]))
    assert clamped.grad is None  # the clamped term passes no gradient
    assert np.array_equal(free.grad, [-4.0, 0.0])


def test_cross_entropy_validation():
    with pytest.raises(InvalidInputError):
        nll([(np.array([0.9, 0.2]), 0)])  # does not sum to 1
    with pytest.raises(InvalidInputError):
        nll([(np.array([0.5, 0.5]), 2)])  # target out of range
    with pytest.raises(InvalidInputError):
        nll([(np.full((2, 2), 0.25), 0)])  # not a vector
    with pytest.raises(InvalidInputError):
        nll([(np.array([0.5, 0.5]), 0), (np.array([0.5, 0.6]), 1)])  # a later step


def test_softmax_cross_entropy_gradient(rng):
    u = rng.normal(size=6)

    def loss_fn():
        return float(nll([(softmax(u), 2)]))

    tape = Tape()
    un = tape.leaf(u)
    loss = nll([(softmax(un), 2)])
    tape.backward(loss)
    for idx in range(6):
        fd = finite_difference(loss_fn, u, idx)
        assert grad_close(fd, un.grad[idx])


# --- adam ----------------------------------------------------------------------

def test_adam_zero_gradient_keeps_parameters():
    params = {"w": np.array([1.0, -2.0])}
    state = adam_init(params)
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.all(params["w"] == before)


def test_adam_single_step_hand_value():
    # one step with g = 1: bias-corrected ratio is 1, so the move is -lr
    params = {"w": np.array([0.5])}
    state = adam_init(params, lr=0.001)
    adam_step(params, {"w": np.array([1.0])}, state)
    delta = params["w"][0] - 0.5
    assert delta == pytest.approx(-0.001, rel=1e-6)


def test_adam_monotone_shrink():
    params = {"w": np.array([1.0])}
    state = adam_init(params, lr=0.01)
    v0 = params["w"][0]
    adam_step(params, {"w": np.array([1.0])}, state)
    v1 = params["w"][0]
    adam_step(params, {"w": np.array([1.0])}, state)
    v2 = params["w"][0]
    assert v2 < v1 < v0


def test_adam_step_bits_match_the_one_line_update(rng):
    # adam_step works in temporaries; its bits are those of the textbook lines
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    ref = {name: p.copy() for name, p in params.items()}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}
    state = adam_init(params, lr=0.01)
    for t in range(1, 6):
        grads = {name: rng.normal(size=p.shape) for name, p in ref.items()}
        adam_step(params, grads, state)
        for name, g in grads.items():
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
            ref[name] -= 0.01 * (m[name] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[name] / (1.0 - 0.999 ** t)) + 1e-8)
            assert np.array_equal(params[name], ref[name]), (name, t)


def test_adam_rejects_nan_without_touching():
    params = {"w": np.array([1.0]), "b": np.array([2.0])}
    state = adam_init(params)
    with pytest.raises(NumericError):
        adam_step(params, {"w": np.array([np.nan]), "b": np.array([0.0])}, state)
    assert params["w"][0] == 1.0 and params["b"][0] == 2.0
    assert state.step == 0


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

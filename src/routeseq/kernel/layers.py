"""LSTM cell, multilayer perceptron, and parameter initializers.

Everything here works on either plain ndarrays or autodiff ``Node`` inputs,
so the same forward code serves inference and gradient-based training.
``lstm_cell``, ``mlp_forward`` and ``pointer_scores`` are fused autodiff
ops: each records two nodes (the cell) or one (the MLP, the pointer scores)
whose hand-written backward repeats the float expressions of the elementary
ops it replaces, in their order, so gradients are bit-identical to
recording those ops one by one.  ``lstm_cell`` and ``mlp_forward`` take
their input as a list of blocks laid side by side, so callers need no
concatenation op.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidInputError, NumericError
from .autodiff import Node, _acc, _record, unwrap


@dataclass(eq=False)
class LstmState:
    """Hidden and cell state of one LSTM; equal lengths."""

    h: object
    c: object


@dataclass(eq=False)
class LstmCellParams:
    """Weights of a single-layer, one-directional LSTM cell, its four gates
    stacked in the order f, i, o, c (the candidate cell value).

    ``w`` maps the input (4*hidden x input), ``u`` the previous hidden state
    (4*hidden x hidden); ``b`` holds the gate biases (4*hidden,).
    """

    w: object
    u: object
    b: object


@dataclass(eq=False)
class MlpLayer:
    w: object  # (out, in)
    b: object  # (out,), or None for a layer without bias


@dataclass(eq=False)
class MlpParams:
    """Affine layers with rectified-linear hidden activations, identity output."""

    layers: list


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_lstm(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> LstmCellParams:
    """Weights uniform in (-1/sqrt(fan_in), +1/sqrt(fan_in)); forget-gate
    bias 1 (Jozefowicz et al., 2015), so the cell starts out keeping its
    state; the other biases 0."""
    b = np.zeros(4 * hidden_dim)
    b[:hidden_dim] = 1.0
    return LstmCellParams(uniform_init(rng, (4 * hidden_dim, input_dim), input_dim),
                          uniform_init(rng, (4 * hidden_dim, hidden_dim), hidden_dim), b)


def init_mlp(dims, rng: np.random.Generator) -> MlpParams:
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        layers.append(MlpLayer(uniform_init(rng, (d_out, d_in), d_in), np.zeros(d_out)))
    return MlpParams(layers)


def zero_state(hidden_dim: int) -> LstmState:
    return LstmState(np.zeros(hidden_dim), np.zeros(hidden_dim))


def _sigmoid_np(x):
    """The logistic function, branch-free: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below, both from e = exp(-|x|), so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _join(blocks) -> np.ndarray:
    """The input blocks side by side: 1-d blocks end to end, or, when a
    block has rows, every 1-d block repeated on each of its rows."""
    vals = [unwrap(b) for b in blocks]
    m = next((v.shape[0] for v in vals if v.ndim == 2), None)
    if m is None:
        return np.concatenate(vals)
    return np.concatenate([v if v.ndim == 2 else np.tile(v, (m, 1)) for v in vals], axis=1)


def _acc_blocks(blocks, g) -> None:
    """Hand each input block its columns of the joined input's gradient
    ``g``; a repeated 1-d block gets their sum over the rows."""
    off = 0
    for b in blocks:
        v = unwrap(b)
        gb = g[..., off:off + v.shape[-1]]
        if v.ndim < g.ndim:
            _acc(b, gb.sum(axis=0), own=True)
        else:
            _acc(b, gb)
        off += v.shape[-1]


def lstm_cell(xs, state: LstmState, params: LstmCellParams):
    """One LSTM step on the input blocks ``xs`` (1-d, end to end): returns
    (new state, output vector).

    Computes ``z = W x + U h + b`` and the gates from it: f, i and o are
    logistic, the candidate cell value tanh(z_c),
    ``c_new = f*c + i*tanh(z_c)`` and ``h_new = o*tanh(c_new)``; the output
    equals the new hidden state (single layer, one direction).

    One fused op: it records ``c_new`` and then ``h_new``.  ``h_new``'s
    backward hands its share of dz (zero outside the o slice) to
    ``c_new``'s, which adds its own and runs the affine backward once.
    """
    xv, hv, cv = _join(xs), unwrap(state.h), unwrap(state.c)
    if not np.all(np.isfinite(xv)):
        raise NumericError("lstm_cell received a non-finite input vector")
    w, u = unwrap(params.w), unwrap(params.u)
    z = w @ xv + u @ hv + unwrap(params.b)
    n = cv.shape[0]
    s = _sigmoid_np(z[:3 * n])
    f, i, o = s[:n], s[n:2 * n], s[2 * n:]
    g = np.tanh(z[3 * n:])
    c_new_v = f * cv + i * g
    t = np.tanh(c_new_v)
    handed = []  # h_new's share of dz, once its backward has run

    def backward_c(gc):
        gz = np.concatenate([gc * cv * f * (1.0 - f), gc * g * i * (1.0 - i),
                             np.zeros(n), gc * i * (1.0 - g * g)])
        if handed:
            gz += handed.pop()
        _acc(params.b, gz)
        _acc(params.u, np.outer(gz, hv), own=True)
        _acc(state.h, u.T @ gz, own=True)
        _acc(params.w, np.outer(gz, xv), own=True)
        _acc_blocks(xs, w.T @ gz)
        _acc(state.c, gc * f, own=True)

    c_new = _record(c_new_v, (*xs, state.h, state.c, params.w, params.u, params.b), backward_c)

    def backward_h(gh):
        gz = np.zeros(4 * n)
        gz[2 * n:3 * n] = gh * t * o * (1.0 - o)
        handed.append(gz)
        _acc(c_new, gh * o * (1.0 - t * t), own=True)

    h_new = _record(o * t, (c_new,), backward_h)
    return LstmState(h_new, c_new), h_new


def mlp_forward(xs, params: MlpParams):
    """Apply the MLP to the input blocks ``xs``, as one recorded op: to a
    vector (d,), or to rows (m, d) when a block has rows (1-d blocks are
    repeated on every row).  Over rows, a one-unit output layer gives one
    score per row, (m,).

    Each layer is ``W a + b`` (``a @ W.T + b`` for rows), ReLU on all but
    the last.  The backward pass walks the layers in reverse and takes the
    products that matmul, add and relu took per layer: for rows
    ``W.grad += (aᵀ g)ᵀ`` and ``g @ W``, for a vector ``outer(g, a)``, ``Wᵀ g``.
    """
    xv = _join(xs)
    layers = params.layers
    in_dim = unwrap(layers[0].w).shape[1]
    if xv.shape[-1] != in_dim:
        raise InvalidInputError(
            f"mlp_forward input width {xv.shape[-1]} does not match first layer ({in_dim})"
        )
    rows = xv.ndim == 2
    last = len(layers) - 1
    ins, pres = [], []  # each layer's input; each hidden layer's pre-activation
    a = xv
    for k, layer in enumerate(layers):
        ins.append(a)
        w = unwrap(layer.w)
        a = a @ w.T if rows else w @ a
        if layer.b is not None:
            a = a + unwrap(layer.b)
        if k != last:
            pres.append(a)
            a = np.maximum(a, 0.0)
    scores = rows and a.shape[1] == 1

    def backward(g):
        if scores:
            g = g.reshape(-1, 1)
        for k in range(last, -1, -1):
            layer, w = layers[k], unwrap(layers[k].w)
            if k != last:
                g = g * (pres[k] > 0.0)
            if layer.b is not None:
                _acc(layer.b, g.sum(axis=0) if rows else g)
            _acc(layer.w, (ins[k].T @ g).T if rows else np.outer(g, ins[k]), own=True)
            g = g @ w if rows else w.T @ g
        _acc_blocks(xs, g)

    parents = (*xs, *(layer.w for layer in layers), *(layer.b for layer in layers))
    return _record(a.reshape(-1) if scores else a, parents, backward)


def pointer_scores(keys, d, pair_rows, w1, w2, w3, w4):
    """Additive pointer scores with a linear local term, one per row of
    ``keys``: ``tanh(K W2ᵀ + W3 d)·w1 + Z·w4`` for keys K (n, h), query
    ``d`` (h,) and pair rows Z (n, p), as one recorded op."""
    kv, dv, zv = unwrap(keys), unwrap(d), unwrap(pair_rows)
    w1v, w2v, w3v, w4v = unwrap(w1), unwrap(w2), unwrap(w3), unwrap(w4)
    t = np.tanh(kv @ w2v.T + w3v @ dv)

    def backward(g):
        _acc(pair_rows, np.outer(g, w4v), own=True)
        _acc(w4, zv.T @ g, own=True)
        _acc(w1, t.T @ g, own=True)
        gs = np.outer(g, w1v) * (1.0 - t * t)
        gq = gs.sum(axis=0)
        _acc(w3, np.outer(gq, dv), own=True)
        _acc(d, w3v.T @ gq, own=True)
        _acc(keys, gs @ w2v, own=True)
        _acc(w2, (kv.T @ gs).T, own=True)

    return _record(t @ w1v + zv @ w4v, (keys, d, pair_rows, w1, w2, w3, w4), backward)


def _leaves(obj, prefix, out):
    if isinstance(obj, (np.ndarray, Node)):
        out[prefix] = obj
    elif isinstance(obj, MlpParams):
        for k, layer in enumerate(obj.layers):
            _leaves(layer, f"{prefix}.{k}", out)
    elif hasattr(obj, "__dataclass_fields__"):
        for f in fields(obj):
            _leaves(getattr(obj, f.name), f"{prefix}.{f.name}", out)
    elif obj is None:
        pass
    else:  # pragma: no cover - guards against silent omissions
        raise TypeError(f"cannot collect tensors from {type(obj)} at {prefix}")


def named_tensors(obj, prefix: str) -> dict:
    """Flatten a parameter container into {name: tensor} for the optimizer,
    checkpointing, and finite-difference checks."""
    out: dict = {}
    _leaves(obj, prefix, out)
    return out


def map_tensors(obj, fn):
    """Rebuild a parameter container with ``fn`` applied to each leaf tensor."""
    if isinstance(obj, (np.ndarray, Node)):
        return fn(obj)
    if isinstance(obj, MlpParams):
        return MlpParams([map_tensors(layer, fn) for layer in obj.layers])
    if obj is None:
        return None
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj)(*(map_tensors(getattr(obj, f.name), fn) for f in fields(obj)))
    raise TypeError(f"cannot map over {type(obj)}")

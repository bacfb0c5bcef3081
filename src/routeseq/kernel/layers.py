"""LSTM cell, multilayer perceptron, and parameter initializers.

Everything here works on either plain ndarrays or autodiff ``Node`` inputs,
so the same forward code serves inference and gradient-based training.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import InvalidInputError, NumericError
from .autodiff import Node, add, lstm_gates, matmul, relu, transpose, unwrap


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


def lstm_cell(x, state: LstmState, params: LstmCellParams):
    """One LSTM step: returns (new state, output vector).

    Gates f, i, o are logistic; the candidate cell value is tanh; the output
    equals the new hidden state (single layer, one direction).
    """
    if not np.all(np.isfinite(unwrap(x))):
        raise NumericError("lstm_cell received a non-finite input vector")
    z = add(add(matmul(params.w, x), matmul(params.u, state.h)), params.b)
    h_new, c_new = lstm_gates(z, state.c)
    return LstmState(h_new, c_new), h_new


def mlp_forward(x, params: MlpParams):
    """Apply the MLP to a vector (d,) or a batch of rows (m, d)."""
    xv = np.asarray(unwrap(x))
    in_dim = unwrap(params.layers[0].w).shape[1]
    if xv.shape[-1] != in_dim:
        raise InvalidInputError(
            f"mlp_forward input width {xv.shape[-1]} does not match first layer ({in_dim})"
        )
    out = x
    last = len(params.layers) - 1
    for k, layer in enumerate(params.layers):
        out = matmul(layer.w, out) if xv.ndim == 1 else matmul(out, transpose(layer.w))
        if layer.b is not None:
            out = add(out, layer.b)
        if k != last:
            out = relu(out)
    return out


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

"""LSTM cell, multilayer perceptron, and parameter initializers.

Everything here works on either plain ndarrays or autodiff ``Node`` inputs,
so the same forward code serves inference and gradient-based training.
``lstm_cell``, ``lstm_sequence``, ``mlp_forward``, ``pair_terms``,
``pair_scores`` and ``pointer_scores`` are fused autodiff ops with
hand-written backward passes: the cell records two nodes, the sequence
three, the MLP, the pair MLP's key term and the pointer scores one each,
and a pair MLP step one plus its ``mlp_forward``.  Their forward passes
compute the float expressions of the elementary ops they replace, in their
order; their weight gradients are sums of outer products that the tape
forms once per backward (``autodiff._acc_outer``).  ``lstm_cell`` and
``mlp_forward`` take their input as a list of blocks laid side by side (all
vectors or all rows), so callers need no concatenation op.  The pair MLP
splits its first layer by columns instead: the terms of the route-constant
blocks are formed once per route (``pair_terms``) and each step adds its
query's term to them (``pair_scores``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, NumericError
from .autodiff import Node, _acc, _acc_outer, _record, unwrap


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
    """The input blocks side by side: vectors end to end, or rows beside rows."""
    return np.concatenate([unwrap(b) for b in blocks], axis=-1)


def _acc_blocks(blocks, g) -> None:
    """Hand each input block its columns of the joined input's gradient
    ``g``, a fresh array of the caller's, so a block may keep them as its own."""
    off = 0
    for b in blocks:
        width = unwrap(b).shape[-1]
        _acc(b, g[..., off:off + width], own=True)
        off += width


def _step(w, u, b, x, h, c):
    """One LSTM step's values from the weights, the input ``x`` and the state
    (``h``, ``c``): ``z = W x + U h + b``; the logistic gates f, i and o; the
    candidate cell value ``g = tanh(z_c)``; ``c_new = f*c + i*g`` and
    ``tanh(c_new)``; and ``h_new = o*tanh(c_new)``, in that order."""
    z = w @ x + u @ h + b
    n = c.shape[0]
    s = _sigmoid_np(z[:3 * n])
    f, i, o = s[:n], s[n:2 * n], s[2 * n:]
    g = np.tanh(z[3 * n:])
    c_new = f * c + i * g
    t = np.tanh(c_new)
    return f, i, o, g, c_new, t, o * t


def lstm_cell(xs, state: LstmState, params: LstmCellParams):
    """One LSTM step (``_step``) on the input blocks ``xs`` (1-d, end to
    end): returns (new state, output vector); the output equals the new
    hidden state (single layer, one direction).

    One fused op: it records ``c_new`` and then ``h_new``.  ``h_new``'s
    backward adds its share to ``c_new``'s gradient and hands its own
    gradient over, so ``c_new``'s backward forms the gate gradient dz once
    and runs the affine backward once.
    """
    xv, hv, cv = _join(xs), unwrap(state.h), unwrap(state.c)
    if not np.all(np.isfinite(xv)):
        raise NumericError("lstm_cell received a non-finite input vector")
    w, u = unwrap(params.w), unwrap(params.u)
    f, i, o, g, c_new_v, t, h_new_v = _step(w, u, unwrap(params.b), xv, hv, cv)
    handed = []  # h_new's gradient, once its backward has run

    def backward_c(gc):
        gh = handed.pop() if handed else 0.0
        gz = np.concatenate([gc * cv * f * (1.0 - f), gc * g * i * (1.0 - i),
                             gh * t * o * (1.0 - o), gc * i * (1.0 - g * g)])
        _acc(params.b, gz)
        _acc_outer(params.u, gz[None], hv[None])
        _acc(state.h, u.T @ gz, own=True)
        _acc_outer(params.w, gz[None], xv[None])
        _acc_blocks(xs, w.T @ gz)
        _acc(state.c, gc * f, own=True)

    c_new = _record(c_new_v, (*xs, state.h, state.c, params.w, params.u, params.b), backward_c)

    def backward_h(gh):
        handed.append(gh)
        _acc(c_new, gh * o * (1.0 - t * t), own=True)

    h_new = _record(h_new_v, (c_new,), backward_h)
    return LstmState(h_new, c_new), h_new


def lstm_sequence(x, state: LstmState, params: LstmCellParams):
    """The LSTM over the rows of ``x`` (n, input) from ``state``, as one
    recorded op: returns (outputs (n, hidden), final state).

    The forward pass runs ``_step`` row by row, so its values are the bits of
    a loop of ``lstm_cell``.  It records the outputs, then the final h and
    c, whose backward passes only hand their gradients over.  The outputs'
    gradient starts at zero, so their backward runs whichever of the three
    has a gradient (``lstm_ed`` reads only the final state): one loop of
    backpropagation through time, then the W, U and b gradients over all
    steps as one product each.
    """
    xv, hv, cv = unwrap(x), unwrap(state.h), unwrap(state.c)
    if not np.all(np.isfinite(xv)):
        raise NumericError("lstm_sequence received a non-finite input")
    w, u, b = unwrap(params.w), unwrap(params.u), unwrap(params.b)
    steps = []  # per row: f, i, o, g, c_new, tanh(c_new), h_new
    h, c = hv, cv
    for xt in xv:
        steps.append(_step(w, u, b, xt, h, c))
        h, c = steps[-1][6], steps[-1][4]
    out_v = np.stack([step[6] for step in steps])
    handed = {}  # the final h's and c's gradients, once their backward has run

    def backward(g_out):
        f, i, o, g, c_all, t, h_all = (np.stack(v) for v in zip(*steps))
        c_prev, h_prev = np.vstack([cv, c_all[:-1]]), np.vstack([hv, h_all[:-1]])
        # dz = [dc, dc, dh, dc] * dz_dch per step; dc picks up dh * dc_dh
        dz_dch = np.concatenate([c_prev * f * (1.0 - f), g * i * (1.0 - i),
                                 t * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
        dc_dh = o * (1.0 - t * t)
        gz = np.empty_like(dz_dch)
        dh, dc = handed.pop("h", 0.0), handed.pop("c", 0.0)
        for k in reversed(range(len(steps))):
            dh = dh + g_out[k]
            dc = dc + dh * dc_dh[k]
            np.multiply(np.concatenate([dc, dc, dh, dc]), dz_dch[k], out=gz[k])
            dh = u.T @ gz[k]
            dc = dc * f[k]
        _acc(params.b, gz.sum(axis=0), own=True)
        _acc_outer(params.w, gz, xv)
        _acc_outer(params.u, gz, h_prev)
        if isinstance(x, Node):
            _acc(x, gz @ w, own=True)
        _acc(state.h, dh, own=True)
        _acc(state.c, dc, own=True)

    out = _record(out_v, (x, state.h, state.c, params.w, params.u, params.b), backward)
    if not isinstance(out, Node):
        return out, LstmState(steps[-1][6], steps[-1][4])
    out.grad = np.zeros_like(out_v)
    h_last = _record(steps[-1][6], (out,), lambda g: handed.__setitem__("h", g))
    c_last = _record(steps[-1][4], (out,), lambda g: handed.__setitem__("c", g))
    return out, LstmState(h_last, c_last)


def mlp_forward(xs, params: MlpParams):
    """Apply the MLP to the input blocks ``xs``, as one recorded op: to a
    vector (d,) when the blocks are vectors, or to rows (m, d) when they are
    rows.  Over rows, a one-unit output layer gives one score per row, (m,).

    Each layer is ``W a + b`` (``a @ W.T + b`` for rows), ReLU on all but
    the last.  The backward pass treats a vector as one row, drops the rows
    whose output gradient is exactly 0 (the candidates a masked softmax
    left out), and walks the layers in reverse: ``b.grad`` gets the
    gradient's sum over the rows, ``W.grad`` the outer products of its rows
    with the layer's input rows (``_acc_outer``), and the layer below
    ``g @ W``.
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
    m = len(xv) if rows else 1

    def backward(g):
        g = g.reshape(m, -1)
        kept = np.flatnonzero(g.any(axis=1))
        if len(kept) == 0:
            return
        g = g[kept]
        for k in range(last, -1, -1):
            layer = layers[k]
            if k != last:
                g = g * (pres[k].reshape(m, -1)[kept] > 0.0)
            if layer.b is not None:
                _acc(layer.b, g.sum(axis=0), own=True)
            _acc_outer(layer.w, g, ins[k].reshape(m, -1)[kept])
            g = g @ unwrap(layer.w)
        g_in = np.zeros((m, g.shape[1]))
        g_in[kept] = g
        _acc_blocks(xs, g_in if rows else g_in[0])

    parents = (*xs, *(layer.w for layer in layers), *(layer.b for layer in layers))
    return _record(a.reshape(-1) if scores else a, parents, backward)


@dataclass(eq=False)
class PairTerms:
    """A route's constant terms of the pair MLP's first layer
    ``W [pair; query; key] + b``, whose weight ``pair_terms`` splits by
    columns into ``W_z``, ``W_q`` and ``W_k``: ``W_z pair`` of every pair
    row, ``W_k key + b`` of every key, and, when every query is a node's
    features, ``W_q query`` of every node."""

    first: MlpLayer
    rest: MlpParams             # the layers after the first
    w_q: np.ndarray             # (hidden, q) the first layer's query columns
    pair: np.ndarray            # (s, n, p) pair rows from each source node
    pair_term: np.ndarray       # (s, n, hidden) W_z pair
    key_term: object            # (n, hidden) W_k key + b; a tape node when recorded
    queries: np.ndarray | None  # (s, q) route-constant queries, or None
    query_term: np.ndarray | None  # (s, hidden) W_q query, or None


def pair_terms(pair, keys, params: MlpParams, queries=None) -> PairTerms:
    """The route-constant terms of the pair MLP ``params`` over the pair rows
    ``pair`` (s, n, p) from s source nodes to the n keys ``keys`` (n, k),
    and of the queries (s, q) when they are route constants.  The first
    layer's columns are the pair, query and key blocks in that order.

    The key term is one recorded op: its backward runs once per route, after
    every ``pair_scores`` step has added its rows, and hands ``b`` and the
    keys their gradients and the tape the ``W_k`` rows.  The pair and query
    terms are plain arrays: their ``W_z`` and ``W_q`` rows come from the
    steps that read them."""
    layers = params.layers
    first, kv = layers[0], unwrap(keys)
    w = unwrap(first.w)
    p, k = pair.shape[-1], kv.shape[1]
    q = w.shape[1] - p - k
    if q < 0 or (queries is not None and queries.shape[1] != q):
        raise InvalidInputError(f"pair MLP input width {w.shape[1]} does not match pair "
                                f"width {p}, key width {k} and the query")
    w_q, w_k = w[:, p:p + q], w[:, p + q:]
    key_v = kv @ w_k.T
    if first.b is not None:
        key_v = key_v + unwrap(first.b)

    def backward(g):
        if first.b is not None:
            _acc(first.b, g.sum(axis=0), own=True)
        _acc_outer(first.w, g, kv, p + q)
        if isinstance(keys, Node):
            _acc(keys, g @ w_k, own=True)

    return PairTerms(
        first=first,
        rest=MlpParams(layers[1:]),
        w_q=w_q,
        pair=pair,
        pair_term=(pair.reshape(-1, p) @ w[:, :p].T).reshape(*pair.shape[:2], -1),
        key_term=_record(key_v, (keys, first.w, first.b), backward),
        queries=queries,
        query_term=None if queries is None else queries @ w_q.T,
    )


def pair_scores(terms: PairTerms, src: int, d=None):
    """The pair MLP's score of every key from source node ``src`` with the
    query ``d`` (q,), or with the route-constant query of ``src`` when ``d``
    is None: the value of ``mlp_forward`` over the rows [pair; query; key].

    The first layer is one recorded op, ``pair_term[src] + key_term +
    W_q query`` and its ReLU; ``mlp_forward`` runs the remaining layers (a
    pair MLP of one layer scores with the sum itself).  Its backward hands
    the key term its rows, ``d`` its gradient, and the tape the ``W_z`` rows
    of the step's pair rows and one ``W_q`` row."""
    first, w_q = terms.first, terms.w_q
    if d is None:
        qv, q_term = terms.queries[src], terms.query_term[src]
    else:
        qv = unwrap(d)
        if qv.shape != (w_q.shape[1],):
            raise InvalidInputError(f"pair MLP query shape {qv.shape} does not match "
                                    f"({w_q.shape[1]},)")
        q_term = w_q @ qv
    pre = terms.pair_term[src] + unwrap(terms.key_term)
    pre += q_term
    hidden = bool(terms.rest.layers)

    def backward(g):
        g = g.reshape(pre.shape)
        if hidden:
            g = g * (pre > 0.0)
        _acc(terms.key_term, g)  # copied: the tape keeps g as W_z rows
        _acc_outer(first.w, g, terms.pair[src])
        gq = g.sum(axis=0)
        _acc_outer(first.w, gq[None], qv[None], terms.pair.shape[-1])
        if isinstance(d, Node):
            _acc(d, w_q.T @ gq, own=True)

    out = _record(np.maximum(pre, 0.0) if hidden else pre.reshape(-1),
                  (terms.key_term, d, first.w), backward)
    return mlp_forward([out], terms.rest) if hidden else out


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
        _acc_outer(w3, gq[None], dv[None])
        _acc(d, w3v.T @ gq, own=True)
        _acc(keys, gs @ w2v, own=True)
        _acc_outer(w2, gs, kv)

    return _record(t @ w1v + zv @ w4v, (keys, d, pair_rows, w1, w2, w3, w4), backward)


def map_tensors(obj, fn, prefix: str = ""):
    """Rebuild a parameter container with each leaf tensor replaced by
    ``fn(name, tensor)``; ``name`` is the leaf's dotted path below
    ``prefix`` (``encoder.w``, ``asnn.0.b``), and a None field stays None.
    A dataclass container is walked in the order of its fields, which is
    the order its ``__init__`` sets its attributes in."""
    if isinstance(obj, (np.ndarray, Node)):
        return fn(prefix, obj)
    if obj is None:
        return None
    if isinstance(obj, MlpParams):
        return MlpParams([map_tensors(layer, fn, f"{prefix}.{k}")
                          for k, layer in enumerate(obj.layers)])
    return type(obj)(**{name: map_tensors(value, fn, f"{prefix}.{name}")
                        for name, value in vars(obj).items()})


def named_tensors(obj, prefix: str) -> dict:
    """Flatten a parameter container into {name: tensor}, in the order of
    ``map_tensors``."""
    out: dict = {}
    map_tensors(obj, out.__setitem__, prefix)
    return out

"""LSTM, multilayer perceptron, scorers and parameter initializers.

Everything here works on plain arrays, the model's tensors included, and
records nothing.  The forward passes ``lstm_sequence`` (the encoder),
``lstm_step``, ``softmax``, ``mlp_values``, ``pair_terms``, ``pair_scores``
and ``pointer_scores`` compute the model's values and keep what their
backward passes read, a decoder step's in its rows of the step arrays,
which it gives them as ``out``.  The backward passes
``lstm_sequence_backward``, ``lstm_factors``/``lstm_backward_step``,
``mlp_backward``, ``PairScoresBackward`` and ``pointer_scores_backward``
hand a ``Grads`` their weight gradients; they run inside the one backward
pass that ``predictor.forward_logprob`` records per route, which runs the
decoder's, the pair MLP's and the encoder's in turn.  The pair MLP splits
its first layer by columns: the terms of the route-constant blocks are
formed once per route (``pair_terms``) and each step adds its query's term
to them (``pair_scores``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, NumericError
from .autodiff import STACK_ROWS, Grads


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


def _sigmoid_np(x, out):
    """The logistic function, branch-free: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below, both from e = exp(-|x|), so no exp overflows, and
    with one division, into ``out``."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def lstm_step(w, u, b, x, h, c, out) -> LstmState:
    """One LSTM step on plain arrays, from the weights, the input ``x`` and
    the state (``h``, ``c``): ``z = W x + U h + b``; the logistic gates f, i
    and o; the candidate cell value ``g = tanh(z_c)``; ``c_new = f*c + i*g``
    and ``tanh(c_new)``; and ``h_new = o*tanh(c_new)``, the step's values,
    in that order, each written into its row of ``out`` (7, hidden,
    C-contiguous).  Returns the new state, ``h_new`` and ``c_new``."""
    z = w @ x + u @ h + b
    n = len(c)
    f, i, o, g, c_new, t, h_new = out
    _sigmoid_np(z[:3 * n], out[:3].reshape(-1))
    np.tanh(z[3 * n:], out=g)
    np.multiply(f, c, out=c_new)
    c_new += i * g
    np.multiply(o, np.tanh(c_new, out=t), out=h_new)
    return LstmState(h_new, c_new)


def lstm_factors(steps, c0):
    """The gate-derivative factors of the consecutive ``lstm_step`` values
    ``steps`` (m, 7, hidden) from the cell state ``c0``: per step the
    forget gate f, dz/d(c, c, h, c) and dc/dh (see
    ``lstm_backward_step``)."""
    f, i, o, g, c_all, t, _ = steps.transpose(1, 0, 2)
    c_prev = np.vstack([c0, c_all[:-1]])
    dz_dch = np.concatenate([c_prev * f * (1.0 - f), g * i * (1.0 - i),
                             t * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
    return f, dz_dch, o * (1.0 - t * t)


def lstm_backward_step(k, dh, dc, factors, u, gz):
    """Step ``k`` of backpropagation through time over ``lstm_factors``
    ``factors``: from the gradients ``dh`` and ``dc`` of the step's new
    hidden and cell states (every use of them summed), writes the gate
    gradient ``dz = [dc, dc, dh, dc] * dz_dch`` into ``gz[k]``, ``dc``
    having taken up ``dh * dc_dh`` first, and returns the gradients of the
    state before the step, ``Uᵀ dz`` and ``dc * f``."""
    f, dz_dch, dc_dh = factors
    dc = dc + dh * dc_dh[k]
    np.multiply(np.concatenate([dc, dc, dh, dc]), dz_dch[k], out=gz[k])
    return u.T @ gz[k], dc * f[k]


def lstm_sequence(x, state: LstmState, params: LstmCellParams):
    """The LSTM over the rows of ``x`` (n, input) from ``state``: returns the
    outputs (n, hidden), the final state and the ``lstm_step`` values of
    every row (n, 7, hidden), which ``lstm_sequence_backward`` reads."""
    if not np.all(np.isfinite(x)):
        raise NumericError("lstm_sequence received a non-finite input")
    w, u, b = params.w, params.u, params.b
    steps = np.empty((len(x), 7, len(state.h)))
    for xt, out in zip(x, steps):
        state = lstm_step(w, u, b, xt, state.h, state.c, out)
    return steps[:, 6].copy(), state, steps


def lstm_sequence_backward(x, state: LstmState, params: LstmCellParams, steps, g_out, dh, dc,
                           grads: Grads) -> None:
    """Backpropagation through time over the ``lstm_sequence`` values
    ``steps`` of the rows ``x`` from ``state``, from the gradients of its
    outputs ``g_out`` (n, hidden) and of its final h and c (``dh``,
    ``dc``): one reverse loop over the steps, then the W and U rows of all
    steps and b's gradient handed to ``grads``."""
    factors = lstm_factors(steps, state.c)
    gz = np.empty_like(factors[1])
    for k in reversed(range(len(steps))):
        dh, dc = lstm_backward_step(k, dh + g_out[k], dc, factors, params.u, gz)
    grads.outer(params.w, gz, x, bias=params.b)
    grads.outer(params.u, gz, np.vstack([state.h, steps[:-1, 6]]))


def softmax(u, allowed=None):
    """Numerically stable softmax of a 1-d vector (max-subtracted), on
    plain arrays.

    ``allowed`` (boolean, same length) restricts the normalization to the
    entries it marks; every other entry gets probability exactly 0, and so
    a gradient of exactly 0 through the softmax's backward
    ``p * (g - g·p)``.
    """
    if u.ndim != 1 or u.shape[0] == 0:
        raise InvalidInputError("softmax expects a non-empty 1-d vector")
    if allowed is not None and (allowed.shape != u.shape or not allowed.any()):
        raise InvalidInputError("softmax mask must match the vector and allow an entry")
    allowed = True if allowed is None else allowed
    e = np.exp(np.where(allowed, u - u.max(where=allowed, initial=-np.inf), -np.inf))
    return e / e.sum()


def mlp_values(x, layers, out):
    """The MLP ``layers`` on a vector (d,) or on rows (m, d), on plain
    arrays: its output and each layer's input, each hidden layer's output
    computed in its array of ``out`` (one per hidden layer).  Each layer is
    ``W a + b`` (``a @ W.T + b`` for rows), ReLU on all but the last."""
    ins = []
    a = x
    for layer, dst in zip(layers, [*out, None], strict=True):  # the output's values are new
        ins.append(a)
        a = np.matmul(a, layer.w.T, out=dst) if x.ndim == 2 else np.matmul(layer.w, a, out=dst)
        if layer.b is not None:
            a += layer.b
        if layer is not layers[-1]:
            np.maximum(a, 0.0, out=a)
    return a, ins


def mlp_backward(layers, ins, g, grads: Grads):
    """Back through ``mlp_values`` from the output-gradient rows ``g`` (m,
    out), given the layer inputs ``ins`` of those rows: walks the layers in
    reverse, hands ``grads`` each layer's weight rows (``g`` with its input
    rows) and bias, and returns the input's gradient rows, ``g @ W`` of the
    first layer.  A hidden unit passes gradient where its ReLU output, the
    next layer's input, is positive (where its pre-activation is)."""
    last = len(layers) - 1
    for k in range(last, -1, -1):
        layer = layers[k]
        if k != last:
            g = g * (ins[k + 1] > 0.0)
        grads.outer(layer.w, g, ins[k], bias=layer.b)
        g = g @ layer.w
    return g


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
    keys: np.ndarray            # (n, k) the keys
    key_term: np.ndarray        # (n, hidden) W_k key + b
    queries: np.ndarray | None  # (s, q) route-constant queries, or None
    query_term: np.ndarray | None  # (s, hidden) W_q query, or None


def pair_terms(pair, keys, params: MlpParams, queries=None) -> PairTerms:
    """The route-constant terms of the pair MLP ``params`` over the pair rows
    ``pair`` (s, n, p) from s source nodes to the n keys ``keys`` (n, k),
    and of the queries (s, q) when they are route constants.  The first
    layer's columns are the pair, query and key blocks in that order.  The
    gradients of every block come from ``PairScoresBackward``, once per
    route."""
    layers = params.layers
    first = layers[0]
    w = first.w
    p, k = pair.shape[-1], keys.shape[1]
    q = w.shape[1] - p - k
    if q < 0 or (queries is not None and queries.shape[1] != q):
        raise InvalidInputError(f"pair MLP input width {w.shape[1]} does not match pair "
                                f"width {p}, key width {k} and the query")
    w_q, w_k = w[:, p:p + q], w[:, p + q:]
    key_term = keys @ w_k.T
    if first.b is not None:
        key_term = key_term + first.b
    return PairTerms(
        first=first,
        rest=MlpParams(layers[1:]),
        w_q=w_q,
        pair=pair,
        pair_term=(pair.reshape(-1, p) @ w[:, :p].T).reshape(*pair.shape[:2], -1),
        keys=keys,
        key_term=key_term,
        queries=queries,
        query_term=None if queries is None else queries @ w_q.T,
    )


def pair_scores(terms: PairTerms, src: int, d, out):
    """The pair MLP's score of every key from source node ``src`` with the
    query ``d`` (q,), or with the route-constant query of ``src`` when ``d``
    is None, on plain arrays: the value of the MLP over the rows [pair;
    query; key], its first layer's sum formed as ``pair_term[src] +
    key_term + W_q query``.  The later layers' inputs, which
    ``PairScoresBackward`` reads, are computed in the arrays ``out`` (n,
    width), one per later layer."""
    w_q = terms.w_q
    if d is None:
        q_term = terms.query_term[src]
    else:
        if d.shape != (w_q.shape[1],):
            raise InvalidInputError(f"pair MLP query shape {d.shape} does not match "
                                    f"({w_q.shape[1]},)")
        q_term = w_q @ d
    if not terms.rest.layers:  # a pair MLP of one layer scores with the sum itself
        return (terms.pair_term[src] + terms.key_term + q_term).reshape(-1)
    x = np.add(terms.pair_term[src], terms.key_term, out=out[0])
    x += q_term
    np.maximum(x, 0.0, out=x)
    return mlp_values(x, terms.rest.layers, out[1:])[0].reshape(-1)


class PairScoresBackward:
    """The pair MLP's backward pass over a route's scored ``pair_scores``
    steps, in three parts for the decoder's reverse loop.  It reads only the
    candidates with a non-zero probability (a masked softmax leaves the
    others at exactly 0, and with them their scores' gradients).

    Up front, each such row's score gradient is formed for a unit gradient
    of the score, over the rows of every step at once: the later layers'
    pre-activation gradients and the first layer's (``v``), one product per
    layer.  Scores are linear in that gradient, so in the loop a step's
    query gradient is ``W_qᵀ (s @ v)`` for its scores' gradient ``s``
    (``query``).  At the end, ``hand`` scales the rows by every step's
    ``s``, hands ``grads`` every layer's weight rows and bias, and runs the
    key term's backward pass, once."""

    def __init__(self, terms: PairTerms, srcs, queries, ins, probs):
        """``srcs`` holds each scored step's source node, ``queries`` its
        query (m, q), ``ins`` per later layer its ``pair_scores`` inputs (m,
        n, width) and ``probs`` its probabilities (m, n)."""
        self.terms = terms
        steps, self.pos = np.nonzero(probs)  # the rows, step by step
        self.ends = np.cumsum(np.count_nonzero(probs, axis=1)).tolist()
        self.pair = terms.pair[np.asarray(srcs)[steps], self.pos]
        self.queries = queries
        rest = terms.rest.layers
        self.ins = [a[steps, self.pos] for a in ins]
        # Per later layer, its pre-activation gradient rows for unit scores:
        # ones for the one-unit output layer, whose input gradient is then
        # its weight row in every row.
        g = np.ones((len(self.pos), 1))
        self.unit = [g]
        if rest:
            g = rest[-1].w
            for k in range(len(rest) - 2, -1, -1):
                g = g * (self.ins[k + 1] > 0.0)
                self.unit.insert(0, g)
                w = rest[k].w  # in stacks of STACK_ROWS rows, as Grads sums rows
                g = np.concatenate([g[a:a + STACK_ROWS] @ w for a in range(0, len(g), STACK_ROWS)])
            g = g * (self.ins[0] > 0.0)  # the first layer's ReLU output feeds the rest
        self.v = g
        self.s = np.empty(len(self.pos))
        self.gq = np.empty((len(probs), self.v.shape[1]))

    def query(self, k: int, s):
        """Step ``k``'s query gradient from its scores' gradient ``s``."""
        a, b = (self.ends[k - 1] if k else 0), self.ends[k]
        self.s[a:b] = s[self.pos[a:b]]
        self.gq[k] = self.s[a:b] @ self.v[a:b]
        return self.terms.w_q.T @ self.gq[k]

    def hand(self, grads: Grads, d_keys=None) -> None:
        """Hands ``grads`` the gradients of every layer, the first by its
        pair, query and key blocks (with ``b`` the key term's), and adds the
        keys' gradient into ``d_keys`` when it is given."""
        terms, s = self.terms, self.s[:, None]
        for layer, unit, x in zip(terms.rest.layers, self.unit, self.ins):
            grads.outer(layer.w, s * unit, x, bias=layer.b)
        g = s * self.v
        p, q = self.pair.shape[1], terms.w_q.shape[1]
        grads.outer(terms.first.w, g, self.pair)
        grads.outer(terms.first.w, self.gq, self.queries, p)
        key = np.zeros(terms.key_term.shape)  # each key's row: the sum over the steps
        for a, b in zip([0, *self.ends], self.ends):  # a step's positions are distinct
            key[self.pos[a:b]] += g[a:b]
        grads.outer(terms.first.w, key, terms.keys, p + q, bias=terms.first.b)
        if d_keys is not None:
            d_keys += key @ terms.first.w[:, p + q:]


def pointer_scores(kv, dv, zv, w1, w2, w3, w4, out):
    """Additive pointer scores with a linear local term, one per row of the
    keys K (n, h), on plain arrays: ``tanh(K W2ᵀ + W3 d)·w1 + Z·w4`` for
    the query d (h,) and the pair rows Z (n, p), the tanh, which
    ``pointer_scores_backward`` reads, computed in ``out`` (n, att)."""
    t = np.tanh(kv @ w2.T + w3 @ dv, out=out)
    return t @ w1 + zv @ w4


def pointer_scores_backward(kv, dv, zv, t, weights, g, grads: Grads, d_keys):
    """Back through one ``pointer_scores`` step with the tanh ``t`` from the
    scores' gradient ``g``: hands ``grads`` the gradients of ``weights``
    (w1, w2, w3, w4), adds the keys' into ``d_keys`` and returns the
    query's."""
    w1, w2, w3, w4 = weights
    grads.add(w4, zv.T @ g)
    grads.add(w1, t.T @ g)
    gs = np.outer(g, w1) * (1.0 - t * t)
    gq = gs.sum(axis=0)
    grads.outer(w3, gq[None], dv[None])
    d_keys += gs @ w2
    grads.outer(w2, gs, kv)
    return w3.T @ gq


def map_tensors(obj, fn, prefix: str = ""):
    """Rebuild a parameter container with each leaf tensor replaced by
    ``fn(name, tensor)``; ``name`` is the leaf's dotted path below
    ``prefix`` (``encoder.w``, ``asnn.0.b``), and a None field stays None.
    A dataclass container is walked in the order of its fields, which is
    the order its ``__init__`` sets its attributes in."""
    if isinstance(obj, np.ndarray):
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

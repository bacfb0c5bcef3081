"""Sequence models over zone instances.

Four variants share one parameter container and one teacher-forced
log-likelihood:

- ``pairwise``: LSTM encoder/decoder with pair-wise attention scored by a
  shared MLP applied per candidate to [pair features; decoder output;
  encoder output].  The main model.
- ``pointer``: classic additive pointer attention W1'tanh(W2 e_j + W3 d)
  augmented with a linear local term W4 [pair features].
- ``lstm_ed``: plain LSTM encoder-decoder; a fully-connected head over
  input-sequence positions (width = the largest route size seen in
  training), masked to the route's unvisited positions when decoding.
- ``asnn``: no recurrence; the same pair MLP scores [pair features;
  previous zone's features; candidate's features].

The variants differ only in how one decoder step scores its candidates
(``_scores``); everything else is one decoder loop (``decode``) that
training and decoding share.  Every variant indexes its candidates by
*input position* (the encoder reading order): ``scale_route(prep, params)``
reads a route in the model's own reading order and scaling, and per-step
probabilities are mapped back to zone-index order for the traces and for
picking.  ``decode`` keeps one candidate mask: at every step one masked
softmax turns the scores into probabilities over the zones not yet visited
only, so visited zones get probability exactly 0 and the context fed to the
next step is the same quantity in training and decoding.  A step with one
candidate left gives it probability 1 unscored, and every decoding starts
from ``first_step``, the depot's step before any pick, which rollouts share.
``first_step`` also forms the pair MLP's route-constant terms
(``_pair_terms``): its first layer's weight split by columns, the pair
features and the keys go through it once per route, and a step adds only
its query's term.  It makes the route's step arrays too, into which every
scored step computes its values, row k for step k: a decoding has one
forward path, whether a backward pass reads the rows or not.

The model's tensors are plain arrays, and everything runs on plain arrays.
Given a tape, ``forward_logprob`` records one backward pass per route
(``_decode_backward``), from ``nll``'s gradient rows of the scored steps'
stacked probabilities.  It runs the route's chain back in one function:
the decoder's steps in reverse (masked softmax, scorer, decoder LSTM), the
pair MLP's key term and the encoder, and hands every weight gradient over
once, to the tape's ``grads``.  A decoding's traces are built when first
read (``StepTraces``), so training, which reads none, builds none.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import domain
from .domain import N_PAIR_FEATURES, ZoneInstance, build_zone_instance, node_features, pair_tensor
from .errors import ConfigError, InvalidInputError, NumericError, SchemaError
from .kernel import (
    Grads,
    LstmCellParams,
    MlpParams,
    Tape,
    checkpoint_id,
    deserialize_checkpoint,
    flat_views,
    init_lstm,
    init_mlp,
    lstm_backward_step,
    lstm_factors,
    lstm_sequence,
    lstm_sequence_backward,
    lstm_step,
    map_tensors,
    mlp_backward,
    mlp_values,
    named_tensors,
    nll,
    PairScoresBackward,
    pair_scores,
    pair_terms,
    pointer_scores,
    pointer_scores_backward,
    serialize_checkpoint,
    softmax,
    uniform_init,
    zero_state,
)
from .tsp import solve_tour

VARIANTS = ("pairwise", "pointer", "lstm_ed", "asnn")
INPUT_ORDER_MODES = ("tsp", "random")
N_FEATURES = len(domain.ZONE_FEATURE_NAMES)  # every model reads these and N_PAIR_FEATURES


@dataclass
class ModelConfig:
    variant: str
    hidden: int = 32
    asnn_hidden: tuple = (128, 128)
    att_dim: int = 32
    kz: int | None = None            # lstm_ed head width
    input_order_mode: str = "tsp"
    order_seed: int = 0

    def __post_init__(self):
        # Checked where a config is made, ``dataclasses.replace`` included.
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.input_order_mode not in INPUT_ORDER_MODES:
            raise ConfigError(f"unknown input order mode {self.input_order_mode!r}")
        if self.kz is not None and self.variant != "lstm_ed":
            raise ConfigError(f"kz is the lstm_ed head width; {self.variant} has no such head")
        if self.variant == "lstm_ed" and self.kz is None:
            raise ConfigError("lstm_ed requires kz (the largest route size in training)")
        if not isinstance(self.asnn_hidden, (tuple, list)):
            raise ConfigError(f"asnn_hidden must be a sequence of widths, got {self.asnn_hidden!r}")
        self.asnn_hidden = tuple(self.asnn_hidden)
        # Layer widths; a JSON boolean or float is not one.
        widths = [("hidden", self.hidden), ("att_dim", self.att_dim),
                  ("kz", 1 if self.kz is None else self.kz),
                  *(("asnn_hidden", v) for v in self.asnn_hidden)]
        for name, value in widths:
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")
        if type(self.order_seed) is not int:
            raise ConfigError(f"order_seed must be an integer, got {self.order_seed!r}")


@dataclass(eq=False)
class PointerParams:
    w1: object  # (att_dim,)
    w2: object  # (att_dim, hidden)
    w3: object  # (att_dim, hidden)
    w4: object  # (pair_dim,)


@dataclass(eq=False)
class FeatureScaler:
    """Per-dimension standardization fitted on the training split."""

    x_mean: np.ndarray
    x_std: np.ndarray
    z_mean: np.ndarray
    z_std: np.ndarray

    def transform_x(self, x):
        return (x - self.x_mean) / self.x_std

    def transform_z(self, z):
        return (z - self.z_mean) / self.z_std


@dataclass(eq=False)
class ModelParams:
    """All learnable tensors of one variant plus its dimension config."""

    config: ModelConfig
    scaler: FeatureScaler
    encoder: LstmCellParams | None = None
    decoder: LstmCellParams | None = None
    asnn: MlpParams | None = None
    pointer: PointerParams | None = None
    fc: MlpParams | None = None


@dataclass(eq=False)
class DecoderStepTrace:
    step: int
    attention: np.ndarray   # probability per zone (zone-index order)
    chosen: int             # zone index
    context: np.ndarray | None


@dataclass(eq=False)
class PreparedRoute:
    """Route plus everything the models read: raw feature tensors, the
    planned (TSP) reading order, and the actual zone sequence."""

    route: object
    zinst: ZoneInstance
    nodes: np.ndarray     # (n+1, K) raw node features; row 0 = depot, 1+k = zone k
    pair: np.ndarray      # (n+1, n, pair_dim); source 0 = depot, 1+k = zone k
    tsp_order: tuple
    targets: tuple        # actual zone sequence (zone indices)

    @property
    def n_zones(self) -> int:
        return len(self.zinst.zones)


@dataclass(eq=False)
class ScaledRoute:
    """A prepared route's scaled features in reading order: node 0 is the
    depot and node k+1 the zone at input position k."""

    prep: PreparedRoute
    order: tuple              # encoder reading order (zone indices)
    pos_of_zone: np.ndarray   # inverse of ``order``
    nodes: np.ndarray         # (n+1, K)
    pair: np.ndarray          # (n+1, n, pair_dim); node -> input position


def prepare_route(route) -> PreparedRoute:
    zinst = build_zone_instance(route)
    tour = solve_tour(zinst.zone_travel_time, origin=0)
    tsp_order = tuple(v - 1 for v in tour.order[1:])
    return PreparedRoute(route, zinst, node_features(route, zinst), pair_tensor(zinst),
                         tsp_order, tuple(zinst.actual_zone_sequence))


def identity_scaler() -> FeatureScaler:
    return FeatureScaler(np.zeros(N_FEATURES), np.ones(N_FEATURES),
                         np.zeros(N_PAIR_FEATURES), np.ones(N_PAIR_FEATURES))


def fit_scaler(prepared: list) -> FeatureScaler:
    """Means/stds over all zone (and depot) feature rows and all directed
    pair rows of the given routes.  Constant dimensions get unit scale."""
    xs = np.concatenate([[p.nodes[0] for p in prepared], *(p.nodes[1:] for p in prepared)])
    # The synthetic self-pair rows (source 1+k, zone k) stay out of the stats.
    zs = np.concatenate([p.pair[~np.eye(p.n_zones + 1, p.n_zones, -1, dtype=bool)]
                         for p in prepared])

    def _std(a):
        s = a.std(axis=0)
        return np.where(s < 1e-9, 1.0, s)

    return FeatureScaler(xs.mean(axis=0), _std(xs), zs.mean(axis=0), _std(zs))


def random_input_order(route_id: str, n: int, seed: int) -> tuple:
    """Seed-stable per-route permutation (independent of dataset order)."""
    digest = hashlib.sha256(f"{seed}:{route_id}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return tuple(int(v) for v in rng.permutation(n))


def scale_route(prep: PreparedRoute, params: ModelParams) -> ScaledRoute:
    """The route as ``params`` reads it: in its config's order, scaled by its scaler."""
    cfg = params.config
    order = prep.tsp_order if cfg.input_order_mode == "tsp" else \
        random_input_order(prep.route.route_id, prep.n_zones, cfg.order_seed)
    rows = [0, *(z + 1 for z in order)]
    return ScaledRoute(
        prep=prep,
        order=order,
        pos_of_zone=np.argsort(order),
        nodes=params.scaler.transform_x(prep.nodes[rows]),
        pair=params.scaler.transform_z(prep.pair[rows][:, list(order)]),
    )


def init_model(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters: uniform(+-1/sqrt(fan_in)) weights, zero biases
    except the LSTM forget gates' (1, see ``init_lstm``)."""
    k, h = N_FEATURES, config.hidden
    params = ModelParams(config=config, scaler=identity_scaler())
    if config.variant in ("pairwise", "pointer", "lstm_ed"):
        params.encoder = init_lstm(k, h, rng)
        dec_in = k if config.variant == "lstm_ed" else k + h
        params.decoder = init_lstm(dec_in, h, rng)
    if config.variant in ("pairwise", "asnn"):
        key_dim = h if config.variant == "pairwise" else k
        params.asnn = init_mlp((N_PAIR_FEATURES + 2 * key_dim, *config.asnn_hidden, 1), rng)
        # The softmax ignores a shift shared by all scores, so an output
        # bias would get zero gradient: the pair MLP has none.
        params.asnn.layers[-1].b = None
    elif config.variant == "pointer":
        a = config.att_dim
        params.pointer = PointerParams(
            w1=uniform_init(rng, (a,), a),
            w2=uniform_init(rng, (a, h), h),
            w3=uniform_init(rng, (a, h), h),
            w4=uniform_init(rng, (N_PAIR_FEATURES,), N_PAIR_FEATURES),
        )
    elif config.variant == "lstm_ed":
        params.fc = init_mlp((h, config.kz), rng)
    return params


# The learnable components of ``ModelParams``, in the order of their tensor names.
_COMPONENTS = ("encoder", "decoder", "asnn", "pointer", "fc")


def model_tensors(params: ModelParams) -> dict:
    """Flat {name: tensor} view of every learnable tensor."""
    out: dict = {}
    for name in _COMPONENTS:
        map_tensors(getattr(params, name), out.__setitem__, name)
    return out


def flatten_model(params: ModelParams) -> np.ndarray:
    """Move the learnable tensors into one buffer, returned, each becoming
    its view (``flat_views``, in ``model_tensors`` order)."""
    tensors = model_tensors(params).values()
    flat = np.concatenate([t.ravel() for t in tensors])
    views = iter(flat_views(flat, tensors))
    for name in _COMPONENTS:
        setattr(params, name, map_tensors(getattr(params, name), lambda *_: next(views)))
    return flat


def encode(params: ModelParams, scaled: ScaledRoute):
    """The route's attention keys by input position, the decoder's initial
    state and the encoder's steps, as ``(keys, state, steps)``.  The
    recurrent variants run the encoder over the scaled features in reading
    order, from a zero initial state: its stacked outputs, final LSTM state
    and ``lstm_step`` values.  ``asnn`` keys on the scaled zone features and
    has no state and no steps."""
    if params.config.variant == "asnn":
        return scaled.nodes[1:], None, None
    return lstm_sequence(scaled.nodes[1:], zero_state(params.config.hidden), params.encoder)


def _pair_terms(params: ModelParams, scaled: ScaledRoute, keys):
    """The pair MLP's route-constant terms (``kernel.pair_terms``) over the
    route's pair rows and the ``encode`` keys, with ``asnn``'s queries, the
    node features; None for the variants without the pair MLP."""
    if params.asnn is None:
        return None
    queries = scaled.nodes if params.config.variant == "asnn" else None
    return pair_terms(scaled.pair, keys, params.asnn, queries)


def _scores(params: ModelParams, scaled: ScaledRoute, src: int, d, keys, terms, out):
    """One decoder step's scores by input position (by head slot for
    ``lstm_ed``), from the last stop's node ``src``, the query ``d``, the
    keys ``keys`` and the route's ``_pair_terms``, on plain arrays, the
    inputs of the scorer's later layers computed in the step's rows ``out``
    (see ``DecoderInputs.ins``).  ``pointer`` adds its linear local term on
    the pair features from ``src`` to the additive attention; ``lstm_ed``
    scores with its fully-connected head; ``pairwise`` and ``asnn`` score
    [pair features from ``src``; query; key] per candidate with the shared
    pair MLP, whose pair and key terms ``terms`` holds (``asnn``'s query,
    node ``src``'s features, too)."""
    variant = params.config.variant
    if variant == "pointer":
        p = params.pointer
        return pointer_scores(keys, d, scaled.pair[src], p.w1, p.w2, p.w3, p.w4, out[0])
    if variant == "lstm_ed":
        return mlp_values(d, params.fc.layers, out)[0]
    return pair_scores(terms, src, None if variant == "asnn" else d, out)


def decode_step(params: ModelParams, x_last, w_prev, state, out):
    """One decoder LSTM step on [features of the last stop; context] (the
    lstm_ed variant feeds the features alone) from the state (``h``,
    ``c``), on plain arrays: the new state.  The input row and the step's
    ``lstm_step`` values are written into its rows ``out``, the arrays
    (in,) and (7, hidden)."""
    parts = [x_last] if params.config.variant == "lstm_ed" else [x_last, w_prev]
    x = np.concatenate(parts, out=out[0])
    if not np.isfinite(x).all():
        raise NumericError("the decoder LSTM received a non-finite input vector")
    dec = params.decoder
    return lstm_step(dec.w, dec.u, dec.b, x, state.h, state.c, out[1])


def _mask(params: ModelParams, scaled: ScaledRoute) -> np.ndarray:
    """A route's candidate mask before any pick: by input position, or by
    head slot for ``lstm_ed`` (true for the slots the route's zones fill)."""
    n = scaled.prep.n_zones
    return np.arange(n if params.config.kz is None else params.config.kz) < n


@dataclass(eq=False)
class DecoderInputs:
    """What every decoder step of a route reads besides its own state, and
    the step arrays that its scored steps write, row ``k`` for step ``k``
    (``ins`` holds the pair MLP's later layers' inputs or the pointer's
    tanh; ``x`` and ``lstm`` are 0 wide for ``asnn``, which has no LSTM)."""

    encoded: tuple     # ``encode``'s (keys, state, steps)
    terms: object      # ``_pair_terms``, None without the pair MLP
    ins: list          # the scorer's later layers' inputs, each (m, n, width)
    x: np.ndarray      # the decoder LSTM's input rows (m, in)
    lstm: np.ndarray   # the decoder LSTM's ``lstm_step`` values (m, 7, hidden)


def _step(params: ModelParams, scaled: ScaledRoute, inputs: DecoderInputs, state, i: int,
          src: int, w_prev, allowed):
    """Step ``i`` from the last stop's node ``src`` over the candidates
    ``allowed``, on plain arrays: the decoder state after it, the
    probabilities by input position (by head slot for ``lstm_ed``), the
    context the next step reads (``pairwise`` and ``pointer``, else None)
    and whether it was scored; a scored step writes row ``i`` of the step
    arrays.  The query is node ``src``'s features, through the decoder LSTM
    for the recurrent variants (``asnn`` has no state), and a masked
    softmax scores the candidates.  That softmax would give one candidate
    exactly 1, and with none (an ``lstm_ed`` head narrower than the route,
    its slots visited) every probability is 0, so then ``allowed`` is taken
    as the probabilities and neither the LSTM nor the scorer runs."""
    scored = np.count_nonzero(allowed) > 1
    if scored:
        d = scaled.nodes[src]
        if state is not None:
            state = decode_step(params, d, w_prev, state, (inputs.x[i], inputs.lstm[i]))
            d = state.h
        # softmax keeps no reference to the mask, so decode clears it in place.
        probs = softmax(_scores(params, scaled, src, d, inputs.encoded[0], inputs.terms,
                                [a[i] for a in inputs.ins]), allowed)
    else:
        probs = allowed.astype(np.float64)
    w_ctx = probs @ inputs.encoded[0] if params.config.variant in ("pairwise", "pointer") else None
    return state, probs, w_ctx, scored


def first_step(params: ModelParams, scaled: ScaledRoute, encoded):
    """Where every decoding of the route starts, from its ``encode`` result
    ``encoded``: the ``DecoderInputs``, with the pair MLP's route-constant
    terms (``_pair_terms``) and the step arrays of the at most n - 1 scored
    steps of an n-zone route, and step 0, the depot's query over all the
    zones, which comes before any pick and writes row 0.  Rollouts of one
    route that start from the same ``first_step`` share it: each writes
    rows 1 on, and reads only the rows it wrote and row 0."""
    keys, state, _ = encoded
    n, dec = scaled.prep.n_zones, params.decoder
    m = max(n - 1, 0)
    widths = ([layer.w.shape[1] for layer in params.asnn.layers[1:]] if params.asnn
              else [len(params.pointer.w1)] if params.pointer else [])
    inputs = DecoderInputs(encoded, _pair_terms(params, scaled, keys),
                           [np.empty((m, n, width)) for width in widths],
                           np.empty((m, dec.w.shape[1] if dec else 0)),
                           np.empty((m, 7, params.config.hidden if dec else 0)))
    return inputs, _step(params, scaled, inputs, state, 0, 0, np.zeros(params.config.hidden),
                         _mask(params, scaled))


def zone_probs(scaled: ScaledRoute, probs) -> np.ndarray:
    """A step's probabilities by input position (head slot) by zone index."""
    pos = scaled.pos_of_zone  # a zone without a head slot (pos >= width) gets 0
    return probs[pos] if len(probs) >= len(pos) else np.where(
        pos < len(probs), probs.take(pos, mode="clip"), 0.0)


class StepTraces(Sequence):
    """A decoding's ``DecoderStepTrace`` per step, built on the first read
    from each step's (probabilities by input position, pick, context)."""

    def __init__(self, scaled: ScaledRoute):
        self.scaled, self.steps = scaled, []

    @functools.cached_property
    def _traces(self) -> list:
        return [DecoderStepTrace(i, zone_probs(self.scaled, probs), chosen, w_ctx)
                for i, (probs, chosen, w_ctx) in enumerate(self.steps)]

    def __getitem__(self, i):
        return self._traces[i]

    def __len__(self) -> int:
        return len(self.steps)


def decode(params: ModelParams, scaled: ScaledRoute, start, pick):
    """The decoder loop that training and inference share, from the route's
    ``first_step`` result ``start``.

    Every step's softmax runs over one candidate mask by input position (by
    head slot for ``lstm_ed``): the unvisited zones', so visited zones get
    probability exactly 0, and the context fed to the next step is the same
    masked weighting whether the step was teacher-forced or decoded.  A step
    with one candidate left is not scored (``_step``), so an n-zone route
    scores n - 1 steps, the first in ``start``, and the scored steps come
    first.  ``pick(i, probs)`` names the zone visited at step ``i`` from the
    step's probabilities by input position.

    Returns ``(probs, traces, srcs)``: the scored steps' probabilities by
    input position stacked (m, width), the ``StepTraces`` and the scored
    steps' source nodes, which ``_decode_backward`` reads besides the step
    arrays that the scored steps write.
    """
    n = scaled.prep.n_zones
    inputs, (state, probs, w_ctx, scored) = start
    allowed = _mask(params, scaled)
    width = len(allowed)
    rows, srcs = [], []  # the scored steps' probabilities and source nodes
    traces = StepTraces(scaled)
    src = 0  # node of the last stop: the depot, then the last zone picked
    for i in range(n):
        if i:
            state, probs, w_ctx, scored = _step(params, scaled, inputs, state, i, src, w_ctx,
                                                allowed)
        if scored:
            rows.append(probs)
            srcs.append(src)
        chosen = pick(i, probs)
        traces.steps.append((probs, chosen, w_ctx))
        pos = int(scaled.pos_of_zone[chosen])
        if pos < width:
            allowed[pos] = False
        src = pos + 1
    return np.stack(rows) if rows else np.zeros((0, width)), traces, srcs


def _decode_backward(params: ModelParams, scaled: ScaledRoute, inputs: DecoderInputs, srcs,
                     probs, g, out: dict):
    """The decoder's backward pass from the gradient ``g`` of the scored
    steps' stacked probabilities ``probs``: one reverse loop over the steps,
    each through its masked softmax, its scorer and (recurrent variants) the
    decoder LSTM, whose gradient reaches the step before through the LSTM
    state and through the context it read; then the pair MLP's key term
    and the encoder, from the keys' gradients (the contexts' ``Pᵀ·dC`` and
    the key term's included) and the final state's.  The steps' values are
    read from the step arrays, their source nodes from ``srcs`` (``decode``'s),
    and every weight gradient is handed to ``out`` (the tape's ``grads``)
    once, at the end."""
    grads = Grads()
    keys, state, encoder = inputs.encoded
    m = len(srcs)
    d_keys = np.zeros_like(keys)
    has_context = params.config.variant in ("pairwise", "pointer")
    if has_context:
        d_ctx = np.zeros((m, keys.shape[1]))  # gradient of each step's context
    if state is not None:
        lstms = inputs.lstm[:m]
        factors = lstm_factors(lstms, state.c)
        gz = np.empty_like(factors[1])
        dec = params.decoder
        u, w_ctx = dec.u, dec.w[:, N_FEATURES:]
        dh = dc = 0.0
    pair = None if inputs.terms is None else PairScoresBackward(
        inputs.terms, srcs, inputs.terms.queries[srcs] if state is None else lstms[:, 6],
        [a[:m] for a in inputs.ins], probs)
    for k in range(m - 1, -1, -1):
        p, gp = probs[k], g[k]
        if has_context:
            gp = gp + keys @ d_ctx[k]
        s = p * (gp - gp @ p)
        if pair:
            dq = pair.query(k, s)
        elif params.pointer:
            w = params.pointer
            dq = pointer_scores_backward(keys, lstms[k, 6], scaled.pair[srcs[k]], inputs.ins[0][k],
                                         (w.w1, w.w2, w.w3, w.w4), s, grads, d_keys)
        else:  # the lstm_ed head
            dq = mlp_backward(params.fc.layers, [lstms[k, 6][None]], s[None], grads)[0]
        if state is not None:
            dh, dc = lstm_backward_step(k, dh + dq, dc, factors, u, gz)
            if has_context and k:
                d_ctx[k - 1] = gz[k] @ w_ctx
    if has_context:
        d_keys += probs.T @ d_ctx
    if state is not None:
        grads.outer(dec.w, gz, inputs.x[:m], bias=dec.b)
        grads.outer(dec.u, gz, np.vstack([state.h, lstms[:-1, 6]]))
    if pair:
        pair.hand(grads, None if encoder is None else d_keys)
    if encoder is not None:
        lstm_sequence_backward(scaled.nodes[1:], zero_state(params.config.hidden),
                               params.encoder, encoder, d_keys, dh, dc, grads)
    grads.hand(out)


def forward_logprob(params: ModelParams, scaled: ScaledRoute, tape: Tape | None = None):
    """Teacher-forced total negative log-likelihood of the actual zone
    sequence, with per-step traces.

    Step ``i`` normalizes over the zones not yet visited in the target
    prefix (see ``decode``), the distribution that greedy decoding picks
    from; the last step has one zone left and adds exactly 0, so ``nll``
    reads the scored steps only.  The loss is a 0-d array.  Given a
    ``tape``, the route's backward pass is recorded on it, and
    ``tape.backward()`` hands the gradients of the model's tensors to
    ``tape.grads``.  A one-zone route scores no step, so its loss, 0,
    depends on no parameter and records nothing.  An ``lstm_ed`` head
    narrower than the route has no slot for some target: an
    ``InvalidInputError``.
    """
    n = scaled.prep.n_zones
    targets = scaled.prep.targets
    if sorted(targets) != list(range(n)):
        raise InvalidInputError("target sequence must be a permutation of the zones")
    if n > len(_mask(params, scaled)):
        raise InvalidInputError(f"a route of {n} zones does not fit the lstm_ed head "
                                f"of {params.config.kz} slots")
    start = first_step(params, scaled, encode(params, scaled))
    probs, traces, srcs = decode(params, scaled, start, lambda i, _: targets[i])
    loss, g = nll(probs, scaled.pos_of_zone[list(targets[:len(probs)])])
    if tape is not None and srcs:
        grads = tape.grads  # not the tape: the tape holds this pass, so that would be a cycle
        tape.record(lambda: _decode_backward(params, scaled, start[0], srcs, probs, g, grads))
    return loss, traces


# --- checkpoint round trip ---------------------------------------------------

def model_meta(params: ModelParams) -> dict:
    return {**asdict(params.config), "n_features": N_FEATURES, "pair_dim": N_PAIR_FEATURES,
            "zone_feature_names": list(domain.ZONE_FEATURE_NAMES)}


def checkpoint_tensors(params: ModelParams) -> dict:
    return {**model_tensors(params), **named_tensors(params.scaler, "scaler")}


def params_from_checkpoint(tensors: dict, meta: dict) -> ModelParams:
    """Rebuild a model from checkpoint tensors and meta.  The meta's
    ``n_features``, ``pair_dim`` and ``zone_feature_names`` must equal the
    code's, else a ``SchemaError`` names the key (``meta.<key>``).  ``init_model``
    gives the variant's tensor names and shapes; each is filled from the
    tensor of that name, whose values must be finite (a scaler's standard
    deviations positive), and tensors the model does not name are ignored
    (such as the pair MLP's output bias ``asnn.<last>.b`` in older files).
    A checkpoint written before the LSTM gates were stacked holds an LSTM's
    ``w``, ``u`` and ``b`` as four per-gate tensors (``encoder.w_f`` ...),
    which are stacked in the order f, i, o, c."""
    try:
        config = ModelConfig(
            variant=meta["variant"],
            hidden=meta["hidden"],
            asnn_hidden=meta["asnn_hidden"],
            att_dim=meta["att_dim"],
            kz=meta.get("kz"),
            input_order_mode=meta.get("input_order_mode", "tsp"),
            order_seed=meta.get("order_seed", 0),
        )
    except KeyError as exc:
        raise SchemaError("meta", f"missing field {exc}") from exc
    except ConfigError as exc:
        raise SchemaError("meta", str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError("meta", f"malformed field: {exc}") from exc
    params = init_model(config, np.random.default_rng(0))
    expected = model_meta(params)
    for key in ("n_features", "pair_dim", "zone_feature_names"):
        if type(meta.get(key)) is not type(expected[key]) or meta.get(key) != expected[key]:
            raise SchemaError(f"meta.{key}", f"expected {expected[key]!r}, got {meta.get(key)!r}")
    for name, dst in checkpoint_tensors(params).items():
        if name in tensors or f"{name}_f" not in tensors:
            sources = [(name, dst.shape)]
        else:
            sources = [(f"{name}_{g}", (dst.shape[0] // 4, *dst.shape[1:])) for g in "fioc"]
        for src, shape in sources:
            if src not in tensors:
                raise SchemaError(f"tensors.{src}", "missing tensor")
            if tensors[src].shape != shape:
                raise SchemaError(f"tensors.{src}",
                                  f"expected shape {shape}, got {tensors[src].shape}")
            if not np.isfinite(tensors[src]).all():
                raise SchemaError(f"tensors.{src}", "non-finite value")
            if src.startswith("scaler.") and src.endswith("_std") and (tensors[src] <= 0.0).any():
                raise SchemaError(f"tensors.{src}", "standard deviation not positive")
        dst[...] = np.concatenate([tensors[src] for src, _ in sources])
    return params


def save_model(params: ModelParams, path) -> str:
    """Write the model's checkpoint file; returns the checkpoint id."""
    raw = serialize_checkpoint(checkpoint_tensors(params), model_meta(params))
    Path(path).write_bytes(raw)
    return checkpoint_id(raw)


def load_model(path) -> ModelParams:
    return params_from_checkpoint(*deserialize_checkpoint(Path(path).read_bytes()))

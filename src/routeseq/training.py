"""Dataset splitting and the per-route stochastic training loop.

``train`` returns the trained model and its report and writes no file;
``predictor.save_model`` writes the checkpoint.  A ``train`` call keeps its
state in three flat buffers: the model's tensors become views of one, the
one tape that records each route's backward pass (emptied before each)
hands their gradients into views of another, and ``adam_step`` updates
the first in one pass with Adam's moments in the third.  A one-zone route
records no pass, so its step's gradients are all 0.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError
from .kernel import (
    Tape,
    adam_init,
    adam_step,
    checkpoint_id,
    clip_gradients,
    serialize_checkpoint,
)
from .predictor import (
    ModelConfig,
    checkpoint_tensors,
    fit_scaler,
    flatten_model,
    forward_logprob,
    init_model,
    model_meta,
    model_tensors,
    prepare_route,
    scale_route,
)


@dataclass
class TrainConfig:
    variant: str = "pairwise"
    epochs: int = 30
    lr: float = 0.001
    seed: int = 0
    input_order: str = "tsp"        # encoder reading order: tsp | random
    hidden: int = ModelConfig.hidden
    asnn_hidden: tuple = ModelConfig.asnn_hidden
    att_dim: int = ModelConfig.att_dim
    grad_clip: float | None = None  # joint L2 norm cap; None disables


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)  # mean per-route NLL
    wall_time_s: float = 0.0
    checkpoint_id: str = ""
    n_routes: int = 0
    variant: str = ""

    def to_dict(self):
        return asdict(self)


def split_dataset(routes, fractions=(0.8, 0.2), seed: int = 0):
    """Seed-deterministic disjoint exhaustive shuffle split into train and
    test by the pair ``fractions``."""
    n = len(routes)
    if type(seed) is not int or seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {seed!r}")
    if n < 2:
        raise InvalidInputError("need at least 2 routes to split")
    if len(fractions) != 2:
        raise InvalidInputError(f"split fractions must be a (train, test) pair, got {fractions}")
    if not np.isfinite(fractions).all() or abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidInputError(f"split fractions must be finite and sum to 1, got {fractions}")
    n_train = int(round(fractions[0] * n))
    if n_train <= 0 or n_train >= n:
        raise InvalidInputError(f"fractions {fractions} produce an empty split for {n} routes")
    perm = np.random.default_rng(seed).permutation(n)
    train = [routes[i] for i in perm[:n_train]]
    test = [routes[i] for i in perm[n_train:]]
    return train, test


def train(routes, config: TrainConfig):
    """Train one model variant; returns (ModelParams, TrainReport).

    One Adam step per route, routes reshuffled every epoch, all randomness
    drawn from the config seed, so identical configs produce bit-identical
    checkpoints; ``report.checkpoint_id`` names the checkpoint bytes.
    """
    for name, least in (("epochs", 1), ("seed", 0)):
        value = getattr(config, name)
        if type(value) is not int or value < least:
            raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    if not routes:
        raise InvalidInputError("training set is empty")
    for name, value in (("lr", config.lr), ("grad_clip", config.grad_clip)):
        if value is not None and not (isinstance(value, (int, float))
                                      and np.isfinite(value) and value > 0):
            raise InvalidInputError(f"{name} must be finite and positive, got {value}")
    t0 = time.perf_counter()
    preps = [prepare_route(r) for r in routes]
    model_cfg = ModelConfig(
        variant=config.variant,
        hidden=config.hidden,
        asnn_hidden=config.asnn_hidden,
        att_dim=config.att_dim,
        kz=max(p.n_zones for p in preps) if config.variant == "lstm_ed" else None,
        input_order_mode=config.input_order,
        order_seed=config.seed,
    )
    rng = np.random.default_rng(config.seed)
    params = init_model(model_cfg, rng)
    params.scaler = fit_scaler(preps)
    scaled = [scale_route(p, params) for p in preps]

    flat = flatten_model(params)
    named = model_tensors(params)
    opt = adam_init(named, lr=config.lr)
    tape = Tape(named)
    epoch_losses = []
    for epoch in range(config.epochs):
        total = 0.0
        for idx in rng.permutation(len(scaled)):
            sc = scaled[idx]
            tape.reset()
            loss, _ = forward_logprob(params, sc, tape)
            value = float(loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1} on route "
                    f"{sc.prep.route.route_id!r}"
                )
            tape.backward()
            grads = tape.gradients(named)  # views of tape.grads.flat, 0 where no pass reached
            if config.grad_clip is not None:
                clip_gradients(grads, config.grad_clip)
            adam_step(flat, tape.grads.flat, opt)
            total += value
        epoch_losses.append(total / len(scaled))

    report = TrainReport(
        epoch_losses=epoch_losses,
        wall_time_s=time.perf_counter() - t0,
        checkpoint_id=checkpoint_id(serialize_checkpoint(checkpoint_tensors(params),
                                                         model_meta(params))),
        n_routes=len(routes),
        variant=config.variant,
    )
    return params, report

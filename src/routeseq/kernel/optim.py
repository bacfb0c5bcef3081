"""Adam optimizer over named parameter tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError

# Moment decay rates and the denominator's epsilon (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment accumulators mirroring the parameter shapes."""

    lr: float = 0.001
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict, lr: float = 0.001) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected Adam update, in place on the parameter arrays.

    All gradients are validated before anything is touched, so a non-finite
    gradient leaves parameters and state unchanged.
    """
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        return {name: g * factor for name, g in grads.items()}
    return grads

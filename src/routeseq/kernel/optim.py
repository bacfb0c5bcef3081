"""Adam over one flat buffer of parameters, in one pass of elementwise
operations (the bits of a tensor-by-tensor pass), and gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericError

# Moment decay rates and the denominator's epsilon (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """Adam's step count and moments over the tensors ``names`` laid end to
    end (the ``i``-th ends at ``ends[i]``)."""

    lr: float
    names: list
    ends: np.ndarray
    buf: np.ndarray  # (4, size): m, v and the two scratch rows
    step: int = 0


def adam_init(params: dict, lr: float = 0.001) -> AdamState:
    """State for Adam over the tensors ``params`` as ``flat_views`` lays
    them out; written now (np.full), so the first step takes no faults."""
    ends = np.cumsum([p.size for p in params.values()])
    return AdamState(lr, list(params), ends, np.full((4, ends[-1] if len(ends) else 0), 0.0))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected Adam update, in place on the flat parameter buffer
    ``params`` from the flat gradient buffer ``grads``.

    All gradients are validated before anything is touched, so a non-finite
    gradient leaves parameters and state unchanged; the error names the
    first tensor that holds one.
    """
    finite = np.isfinite(grads)
    if not finite.all():
        name = state.names[np.searchsorted(state.ends, np.argmin(finite), side="right")]
        raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v, step, denom = state.buf
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with m and v updated
    # first, one operation at a time in the two scratch rows
    np.multiply(grads, 1.0 - BETA1, out=step)
    np.multiply(grads, 1.0 - BETA2, out=denom)
    m *= BETA1
    m += step
    denom *= grads
    v *= BETA2
    v += denom
    np.divide(m, bc1, out=step)
    step *= state.lr
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += EPS
    step /= denom
    params -= step
    return params, state


def clip_gradients(grads: dict, max_norm: float) -> None:
    """Scale all gradients in place to a joint L2 norm of at most ``max_norm``
    (taken over g / max|g| where the sum of squares overflows)."""
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm == np.inf:
        big = max(float(np.abs(g).max()) for g in grads.values())
        norm = big * np.sqrt(sum(float(np.sum((g / big) ** 2)) for g in grads.values()))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor

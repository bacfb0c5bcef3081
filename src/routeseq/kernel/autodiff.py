"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every op accepts either plain ndarrays or ``Node`` objects.  With plain
arrays it just computes the value; as soon as one input is a ``Node`` the op
is recorded on that node's tape, and ``Tape.backward`` later pushes exact
gradients to every reachable leaf.  Tapes record nodes in execution order,
so reversing that order is a valid topological order for backpropagation.

Shapes are deliberately modest: vectors, matrices, and 0-d scalars, which is
all the sequence models need.  Everything is float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidInputError

CROSS_ENTROPY_CLAMP = 1e-12


class Node:
    """A recorded value plus its gradient slot."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Node(shape={self.value.shape})"


class Tape:
    """Execution-ordered record of ops for one forward pass."""

    def __init__(self):
        self._nodes: list[Node] = []

    def leaf(self, value) -> Node:
        """Wrap an array as a differentiable leaf (not recorded; no parents)."""
        return Node(np.asarray(value, dtype=np.float64), self)

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``."""
        if not isinstance(loss, Node) or loss.value.shape != ():
            raise InvalidInputError("backward expects a scalar Node loss")
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward()


def _val(x):
    return x.value if isinstance(x, Node) else x


def _tape(*xs):
    for x in xs:
        if isinstance(x, Node):
            return x.tape
    return None


def _acc(x, g, own: bool = False):
    """Accumulate gradient ``g`` into ``x``.  ``own=True`` promises that the
    caller hands over a fresh array aliasing nothing, so the first
    accumulation may take it without copying."""
    if not isinstance(x, Node):
        return
    if x.grad is None:
        x.grad = g if own else np.array(g, dtype=np.float64)
    else:
        x.grad += g


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def matmul(a, b):
    """Matrix/vector product covering 2d@2d, 2d@1d, 1d@2d, and 1d@1d (dot)."""
    av, bv = _val(a), _val(b)
    out_v = av @ bv
    tape = _tape(a, b)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        g = out.grad
        if av.ndim == 2 and bv.ndim == 2:
            _acc(a, g @ bv.T, own=True)
            _acc(b, av.T @ g, own=True)
        elif av.ndim == 2 and bv.ndim == 1:
            _acc(a, np.outer(g, bv), own=True)
            _acc(b, av.T @ g, own=True)
        elif av.ndim == 1 and bv.ndim == 2:
            _acc(a, bv @ g, own=True)
            _acc(b, np.outer(av, g), own=True)
        else:
            _acc(a, g * bv, own=True)
            _acc(b, g * av, own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def add(a, b):
    av, bv = _val(a), _val(b)
    out_v = av + bv
    tape = _tape(a, b)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        g = out.grad
        ga = _unbroadcast(g, np.shape(av))
        _acc(a, ga, own=ga is not g)
        gb = _unbroadcast(g, np.shape(bv))
        _acc(b, gb, own=gb is not g)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def mul(a, b):
    """Elementwise product (broadcasting allowed)."""
    av, bv = _val(a), _val(b)
    out_v = av * bv
    tape = _tape(a, b)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        g = out.grad
        _acc(a, _unbroadcast(g * bv, np.shape(av)), own=True)
        _acc(b, _unbroadcast(g * av, np.shape(bv)), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def _sigmoid_np(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    av = _val(a)
    out_v = _sigmoid_np(av)
    tape = _tape(a)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(a, out.grad * out_v * (1.0 - out_v), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def tanh(a):
    av = _val(a)
    out_v = np.tanh(av)
    tape = _tape(a)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(a, out.grad * (1.0 - out_v * out_v), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def relu(a):
    av = _val(a)
    out_v = np.maximum(av, 0.0)
    tape = _tape(a)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(a, out.grad * (av > 0.0), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def concat(parts):
    """Concatenate 1-d vectors."""
    vals = [_val(p) for p in parts]
    out_v = np.concatenate(vals)
    tape = _tape(*parts)
    if tape is None:
        return out_v
    out = Node(out_v, tape)
    sizes = [v.shape[0] for v in vals]

    def _bw():
        g = out.grad
        off = 0
        for p, s in zip(parts, sizes):
            _acc(p, g[off:off + s])
            off += s

    out._backward = _bw
    tape._nodes.append(out)
    return out


def hstack(parts):
    """Concatenate 2-d blocks along columns."""
    vals = [_val(p) for p in parts]
    out_v = np.concatenate(vals, axis=1)
    tape = _tape(*parts)
    if tape is None:
        return out_v
    out = Node(out_v, tape)
    widths = [v.shape[1] for v in vals]

    def _bw():
        g = out.grad
        off = 0
        for p, w in zip(parts, widths):
            _acc(p, g[:, off:off + w])
            off += w

    out._backward = _bw
    tape._nodes.append(out)
    return out


def stack_rows(parts):
    """Stack 1-d vectors into a matrix, one per row."""
    vals = [_val(p) for p in parts]
    out_v = np.stack(vals, axis=0)
    tape = _tape(*parts)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        g = out.grad
        for k, p in enumerate(parts):
            _acc(p, g[k])

    out._backward = _bw
    tape._nodes.append(out)
    return out


def tile_rows(v, n: int):
    """Repeat a vector as n identical rows."""
    vv = _val(v)
    out_v = np.tile(vv, (n, 1))
    tape = _tape(v)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(v, out.grad.sum(axis=0), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def transpose(a):
    av = _val(a)
    out_v = av.T
    tape = _tape(a)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(a, out.grad.T)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def reshape(a, shape):
    av = _val(a)
    out_v = av.reshape(shape)
    tape = _tape(a)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        _acc(a, out.grad.reshape(av.shape))

    out._backward = _bw
    tape._nodes.append(out)
    return out


def nsum(parts):
    """Sum of scalar terms."""
    vals = [_val(p) for p in parts]
    out_v = np.asarray(sum(float(v) for v in vals), dtype=np.float64)
    tape = _tape(*parts)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        for p in parts:
            _acc(p, out.grad)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def softmax(u, allowed=None):
    """Numerically stable softmax of a 1-d vector (max-subtracted).

    ``allowed`` (boolean, same length) restricts the normalization to the
    entries it marks; every other entry gets probability exactly 0 and
    receives no gradient.
    """
    uv = _val(u)
    if uv.ndim != 1 or uv.shape[0] == 0:
        raise InvalidInputError("softmax expects a non-empty 1-d vector")
    if allowed is None:
        e = np.exp(uv - uv.max())
    else:
        if allowed.shape != uv.shape or not allowed.any():
            raise InvalidInputError("softmax mask must match the vector and allow an entry")
        kept = uv[allowed]
        e = np.zeros_like(uv)
        e[allowed] = np.exp(kept - kept.max())
    out_v = e / e.sum()
    tape = _tape(u)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        g = out.grad
        _acc(u, out_v * (g - g @ out_v), own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out


def cross_entropy(probs, target: int):
    """Negative log probability of ``target``, clamped at 1e-12.

    The clamp makes a vanishing probability yield -ln(1e-12) with zero
    gradient rather than an infinity.
    """
    pv = _val(probs)
    if pv.ndim != 1:
        raise InvalidInputError("cross_entropy expects a 1-d probability vector")
    if not 0 <= target < pv.shape[0]:
        raise InvalidInputError(f"target index {target} out of range for {pv.shape[0]} classes")
    if abs(float(pv.sum()) - 1.0) > 1e-6:
        raise InvalidInputError("probabilities must sum to 1 within 1e-6")
    pt = float(pv[target])
    clamped = max(pt, CROSS_ENTROPY_CLAMP)
    out_v = np.asarray(-np.log(clamped), dtype=np.float64)
    tape = _tape(probs)
    if tape is None:
        return out_v
    out = Node(out_v, tape)

    def _bw():
        if pt > CROSS_ENTROPY_CLAMP:
            g = np.zeros_like(pv)
            g[target] = -float(out.grad) / pt
            _acc(probs, g, own=True)

    out._backward = _bw
    tape._nodes.append(out)
    return out

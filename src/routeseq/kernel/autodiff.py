"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every op accepts either plain ndarrays or ``Node`` objects.  With plain
arrays it just computes the value; as soon as one input is a ``Node`` the op
is recorded on that node's tape by ``_record``, and ``Tape.backward`` later
pushes exact gradients to every reachable leaf.  Tapes record nodes in
execution order, so reversing that order is a valid topological order for
backpropagation.

The graph is acyclic: a node holds its parents (through its backward
closure) and a weak proxy of its tape, never itself or its tape, so a
finished step's graph is freed by reference counting alone.

A weight gradient that is a sum of outer products (one per decoder step or
per candidate row) reaches a leaf through ``_acc_outer``: the tape keeps the
rows and ``backward`` sums each leaf's rows once, in stacks of at most
``STACK_ROWS``, after the last node has run, and then forgets them.

The ops here are the ones the models run between their layers: ``matmul``
(the attention context), ``softmax`` and ``nll`` (the teacher-forced loss).
``layers`` adds the fused ops ``lstm_cell``, ``lstm_sequence`` (the
encoder), ``mlp_forward`` and ``pointer_scores``, which record through
``_record`` with hand-written backward passes.

Shapes are deliberately modest: vectors, matrices, and 0-d scalars, which is
all the sequence models need.  Everything is float64.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import InvalidInputError

NLL_CLAMP = 1e-12
# Rows per product when a leaf's deferred weight-gradient rows are summed:
# OpenBLAS runs a (128 x rows) @ (rows x 128) product on a second thread from
# 64 rows on, which at these sizes costs more than it saves, and much more
# while the other core is busy.
STACK_ROWS = 32


class Node:
    """A recorded value plus its gradient slot."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = None


class Tape:
    """Execution-ordered record of ops for one forward pass.  Nodes hold the
    tape weakly, so the caller keeps it referenced while it records."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._rows: dict = {}  # leaf -> (output-gradient rows, input rows) of its weight gradient
        self._proxy = weakref.proxy(self)  # what nodes hold, so no node keeps the tape alive

    def leaf(self, value) -> Node:
        """Wrap an array as a differentiable leaf (not recorded; no parents)."""
        return Node(np.asarray(value, dtype=np.float64), self._proxy)

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``."""
        if not isinstance(loss, Node) or loss.value.shape != ():
            raise InvalidInputError("backward expects a scalar Node loss")
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)
        rows, self._rows = self._rows, {}
        for leaf, (gs, xs) in rows.items():
            g, x = np.concatenate(gs), np.concatenate(xs)
            for a in range(0, len(g), STACK_ROWS):
                _acc(leaf, g[a:a + STACK_ROWS].T @ x[a:a + STACK_ROWS], own=True)


def unwrap(x):
    """The array behind ``x``: a ``Node``'s value, anything else as is."""
    return x.value if isinstance(x, Node) else x


def _record(out_v, parents, backward):
    """Record ``out_v`` on the tape of the first ``Node`` among ``parents``,
    with ``backward(g)`` pushing the output gradient ``g`` to the parents;
    with no ``Node`` parent, return ``out_v`` unrecorded."""
    for p in parents:
        if isinstance(p, Node):
            out = Node(out_v, p.tape)
            out._backward = backward
            p.tape._nodes.append(out)
            return out
    return out_v


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


def _acc_outer(w, g, x):
    """Accumulate ``g.T @ x``, the sum of the outer products of the rows of
    ``g`` (m, out) and ``x`` (m, in), into the weight ``w`` (out, in).  A
    leaf's rows wait on its tape until the end of ``backward``, which sums
    all of them at once; any other node needs its gradient before its own
    backward runs, so it gets the product now."""
    if not isinstance(w, Node):
        return
    if w._backward is not None:
        _acc(w, g.T @ x, own=True)
        return
    gs, xs = w.tape._rows.setdefault(w, ([], []))
    gs.append(g)
    xs.append(x)


def matmul(a, b):
    """Matrix/vector product covering 2d@2d, 2d@1d, 1d@2d, and 1d@1d (dot)."""
    av, bv = unwrap(a), unwrap(b)

    def backward(g):
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

    return _record(av @ bv, (a, b), backward)


def softmax(u, allowed=None):
    """Numerically stable softmax of a 1-d vector (max-subtracted).

    ``allowed`` (boolean, same length) restricts the normalization to the
    entries it marks; every other entry gets probability exactly 0 and
    receives no gradient.
    """
    uv = unwrap(u)
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
    return _record(out_v, (u,), lambda g: _acc(u, out_v * (g - g @ out_v), own=True))


def nll(steps):
    """Total negative log probability of a sequence of picks: ``steps``
    holds (probability vector, target index) pairs, and each term is clamped
    at 1e-12.

    The clamp makes a vanishing probability yield -ln(1e-12) with zero
    gradient rather than an infinity.
    """
    pts = []
    for probs, target in steps:
        pv = unwrap(probs)
        if pv.ndim != 1:
            raise InvalidInputError("nll expects 1-d probability vectors")
        if not 0 <= target < pv.shape[0]:
            raise InvalidInputError(f"target index {target} out of range for {pv.shape[0]} classes")
        if abs(float(pv.sum()) - 1.0) > 1e-6:
            raise InvalidInputError("probabilities must sum to 1 within 1e-6")
        pts.append(float(pv[target]))

    def backward(g):
        for (probs, target), pt in zip(steps, pts):
            if pt > NLL_CLAMP:
                gp = np.zeros_like(unwrap(probs))
                gp[target] = -float(g) / pt
                _acc(probs, gp, own=True)

    out_v = np.asarray(sum(float(-np.log(max(pt, NLL_CLAMP))) for pt in pts), dtype=np.float64)
    return _record(out_v, [probs for probs, _ in steps], backward)

"""Reverse-mode automatic differentiation over float64 numpy arrays.

A recorded op's output is a ``Node`` on the tape of the first ``Node``
among its inputs (``_record``), with a hand-written backward pass;
``Tape.backward`` later pushes exact gradients to every reachable leaf.
Tapes record nodes in execution order, so reversing that order is a valid
topological order for backpropagation.

The graph is acyclic: a node holds its parents (through its backward
closure) and a weak proxy of its tape, never itself or its tape, so a
finished step's graph is freed by reference counting alone.

Two ops record: ``nll`` (the teacher-forced loss over the decoder's
stacked step probabilities) and the one op per route that
``predictor.decode`` records on tape-wrapped parameters, whose backward
pass runs the decoder's, the pair MLP's key term's and the encoder's
backpropagation on plain arrays.  That pass gathers every weight gradient
in one ``Grads`` and hands each over once, at its end: sums into a tensor,
and weight gradients that are sums of outer products (one per step or per
candidate row), summed from their rows in stacks of at most
``STACK_ROWS``, by block of columns where the rows cover only some (the
pair MLP's first layer gets its pair, query and key blocks apart).

Shapes are deliberately modest: vectors, matrices, and 0-d scalars, which is
all the sequence models need.  Everything is float64.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..errors import InvalidInputError

NLL_CLAMP = 1e-12
# Rows per product when a weight's gradient rows are summed.  This does not
# keep OpenBLAS on one thread: with no thread variable set (scipy-openblas
# 0.3.31, 2 cores), 32-row products at these widths were measured on a second
# thread, (32 x 128)ᵀ @ (32 x 128) at 1.99 CPU seconds per wall second (1.00
# with OPENBLAS_NUM_THREADS=1) and (32 x 128) @ (128 x 128)ᵀ at 1.99, while
# 15-row products stayed on one.  It stays 32: any other size moves the
# gradients' bits.
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
        self._proxy = weakref.proxy(self)  # what nodes hold, so no node keeps the tape alive

    def leaf(self, value) -> Node:
        """Wrap an array as a differentiable leaf (not recorded; no parents)."""
        return Node(np.asarray(value, dtype=np.float64), self._proxy)

    def reset(self) -> None:
        """Forget every recorded op (not the leaves) to record a new pass."""
        self._nodes.clear()

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf's ``grad``."""
        if not isinstance(loss, Node) or loss.value.shape != ():
            raise InvalidInputError("backward expects a scalar Node loss")
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


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


def _acc_cols(w, g, col):
    """Accumulate the fresh array ``g`` into the columns of ``w``'s gradient
    from ``col`` on; a ``g`` of ``w``'s shape is a plain ``_acc``."""
    if g.shape == w.value.shape:
        _acc(w, g, own=True)
        return
    if w.grad is None:
        w.grad = np.zeros_like(w.value)
    w.grad[:, col:col + g.shape[1]] += g


class Grads:
    """The gradients a recorded op's backward pass gathers step by step and
    hands over once, at its end (``hand``): sums into a tensor (``add``)
    and weight-gradient rows (``outer``).  Tensors that are not ``Node``
    objects are skipped."""

    def __init__(self):
        self._sums: dict = {}   # id -> (tensor, running sum)
        self._rows: dict = {}   # (id, first column) -> (weight, column, bias, g rows, x rows)

    def add(self, x, g) -> None:
        """Add ``g`` into the sum for ``x``."""
        if isinstance(x, Node):
            entry = self._sums.get(id(x))
            if entry is None:
                entry = self._sums[id(x)] = (x, np.zeros_like(x.value))
            entry[1][...] += g

    def outer(self, w, g, x, col=0, bias=None) -> None:
        """Gather rows of the gradient of the weight ``w`` (out, ...): the
        sum of the outer products of the rows of ``g`` (m, out) and ``x``
        (m, in), which go into its ``in`` columns from ``col`` on (all of
        them by default); ``bias``, when given, gets the sum of the ``g``
        rows."""
        if isinstance(w, Node) or isinstance(bias, Node):
            entry = self._rows.setdefault((id(w), col), (w, col, bias, [], []))
            entry[3].append(g)
            entry[4].append(x)

    def hand(self) -> None:
        """Hand every gathered gradient over; a block of weight columns gets
        the sum of all its rows, as ``g.T @ x`` products of ``STACK_ROWS``
        rows each."""
        for x, total in self._sums.values():
            _acc(x, total, own=True)
        for w, col, bias, gs, xs in self._rows.values():
            g = np.concatenate(gs)
            if bias is not None:
                _acc(bias, g.sum(axis=0), own=True)
            if isinstance(w, Node):
                x = np.concatenate(xs)
                for a in range(0, len(g), STACK_ROWS):
                    _acc_cols(w, g[a:a + STACK_ROWS].T @ x[a:a + STACK_ROWS], col)


def nll(probs, targets):
    """Total negative log probability of a sequence of picks: row ``k`` of
    ``probs`` (m, classes) is step k's probability vector and ``targets[k]``
    its pick; each term is clamped at 1e-12, and the terms are summed in
    step order.

    The clamp makes a vanishing probability yield -ln(1e-12) with zero
    gradient rather than an infinity.  Plain ``probs`` of no row give a plain 0.
    """
    pv, t = unwrap(probs), np.asarray(targets, dtype=np.intp)
    if pv.ndim != 2 or t.shape != (len(pv),):
        raise InvalidInputError("nll expects one probability row per target")
    bad = t[(t < 0) | (t >= pv.shape[1])]
    if len(bad):
        raise InvalidInputError(f"target index {bad[0]} out of range for {pv.shape[1]} classes")
    if np.any(np.abs(pv.sum(axis=1) - 1.0) > 1e-6):
        raise InvalidInputError("probabilities must sum to 1 within 1e-6")
    pts = pv[np.arange(len(t)), t].tolist()

    def backward(g):
        live = [k for k, pt in enumerate(pts) if pt > NLL_CLAMP]
        if live:
            gp = np.zeros_like(pv)
            gp[live, t[live]] = [-float(g) / pts[k] for k in live]
            _acc(probs, gp, own=True)

    out_v = np.asarray(sum(float(-np.log(max(pt, NLL_CLAMP))) for pt in pts), dtype=np.float64)
    return _record(out_v, (probs,), backward)

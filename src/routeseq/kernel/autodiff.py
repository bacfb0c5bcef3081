"""Reverse-mode automatic differentiation over float64 numpy arrays.

The model's tensors are plain arrays.  A recorded op's output is a ``Node``
that ``Tape.record`` appends to the tape, with a hand-written backward
pass; ``Tape.backward`` runs those passes in reverse order, a valid
topological order for backpropagation, and they hand the model's
gradients to ``Tape.grads`` (``Gradients``), each tensor's into its view
of one flat buffer: the first block is written there, later ones added.

The graph is acyclic: a node holds its parents and the tape's ``grads``
(through its backward closure) and a weak proxy of its tape, never
itself or its tape, so a finished step's graph is freed by reference
counting alone.

Two ops record: the one op per route that ``predictor.decode`` records
when given a tape, whose backward pass runs the decoder's, the pair MLP's
key term's and the encoder's backpropagation on plain arrays, and ``nll``
(the teacher-forced loss over that op's stacked step probabilities).  The
decoder op's pass gathers every weight gradient in one ``Grads`` and hands
each over once, at its end: sums into a tensor, and weight gradients that
are sums of outer products (one per step or per candidate row), summed
from their rows in stacks of at most ``STACK_ROWS``, by block of columns
where the rows cover only some (the pair MLP's first layer gets its pair,
query and key blocks apart).

Shapes are deliberately modest: vectors, matrices, and 0-d scalars, which is
all the sequence models need.  Everything is float64.
"""

from __future__ import annotations

import functools
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

    def __init__(self, value: np.ndarray, tape: "Tape", backward):
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = backward


class Tape:
    """Execution-ordered record of ops for one forward pass, and the
    ``Gradients`` of the model's tensors ``named`` (``grads``) that their
    backward passes hand over.  Nodes hold the tape weakly, so the caller
    keeps it referenced while it records."""

    def __init__(self, named: dict | None = None):
        self._nodes: list[Node] = []
        self.grads = Gradients(named or {})
        self._proxy = weakref.proxy(self)  # what nodes hold, so no node keeps the tape alive

    def record(self, value, backward) -> Node:
        """Record ``value`` as an op's output, with ``backward(g)`` pushing
        the output gradient ``g`` to the op's inputs."""
        node = Node(value, self._proxy, backward)
        self._nodes.append(node)
        return node

    def reset(self) -> None:
        """Forget every recorded op and every gradient to record a new pass."""
        self._nodes.clear()
        self.grads.clear()

    def backward(self, loss: Node) -> None:
        """Run every recorded op's backward pass that the loss reaches, in
        reverse order, which hands the model's gradients to ``grads``."""
        if not isinstance(loss, Node) or loss.value.shape != ():
            raise InvalidInputError("backward expects a scalar Node loss")
        loss.grad = np.ones((), dtype=np.float64)
        for node in reversed(self._nodes):
            if node.grad is not None:
                node._backward(node.grad)

    def gradients(self, named: dict) -> dict:
        """{name: the gradient of ``named[name]``}; a tensor that got none
        gets zeros."""
        for t in named.values():
            if id(t) not in self.grads:
                self.grads.slot(t).fill(0.0)
        return {name: self.grads[id(t)] for name, t in named.items()}


def flat_views(buf: np.ndarray, tensors) -> list:
    """Views of the flat buffer ``buf`` shaped as ``tensors``, end to end."""
    ends = np.cumsum([0, *(t.size for t in tensors)]).tolist()
    return [buf[a:b].reshape(t.shape) for t, a, b in zip(tensors, ends, ends[1:])]


class Gradients(dict):
    """One pass's gradients by array ``id``; the tensors ``named`` take theirs
    in their views of one buffer, ``flat`` (np.full, so no pass takes its page faults)."""

    def __init__(self, named: dict):
        super().__init__()
        tensors = named.values()
        self.flat = np.full(sum(t.size for t in tensors), 0.0)
        self.views = {id(t): v for t, v in zip(tensors, flat_views(self.flat, tensors))}

    def slot(self, x) -> np.ndarray:
        """Enter and return the array that takes ``x``'s gradient: its view,
        else a new array."""
        self[id(x)] = self.views[id(x)] if id(x) in self.views else np.empty_like(x)
        return self[id(x)]


def unwrap(x):
    """The array behind ``x``: a ``Node``'s value, anything else as is."""
    return x.value if isinstance(x, Node) else x


class Grads:
    """The gradients a recorded op's backward pass gathers step by step and
    hands over once, at its end (``hand``): sums into a tensor (``add``)
    and weight-gradient rows (``outer``)."""

    def __init__(self):
        self._sums: dict = {}   # id -> (tensor, running sum)
        self._rows: dict = {}   # (id, first column) -> (weight, column, bias, g rows, x rows)

    def add(self, x, g) -> None:
        """Add ``g`` into the sum for ``x``."""
        entry = self._sums.get(id(x))
        if entry is None:
            entry = self._sums[id(x)] = (x, np.zeros_like(x))
        entry[1][...] += g

    def outer(self, w, g, x, col=0, bias=None) -> None:
        """Gather rows of the gradient of the weight ``w`` (out, ...): the
        sum of the outer products of the rows of ``g`` (m, out) and ``x``
        (m, in), which go into its ``in`` columns from ``col`` on (all of
        them by default); ``bias``, when given, gets the sum of the ``g``
        rows."""
        entry = self._rows.setdefault((id(w), col), (w, col, bias, [], []))
        entry[3].append(g)
        entry[4].append(x)

    def hand(self, out: Gradients) -> None:
        """Hand every gathered gradient to ``out``: a tensor's first block is
        computed into its ``slot`` (zero-filled first unless the block is of
        its shape), later blocks are added; a block of weight columns gets
        the sum of all its rows, as ``g.T @ x`` products of ``STACK_ROWS``."""

        def accumulate(x, into, shape, col=0):
            if id(x) not in out:
                if shape == x.shape:
                    into(out=out.slot(x))
                    return
                out.slot(x).fill(0.0)
            out[id(x)][..., col:col + shape[-1]] += into()

        for x, total in self._sums.values():
            accumulate(x, functools.partial(np.positive, total), total.shape)  # keeps -0.0
        for w, col, bias, gs, xs in self._rows.values():
            g = gs[0] if len(gs) == 1 else np.concatenate(gs)
            if bias is not None:
                accumulate(bias, functools.partial(np.sum, g, 0), bias.shape)
            x = xs[0] if len(xs) == 1 else np.concatenate(xs)
            for a in range(0, len(g), STACK_ROWS):
                ga, xa = g[a:a + STACK_ROWS].T, x[a:a + STACK_ROWS]
                accumulate(w, functools.partial(np.matmul, ga, xa), (len(ga), xa.shape[1]), col)


def nll(probs, targets):
    """Total negative log probability of a sequence of picks: row ``k`` of
    ``probs`` (m, classes) is step k's probability vector and ``targets[k]``
    its pick; each term is clamped at 1e-12, and the terms are summed in
    step order.

    The clamp makes a vanishing probability yield -ln(1e-12) with zero
    gradient rather than an infinity.  The loss is recorded on the tape of
    ``probs`` when they are a recorded op's output, else it is plain.
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
            probs.grad = gp if probs.grad is None else probs.grad + gp

    out_v = np.asarray(sum(float(-np.log(max(pt, NLL_CLAMP))) for pt in pts), dtype=np.float64)
    return probs.tape.record(out_v, backward) if isinstance(probs, Node) else out_v

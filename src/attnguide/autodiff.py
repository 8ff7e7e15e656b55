"""Reverse-mode differentiation through a graph of fused nodes.

A ``Tensor`` carries float64 numpy data, read-only, and is either a leaf or
a graph node: the result of an operation, built by ``Tensor.node`` with its
parents and a hand-written backward.  Tensors do no arithmetic of their own;
each operation works on the arrays and wraps its result.  ``backward`` walks
the nodes in reverse topological order.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError, NumericError


def softmax(x):
    """Softmax of a float array along its last axis (max-shifted); ``x`` is left as it is."""
    # The max runs over a copy with that axis first: vectorised across rows.
    # The shifted copy is the function's own, so exp and the division run in place on it.
    e = x - x.transpose(x.ndim - 1, *range(x.ndim - 1)).copy().max(axis=0)[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_grad(out, g):
    """Gradient through a softmax with result ``out`` for the result's gradient ``g``.

    ``g`` may broadcast against ``out``; neither is changed.
    """
    # out * (g - ...), taken in place on the fresh difference: the product commutes.
    d = g - (g * out).sum(axis=-1, keepdims=True)
    d *= out
    return d


def check_finite(*arrays):
    """Raise ``NumericError`` unless every value of every array is finite."""
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains non-finite values")


def trapped(fn):
    """``fn`` with every overflow, invalid result and division by zero a ``NumericError``.

    The floating-point trap holds whatever the caller's ``np.errstate``, and
    underflow stays silent, as the softmax needs.  A NaN operand propagates
    without a trap, so values are checked where they enter (``Tensor``) and
    where they leave.
    """
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            try:
                return fn(*args, **kwargs)
            except FloatingPointError as exc:
                raise NumericError(f"{fn.__qualname__}: {exc}") from None

    return run


class Tensor:
    """Immutable float64 array: a leaf, or a node of the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.flags.writeable and (arr is data or arr.base is not None):
            # The caller's array (or a view of it): copy rather than freeze it.
            # Order "K" keeps a transposed layout, and so the order of later sums.
            arr = arr.copy(order="K")
        check_finite(arr)
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"expected scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ---------------------------------------------------

    @classmethod
    def node(cls, data, parents, backward):
        """Wrap the fresh result ``data`` of an operation on ``parents``.

        ``data`` is marked read-only and kept, not copied, so it must be an
        array (or numpy scalar) no one else holds.  ``backward(g)`` maps the
        gradient of the result to a tuple with one entry per parent: its
        gradient, or None for a parent without ``requires_grad``.  The result
        is a graph node when some parent requires a gradient, otherwise a
        constant.  Every operation builds its result through this.
        """
        data = np.asarray(data)
        data.flags.writeable = False
        for p in parents:
            if p.requires_grad:
                out = cls(data, requires_grad=True)
                out._parents, out._backward = parents, backward
                return out
        return cls(data)

    # -- reverse pass --------------------------------------------------------

    def backward(self):
        """Set ``.grad`` of every node walked (self, each grad-requiring node and leaf) to
        d(self)/d(node), replacing any earlier value: nothing accumulates across calls."""
        if self.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        # Tensors hash and compare by identity, so they key the sets and dicts.
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            n, done = stack.pop()
            if done:
                topo.append(n)
                continue
            if n in seen:
                continue
            seen.add(n)
            stack.append((n, True))
            for p in n._parents:
                if p.requires_grad and p not in seen:
                    stack.append((p, False))

        # Each node gets its gradient from a consumer that the walk visits before it.
        grads = {self: np.ones(self.shape)}
        for node in reversed(topo):
            g = node.grad = grads.pop(node)
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad:
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg


"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors carry float64 numpy data and, when an operation involves a node
with ``requires_grad``, record a dynamic graph that ``backward`` walks in
reverse topological order.  Broadcasting is deliberately restricted: an
operand shape must be a suffix of the result shape (scalars included);
anything richer raises ``DimensionError`` so every gradient rule stays
auditable.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError, DimensionError, EvaluationError, NumericError


def _suffix_broadcast_shape(sa, sb):
    """Result shape if one operand shape is a suffix of the other."""
    if len(sa) < len(sb):
        sa, sb = sb, sa
    if sb == () or sb == sa[len(sa) - len(sb):]:
        return sa
    raise DimensionError(
        f"shapes {sa} and {sb} do not broadcast (suffix rule only)"
    )


def _unbroadcast(grad, shape):
    """Sum `grad` over the leading axes a suffix-broadcast introduced."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad.reshape(shape)


def sum_grad(g, axis, shape):
    """Gradient of a sum over ``axis`` (None: every axis) spread back to ``shape``: a copy."""
    out, unit = np.empty(shape), list(shape)
    for a in () if axis is None else axis if isinstance(axis, tuple) else (axis,):
        unit[a] = 1
    out[...] = g if axis is None else np.reshape(g, unit)
    return out


def softmax(x):
    """Softmax of a float array along its last axis (max-shifted)."""
    # The max runs over a copy with that axis first: vectorised across rows.
    e = np.exp(x - np.moveaxis(x, -1, 0).copy().max(axis=0)[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(out, g):
    """Gradient through a softmax with result ``out`` for the result's gradient ``g``."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


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
    """Immutable float64 tensor, optionally a node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
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
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ContractError(f"expected scalar tensor, got shape {self.shape}")

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ---------------------------------------------------

    @staticmethod
    def _wrap(other):
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def node(data, parents, backward):
        """Wrap the fresh result ``data`` of an operation on ``parents``.

        ``data`` is marked read-only and kept, not copied, so it must be an
        array (or numpy scalar) no one else holds.  ``backward(g)`` maps the
        gradient of the result to a tuple with one entry per parent: its
        gradient, or None for a parent without ``requires_grad``.  The result
        is a graph node when some parent requires a gradient, otherwise a
        constant.  Fused operations build their nodes through this too.
        """
        data = np.asarray(data)
        data.flags.writeable = False
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
        return Tensor(data)

    # -- elementwise ------------------------------------------------------

    def _elementwise(self, other, result, grad_a, grad_b):
        """``result(a, b)`` of the operands' arrays, whose gradients are ``grad_*(g, a, b)``."""
        a, b = self, self._wrap(other)
        _suffix_broadcast_shape(a.shape, b.shape)

        def backward(g):
            return (_unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
                    _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None)

        return self.node(result(a.data, b.data), (a, b), backward)

    def __add__(self, other):
        return self._elementwise(other, np.add, lambda g, a, b: g, lambda g, a, b: g)

    def __mul__(self, other):
        return self._elementwise(other, np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)

    def __truediv__(self, other):
        return self._elementwise(other, np.divide, lambda g, a, b: g / b,
                                 lambda g, a, b: -g * a / (b * b))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return self.node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.shape
        return self.node(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(src),)
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return self.node(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),)
        )

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape
        return self.node(
            out, (self,), lambda g: (sum_grad(g, None if keepdims else axis, src_shape),)
        )

    # -- linear algebra -----------------------------------------------------

    def matmul(self, other):
        other = self._wrap(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise DimensionError(
                f"matmul needs ndim >= 2 operands, got {a.shape} and {b.shape}"
            )
        if a.shape[-1] != b.shape[-2]:
            raise DimensionError(
                f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
            )
        try:
            out = np.matmul(a.data, b.data)
        except ValueError as exc:
            raise DimensionError(
                f"matmul batch dimensions disagree: {a.shape} x {b.shape}"
            ) from exc

        def backward(g):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) \
                if a.requires_grad else None
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) \
                if b.requires_grad else None
            return ga, gb

        return self.node(out, (a, b), backward)

    __matmul__ = matmul

    def softmax_lastdim(self):
        if self.data.ndim < 1 or self.shape[-1] < 1:
            raise DimensionError(f"softmax needs a non-empty last dim, got {self.shape}")
        out = softmax(self.data)
        return self.node(out, (self,), lambda g: (softmax_grad(out, g),))

    # -- reverse pass --------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every grad-requiring leaf."""
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

        grads = {self: np.ones(self.shape)}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            node.grad = g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if not parent.requires_grad:
                    continue
                if parent in grads:
                    grads[parent] = grads[parent] + pg
                else:
                    grads[parent] = pg


def finite_diff_check(f, z, step=1e-3):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor.  Relative error per coordinate
    uses denominator max(|analytic|, |numeric|, 1e-8).
    """
    if step <= 0:
        raise ContractError("step must be positive")
    base = np.asarray(z.data if isinstance(z, Tensor) else z, dtype=np.float64)
    leaf = Tensor(base, requires_grad=True)
    loss = f(leaf)
    if loss.size != 1:
        raise ContractError("finite_diff_check probes scalar functions only")
    loss.backward()
    analytic = leaf.grad.reshape(-1)

    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    for k in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[k] += step
        minus[k] -= step
        fp = f(Tensor(plus.reshape(base.shape))).item()
        fm = f(Tensor(minus.reshape(base.shape))).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"probe function non-finite at coordinate {k}")
        numeric[k] = (fp - fm) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))

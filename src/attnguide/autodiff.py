"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors carry float64 numpy data and, when an operation involves a node
with ``requires_grad``, record a dynamic graph that ``backward`` walks in
reverse topological order.  Broadcasting is deliberately restricted: an
operand shape must be a suffix of the result shape (scalars included);
anything richer raises ``DimensionError`` so every gradient rule stays
auditable.
"""

from __future__ import annotations

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


class Tensor:
    """Immutable float64 tensor, optionally a node in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains non-finite values")
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

    def _make(self, data, parents, backward):
        for p in parents:
            if p.requires_grad:
                return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
        return Tensor(data)

    # -- elementwise ------------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        shape = _suffix_broadcast_shape(self.shape, other.shape)
        out_data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        assert out_data.shape == shape
        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        other = self._wrap(other)
        _suffix_broadcast_shape(self.shape, other.shape)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

        return self._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        _suffix_broadcast_shape(self.shape, other.shape)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad
                else None,
            )

        return self._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def square(self):
        return self._make(self.data ** 2, (self,), lambda g: (2.0 * self.data * g,))

    def log(self):
        out = np.log(self.data)

        def backward(g):
            return (g / self.data,)

        return self._make(out, (self,), backward)

    def exp(self):
        out = np.exp(self.data)
        return self._make(out, (self,), lambda g: (g * out,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return self._make(out, (self,), lambda g: (g * 0.5 / out,))

    def tanh(self):
        out = np.tanh(self.data)
        return self._make(out, (self,), lambda g: (g * (1.0 - out * out),))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.shape
        return self._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(src),)
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        return self._make(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inv),)
        )

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, src_shape).copy(),)
            ax = axis if isinstance(axis, tuple) else (axis,)
            gg = g
            if not keepdims:
                gg = np.expand_dims(g, ax)
            return (np.broadcast_to(gg, src_shape).copy(),)

        return self._make(out, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def take_lastdim(self, index):
        """Select one slice along the last dimension (gradient scatters back)."""
        if not 0 <= index < self.shape[-1]:
            raise DimensionError(f"index {index} out of range for shape {self.shape}")
        out = self.data[..., index]
        src_shape = self.shape

        def backward(g):
            full = np.zeros(src_shape)
            full[..., index] = g
            return (full,)

        return self._make(out, (self,), backward)

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

        return self._make(out, (a, b), backward)

    __matmul__ = matmul

    def softmax_lastdim(self):
        if self.data.ndim < 1 or self.shape[-1] < 1:
            raise DimensionError(f"softmax needs a non-empty last dim, got {self.shape}")
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return self._make(out, (self,), backward)

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


def matmul(a, b):
    return Tensor._wrap(a).matmul(b)


def softmax_lastdim(x):
    return Tensor._wrap(x).softmax_lastdim()


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

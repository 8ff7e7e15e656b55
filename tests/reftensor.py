"""The array ops of a reference Tensor, for the reference chains of the tests.

The package's ``Tensor`` is a leaf or a graph node and does no arithmetic.
``RefTensor`` adds the ops the package once had, with their bodies: the
arithmetic operators under a suffix-broadcast rule, ``reshape``,
``transpose``, ``sum``, ``matmul`` and ``softmax_lastdim``.  Each builds its
result with ``Tensor.node``, so ``Tensor.backward`` walks a chain of them as
it walks the package's nodes.  ``ref`` views a package node as a RefTensor.
Broadcasting is deliberately restricted: an operand shape must be a suffix
of the result shape (scalars included); anything richer raises
``DimensionError`` so every gradient rule stays auditable.
"""

import numpy as np

from attnguide.autodiff import Tensor, softmax, softmax_grad
from attnguide.errors import DimensionError


def sum_grad(g, axis, shape):
    """Gradient of a sum over ``axis`` (None: every axis) spread back to ``shape``: a copy."""
    out, unit = np.empty(shape), list(shape)
    for a in () if axis is None else axis if isinstance(axis, tuple) else (axis,):
        unit[a] = 1
    out[...] = g if axis is None else np.reshape(g, unit)
    return out


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


def ref(t):
    """``t`` as a RefTensor: itself, or a package node seen through an identity node."""
    return t if isinstance(t, RefTensor) else RefTensor.node(t.data, (t,), lambda g: (g,))


class RefTensor(Tensor):
    """A Tensor with array ops; a package Tensor operand is taken through ``ref``."""

    __slots__ = ()

    @staticmethod
    def _wrap(other):
        return ref(other) if isinstance(other, Tensor) else RefTensor(other)

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

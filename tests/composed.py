"""Composed reverse-mode operations: the tests' reference chain.

The package differentiates only through its fused tape nodes
(`tmeg.autodiff.encoder_layer`, `node_embedding`, `info_nce`, ...). Each
of them repeats, operation for operation, the float arithmetic of a chain
built from the small operations here, and the tests check values and
gradients against that chain bit for bit.

Importing this module sets the arithmetic operators (`+ - * / ** @`,
negation and the reflected forms), `swapaxes`, `sum`, `mean`, `exp`,
`log`, `sqrt` and `tanh` onto `tmeg.autodiff.Tensor`; `conftest.py`
imports it, so every test sees them. Each op is built on the public
`Tensor(data, requires_grad, parents, backward)` constructor. `concat`,
`logsumexp` and `linear` are functions of this module.
"""

from __future__ import annotations

import numpy as np

from tmeg.autodiff import Tensor, _unbroadcast


def _coerce(other) -> Tensor:
    return other if isinstance(other, Tensor) else Tensor(other)


class _ComposedOps:
    """The methods set onto Tensor."""

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = _coerce(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, parents=(self, other), backward=bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor(-self.data, parents=(self,), backward=bw)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward=bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return _coerce(other) * self ** -1.0

    def __pow__(self, exponent: float):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return Tensor(self.data ** exponent, parents=(self,), backward=bw)

    def __matmul__(self, other):
        other = _coerce(other)

        def bw(g):
            if self.requires_grad:
                ga = g @ other.data.swapaxes(-1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = self.data.swapaxes(-1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return Tensor(self.data @ other.data, parents=(self, other), backward=bw)

    # ------------------------------------------------------------------
    # shape ops

    def swapaxes(self, a: int, b: int):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g.swapaxes(a, b))

        return Tensor(self.data.swapaxes(a, b), parents=(self,), backward=bw)

    # ------------------------------------------------------------------
    # reductions and elementwise

    def sum(self, axis=None, keepdims=False):
        def bw(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), backward=bw)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def exp(self):
        val = np.exp(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * val)

        return Tensor(val, parents=(self,), backward=bw)

    def log(self):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor(np.log(self.data), parents=(self,), backward=bw)

    def sqrt(self):
        val = np.sqrt(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * 0.5 / val)

        return Tensor(val, parents=(self,), backward=bw)

    def tanh(self):
        val = np.tanh(self.data)

        def bw(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - val * val))

        return Tensor(val, parents=(self,), backward=bw)


for _name, _op in vars(_ComposedOps).items():
    if callable(_op):
        setattr(Tensor, _name, _op)


# ----------------------------------------------------------------------
# composed functions


def concat(tensors: list, axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]

    def bw(g):
        start = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            if t.requires_grad:
                t._accumulate(g[tuple(sl)])
            start += size

    return Tensor(np.concatenate(datas, axis=axis), parents=tuple(tensors),
                  backward=bw)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    s = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        s = s.reshape(tuple(np.squeeze(s.data, axis=axis).shape))
    return s


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ weight (+ bias)."""
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"linear: input dim {x.shape[-1]} != weight rows {weight.shape[0]}"
        )
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out

"""Reverse-mode automatic differentiation over dense numpy arrays.

Small tape-based autodiff: a Tensor wraps a float64 ndarray, records its
parents and a backward closure, and `backward()` runs the tape in reverse
topological order. Only the operations the encoder and losses need are
implemented; all of them support a leading batch dimension where it makes
sense (matmul uses numpy's stacked-matrix semantics).

Three composed operations are fused into single tape nodes: `softmax`,
`layer_norm` and the biased `attention` block. Each repeats, operation for
operation, the float arithmetic of the chain it replaces, so values and
gradients are bit-identical to the composed graph, while the tape holds
one node and only the arrays its backward pass needs.

Inside `no_grad()` operations record nothing: results carry neither parents
nor a backward closure, so each intermediate array is freed as soon as the
forward pass stops using it.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import erf

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Evaluate without building a tape (inference and validation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # sum away prepended axes
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum axes that were broadcast from extent 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _is_basic_index(idx) -> bool:
    """True when `idx` selects a view (ints, slices, Ellipsis, None only),
    so no element can be selected twice."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad or (
            _grad_enabled and any(p.requires_grad for p in parents))
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph plumbing

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a private copy: `g` may be a view of another node's gradient
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        if not self.requires_grad:
            raise RuntimeError(
                "backward() on a tensor that records no tape (built from "
                "constants or under no_grad)")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)

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
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward=bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other):
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1.0))

        return Tensor(self.data ** exponent, parents=(self,), backward=bw)

    def __matmul__(self, other):
        other = self._coerce(other)

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

    def __getitem__(self, idx):
        basic = _is_basic_index(idx)

        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[idx] = g
                else:
                    np.add.at(full, idx, g)
                self._accumulate(full)

        return Tensor(self.data[idx], parents=(self,), backward=bw)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def bw(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(shape), parents=(self,), backward=bw)

    def swapaxes(self, a: int, b: int):
        def bw(g):
            if self.requires_grad:
                self._accumulate(g.swapaxes(a, b))

        return Tensor(self.data.swapaxes(a, b), parents=(self,), backward=bw)

    @property
    def T(self):
        return self.swapaxes(-1, -2)

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

    def gelu(self):
        """Exact Gaussian-error linear unit: x * Phi(x)."""
        x = self.data
        cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

        def bw(g):
            if self.requires_grad:
                pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                self._accumulate(g * (cdf + x * pdf))

        return Tensor(x * cdf, parents=(self,), backward=bw)


# ----------------------------------------------------------------------
# composed operations


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


def gather_codes(table: Tensor, codes) -> Tensor:
    """Lay a table of per-code scalars out over integer code matrices.

    `table` is (*lead, C): one row of C scalars per leading index (per head,
    say). `codes` is (*batch, N, M) with entries in [0, C). The result is
    (*batch, *lead, N, M) with out[b, a, i, j] = table[a, codes[b, i, j]],
    except that code 0 (NONE) reads exactly 0 and receives no gradient.
    The backward pass is one weighted bincount of the codes per leading row.
    """
    codes = np.asarray(codes)
    lead = table.shape[:-1]
    n_codes = table.shape[-1]
    if codes.ndim < 2:
        raise ValueError("gather_codes needs codes of shape (..., N, M)")
    if codes.size and (codes.min() < 0 or codes.max() >= n_codes):
        raise IndexError(f"edge code out of range [0, {n_codes})")
    rows = table.data.reshape(-1, n_codes).copy()
    rows[:, 0] = 0.0
    n_rows = rows.shape[0]
    nb = codes.ndim - 2
    # (n_rows, *batch, N, M) -> (*batch, *lead, N, M), as a view
    vals = np.take(rows, codes, axis=1).reshape(lead + codes.shape)
    vals = np.moveaxis(vals, tuple(range(len(lead))),
                       tuple(range(nb, nb + len(lead))))

    def bw(g):
        if not table.requires_grad:
            return
        g = np.moveaxis(g, tuple(range(nb, nb + len(lead))),
                        tuple(range(len(lead)))).reshape(n_rows, -1)
        flat = codes.ravel()
        grad = np.stack([np.bincount(flat, weights=row, minlength=n_codes)
                         for row in g])
        grad[:, 0] = 0.0
        table._accumulate(grad.reshape(table.shape))

    return Tensor(vals, parents=(table,), backward=bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; shift by the (detached) max.

    One tape node whose forward and backward repeat, operation for
    operation, the arithmetic of the composed exp(x - max) / sum graph."""
    if np.isnan(x.data).any():
        raise ValueError("softmax received NaN input")
    e = np.exp(x.data + (-x.data.max(axis=axis, keepdims=True)))
    s = e.sum(axis=axis, keepdims=True)
    r = s ** -1.0

    def bw(g):
        if x.requires_grad:
            gs = (g * e).sum(axis=axis, keepdims=True) * -1.0 * s ** -2.0
            x._accumulate((g * r + gs) * e)

    return Tensor(e * r, parents=(x,), backward=bw)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              bias: Tensor | None = None, key_bias=None) -> Tensor:
    """Biased scaled dot-product attention with logits laid out [key, query]:
    softmax((k @ qᵀ) * scale + bias + key_bias, axis=-2)ᵀ @ v.

    q, k, v are (..., N, d); `bias` is a tensor broadcastable to the
    (..., N, N) logits and `key_bias` a constant array (the -inf mask of
    padded keys). One tape node whose forward and backward repeat, operation
    for operation, the arithmetic of that chain composed from `@`, `*`, `+`,
    `softmax` and `@`. It keeps only the exp numerator and its column sums
    for the backward pass; without a tape it works in one buffer. The input
    arrays are never written."""
    x = k.data @ q.data.swapaxes(-1, -2)
    x *= scale
    if bias is not None:
        x += bias.data
    if key_bias is not None:
        x += key_bias
    # max propagates NaN, so this sees a NaN anywhere in the logits
    m = x.max(axis=-2, keepdims=True)
    if np.isnan(m).any():
        raise ValueError("softmax received NaN input")
    x += -m
    e = np.exp(x, out=x)
    s = e.sum(axis=-2, keepdims=True)
    r = s ** -1.0
    parents = (q, k, v) if bias is None else (q, k, v, bias)
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        e *= r
        return Tensor(e.swapaxes(-1, -2) @ v.data)

    def bw(g):
        # every (..., N, N) temporary is written in place into `g_x`
        g_x = np.multiply(e, r)
        if v.requires_grad:
            v._accumulate(g_x @ g)
        g_attn = (g @ v.data.swapaxes(-1, -2)).swapaxes(-1, -2)
        gs = (g_attn * e).sum(axis=-2, keepdims=True) * -1.0 * s ** -2.0
        np.multiply(g_attn, r, out=g_x)
        del g_attn
        g_x += gs
        g_x *= e
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g_x, bias.data.shape))
        g_x *= scale
        if k.requires_grad:
            k._accumulate(g_x @ q.data)
        if q.requires_grad:
            q._accumulate((k.data.swapaxes(-1, -2) @ g_x).swapaxes(-1, -2))

    return Tensor((e * r).swapaxes(-1, -2) @ v.data, parents=parents,
                  backward=bw)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    s = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        s = s.reshape(tuple(np.squeeze(s.data, axis=axis).shape))
    return s


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise layer normalization over the last axis, then affine.

    One tape node whose forward and backward repeat, operation for
    operation, the arithmetic of the composed graph
    (x - mean) / sqrt(var + eps) * gamma + beta."""
    inv_n = 1.0 / x.shape[-1]
    c = x.data + (-(x.data.sum(axis=-1, keepdims=True) * inv_n))
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) * inv_n + eps)
    inv = sd ** -1.0
    xhat = c * inv

    def bw(g):
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.data.shape))
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.data.shape))
        if not x.requires_grad:
            return
        g_xhat = g * gamma.data
        g_sd = (g_xhat * c).sum(axis=-1, keepdims=True) * -1.0 * sd ** -2.0
        g_sq = g_sd * 0.5 / sd * inv_n * c   # d/dc of c * c, taken once
        g_c = g_xhat * inv + g_sq + g_sq
        x._accumulate(g_c + (-g_c.sum(axis=-1, keepdims=True)) * inv_n)

    return Tensor(xhat * gamma.data + beta.data, parents=(x, gamma, beta),
                  backward=bw)


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

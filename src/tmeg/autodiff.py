"""Reverse-mode automatic differentiation over dense numpy arrays.

Small tape-based autodiff: a Tensor wraps a float64 ndarray, records its
parents and a backward closure, and `backward()` runs the tape in reverse
topological order. Only the operations the encoder and losses need are
implemented; all of them support a leading batch dimension where it makes
sense (matmul uses numpy's stacked-matrix semantics).

Three composed operations are fused into single tape nodes: `softmax`,
`layer_norm` and `encoder_layer`, a whole post-norm transformer layer with
graph-biased attention. Each repeats, operation for operation, the float
arithmetic of the chain it replaces, sharing private helpers for the
softmax and layer-norm arithmetic, so values and gradients are
bit-identical to the composed graph, while the tape holds one node and
only the arrays its backward pass needs. `encoder_layer` can also compute
only chosen output rows (its `rows` argument), with keys and values still
taken from every row: the encoder runs each stack's last layer that way,
over just the rows that are read next.

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


def _scatter_sum(shape: tuple, idx, g: np.ndarray) -> np.ndarray:
    """Zeros of `shape` with each element of g added at its position under
    the numpy index `idx` (so g has the shape of zeros[idx]).

    One weighted bincount over the flat target positions. It sums each
    target's terms in occurrence order starting from 0.0, as
    `np.add.at(zeros, idx, g)` does, so the result is bit-identical to it,
    repeated indices included."""
    n = math.prod(shape)
    target = np.arange(n).reshape(shape)[idx]
    return np.bincount(target.ravel(), weights=g.ravel(),
                       minlength=n).reshape(shape)


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
            if not self.requires_grad:
                return
            if basic:
                full = np.zeros_like(self.data)
                full[idx] = g
            else:
                full = _scatter_sum(self.data.shape, idx, g)
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


# ----------------------------------------------------------------------
# arithmetic shared by the fused operations

_LN_EPS = 1e-12   # variance floor of every layer norm


def _softmax_parts(x: np.ndarray, axis: int, out=None):
    """Exp numerator e = exp(x - max), its sums s and r = s ** -1 along
    `axis`; the softmax is e * r. With `out=x` the numerator overwrites x."""
    m = x.max(axis=axis, keepdims=True)
    # max propagates NaN, so this sees a NaN anywhere in x
    if np.isnan(m).any():
        raise ValueError("softmax received NaN input")
    e = np.add(x, -m, out=out)
    np.exp(e, out=e)
    s = e.sum(axis=axis, keepdims=True)
    return e, s, s ** -1.0


def _softmax_backward(g, e, s, r, axis: int, out=None) -> np.ndarray:
    """Gradient of the softmax input, (g * r + gs) * e, from the gradient g
    of its output; written into `out` when given."""
    gs = (g * e).sum(axis=axis, keepdims=True) * -1.0 * s ** -2.0
    gx = np.multiply(g, r, out=out)
    gx += gs
    gx *= e
    return gx


def _ln_stats(x: np.ndarray, eps: float, out=None):
    """Centred rows c, std and inverse std of `x` over its last axis; the
    normalised rows are c * inv. With `out=x` the centred rows overwrite x."""
    inv_n = 1.0 / x.shape[-1]
    c = np.add(x, -(x.sum(axis=-1, keepdims=True) * inv_n), out=out)
    sd = np.sqrt((c * c).sum(axis=-1, keepdims=True) * inv_n + eps)
    return c, sd, sd ** -1.0


def _ln_affine(c, inv, gamma: np.ndarray, beta: np.ndarray, out=None):
    """(c * inv) * gamma + beta, written into `out` when given."""
    y = np.multiply(c, inv, out=out)
    y *= gamma
    y += beta
    return y


def _ln_backward(g, c, sd, inv, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """Accumulate the gamma and beta gradients of a layer norm and return
    the gradient of its input."""
    if beta.requires_grad:
        beta._accumulate(_unbroadcast(g, beta.data.shape))
    if gamma.requires_grad:
        gamma._accumulate(_unbroadcast(g * (c * inv), gamma.data.shape))
    inv_n = 1.0 / c.shape[-1]
    g_xhat = g * gamma.data
    g_sd = (g_xhat * c).sum(axis=-1, keepdims=True) * -1.0 * sd ** -2.0
    g_sq = g_sd * 0.5 / sd * inv_n * c   # d/dc of c * c, taken once
    g_c = np.multiply(g_xhat, inv, out=g_xhat)
    g_c += g_sq
    g_c += g_sq
    g_c += (-g_c.sum(axis=-1, keepdims=True)) * inv_n
    return g_c


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)); the exact GELU is x * Phi(x)."""
    cdf = x / math.sqrt(2.0)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


def _gelu_backward(g, x, cdf) -> np.ndarray:
    """Gradient of x * Phi(x): g * (Phi(x) + x * pdf(x))."""
    d = -0.5 * x
    d *= x
    np.exp(d, out=d)
    d /= math.sqrt(2.0 * math.pi)
    d *= x
    d += cdf
    d *= g
    return d


def _linear_backward(g, x, weight: Tensor, bias: Tensor | None) -> np.ndarray:
    """Accumulate the weight and bias gradients of x @ weight + bias and
    return the gradient of x."""
    if weight.requires_grad:
        weight._accumulate(_unbroadcast(x.swapaxes(-1, -2) @ g,
                                        weight.data.shape))
    if bias is not None and bias.requires_grad:
        bias._accumulate(_unbroadcast(g, bias.data.shape))
    return g @ weight.data.swapaxes(-1, -2)


# ----------------------------------------------------------------------
# fused operations


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; shift by the (detached) max.

    One tape node whose forward and backward repeat, operation for
    operation, the arithmetic of the composed exp(x - max) / sum graph."""
    e, s, r = _softmax_parts(x.data, axis)

    def bw(g):
        if x.requires_grad:
            x._accumulate(_softmax_backward(g, e, s, r, axis))

    return Tensor(e * r, parents=(x,), backward=bw)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    s = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        s = s.reshape(tuple(np.squeeze(s.data, axis=axis).shape))
    return s


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Row-wise layer normalization over the last axis, then affine.

    One tape node whose forward and backward repeat, operation for
    operation, the arithmetic of the composed graph
    (x - mean) / sqrt(var + eps) * gamma + beta."""
    c, sd, inv = _ln_stats(x.data, eps)

    def bw(g):
        g_x = _ln_backward(g, c, sd, inv, gamma, beta)
        if x.requires_grad:
            x._accumulate(g_x)

    return Tensor(_ln_affine(c, inv, gamma.data, beta.data),
                  parents=(x, gamma, beta), backward=bw)


def encoder_layer(h: Tensor, params, n_heads: int, bias: Tensor | None = None,
                  key_bias=None, rows=None) -> Tensor:
    """Post-norm transformer encoder layer over (..., N, dim) rows, all
    heads at once, as one tape node.

    `params` are the layer's 15 tensors in the order wq, bq, wk, wv, bv,
    wo, bo, ln1_g, ln1_b, ffn_w1, ffn_b1, ffn_w2, ffn_b2, ln2_g, ln2_b.
    The layer computes, with heads split from and merged back into the
    last axis and attention logits laid out [key, query]:

        q, k, v = h @ wq + bq, h @ wk, h @ wv + bv
        a  = softmax((k @ qᵀ) / sqrt(d_head) + bias + key_bias, axis=-2)ᵀ @ v
        h1 = layer_norm(a @ wo + bo + h, ln1_g, ln1_b)
        out = layer_norm(gelu(h1 @ ffn_w1 + ffn_b1) @ ffn_w2 + ffn_b2 + h1,
                         ln2_g, ln2_b)

    `bias` is a tensor broadcastable to the (..., H, N, N) logits (the
    edge-code biases) and `key_bias` a constant array (the -inf mask of
    padded keys). Forward and backward repeat, operation for operation, the
    arithmetic of that chain composed from `linear`, `softmax`,
    `layer_norm` and the exact GELU. For backward the node keeps only the
    layer input, q, k and v, the exp numerator and its sums, each layer
    norm's centred rows, std and inverse, and the FFN pre-activation and
    its Phi; it recomputes the rest. Without a tape it works in place and
    frees each intermediate once it is used. The input arrays are never
    written.

    `rows`, a (B, R) integer array over h of shape (B, N, dim), computes
    only the output rows h[b, rows[b]], in that order, as (B, R, dim):
    keys and values still come from every row, but queries, the residual,
    the output projection, both layer norms and the FFN take only the R
    selected rows, and the logits are (B, H, N, R), so `bias` must
    broadcast to that. Each output row equals the full layer's row up to
    the rounding of the smaller matrix products. Indices may repeat; the
    backward sums a repeated row's query and residual gradients."""
    (wq, bq, wk, wv, bv, wo, bo, g1, b1, w1, c1, w2, c2, g2, b2) = params
    x = h.data
    *lead, n, dim = x.shape
    dh = dim // n_heads
    scale = 1.0 / math.sqrt(dh)
    if rows is None:
        xq = x
    else:
        if x.ndim != 3:
            raise ValueError("encoder_layer rows need h of shape (B, N, dim)")
        picked = (np.arange(x.shape[0])[:, None], np.asarray(rows))
        xq = x[picked]

    def split(a):  # (..., M, dim) -> (..., H, M, d_head), a view
        return a.reshape(*lead, a.shape[-2], n_heads, dh).swapaxes(-2, -3)

    def merge(a):  # (..., H, M, d_head) -> (..., M, dim)
        return a.swapaxes(-2, -3).reshape(*lead, a.shape[-2], dim)

    def project(inp, w, b):
        out = inp @ w.data
        if b is not None:
            out += b.data
        return split(out)

    q, k, v = project(xq, wq, bq), project(x, wk, None), project(x, wv, bv)
    # logits[..., i, j] = k_i . q_j * scale (+ biases), normalized over keys i
    logits = k @ q.swapaxes(-1, -2)
    logits *= scale
    if bias is not None:
        logits += bias.data
    if key_bias is not None:
        logits += key_bias
    parents = (h, *params) if bias is None else (h, *params, bias)
    taped = _grad_enabled and any(p.requires_grad for p in parents)
    e, s, r = _softmax_parts(logits, -2, out=logits)
    del logits
    # without a tape, arrays backward would keep are overwritten or freed
    p = np.multiply(e, r, out=None if taped else e)
    a = merge(p.swapaxes(-1, -2) @ v)
    del p
    if not taped:
        del q, k, v, e
    o = a @ wo.data
    del a
    o += bo.data
    o += xq
    ln1 = _ln_stats(o, _LN_EPS, out=o)
    del o
    h1 = _ln_affine(ln1[0], ln1[2], g1.data, b1.data,
                    out=None if taped else ln1[0])
    f = h1 @ w1.data
    f += c1.data
    cdf = _gelu_cdf(f)
    act = np.multiply(f, cdf, out=None if taped else cdf)
    if not taped:
        del f, cdf
    y = act @ w2.data
    del act
    y += c2.data
    y += h1
    del h1
    ln2 = _ln_stats(y, _LN_EPS, out=y)
    del y

    def bw(g):
        # feed-forward block and its residual
        g_y = _ln_backward(g, *ln2, g2, b2)
        h1 = _ln_affine(ln1[0], ln1[2], g1.data, b1.data)
        g_f = _gelu_backward(_linear_backward(g_y, f * cdf, w2, c2), f, cdf)
        g_h1 = _linear_backward(g_f, h1, w1, c1)
        del g_f, h1
        g_h1 += g_y
        del g_y
        # attention block and its residual
        g_o = _ln_backward(g_h1, *ln1, g1, b1)
        del g_h1
        p = np.multiply(e, r)
        g_a = split(_linear_backward(g_o, merge(p.swapaxes(-1, -2) @ v), wo, bo))
        g_v = p @ g_a
        g_attn = (g_a @ v.swapaxes(-1, -2)).swapaxes(-1, -2)
        del g_a
        g_x = _softmax_backward(g_attn, e, s, r, -2, out=p)
        del g_attn, p
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g_x, bias.data.shape))
        g_x *= scale
        g_k = g_x @ q
        g_q = (k.swapaxes(-1, -2) @ g_x).swapaxes(-1, -2)
        del g_x
        # input projections; the input gradient sums the residual, key,
        # query and value terms in the order the composed chain's tape does
        if rows is None:
            g_h = g_o + _linear_backward(merge(g_k), x, wk, None)
            g_h += _linear_backward(merge(g_q), x, wq, bq)
            g_h += _linear_backward(merge(g_v), x, wv, bv)
        else:
            # the residual and query terms reach the selected rows only
            g_h = _linear_backward(merge(g_k), x, wk, None)
            g_h += _linear_backward(merge(g_v), x, wv, bv)
            g_o += _linear_backward(merge(g_q), xq, wq, bq)
            g_h += _scatter_sum(x.shape, picked, g_o)
        if h.requires_grad:
            h._accumulate(g_h)

    return Tensor(_ln_affine(ln2[0], ln2[2], g2.data, b2.data,
                             out=None if taped else ln2[0]),
                  parents=parents, backward=bw)


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

"""Reverse-mode automatic differentiation over dense numpy arrays.

Small tape-based autodiff: a Tensor wraps a float64 ndarray, records its
parents and a backward closure, and `backward()` runs the tape in reverse
topological order. Only the operations the encoder and losses need are
implemented; all of them support a leading batch dimension where it makes
sense (matmul uses numpy's stacked-matrix semantics).

A tape is single-use. As `backward()` passes each interior node it drops
that node's closure (and with it every array the op saved), its parents
and its gradient, so no tape outlives its backward: a training step never
holds the previous step's tape while it builds its own. Leaves (parameters
and constants) keep their gradients and every node keeps its value; a
second `backward()` through a released node raises RuntimeError. So that
the next tape reuses the freed pages instead of faulting them in again,
importing this module tells glibc's malloc to keep freed heap mapped
(`_keep_freed_pages`).

Composed operations are fused into single tape nodes: `encoder_layer`, a
whole post-norm transformer layer with graph-biased attention that reads
its per-head edge biases from the bias tables at the pair codes itself,
and one node per other stage of the training step: `node_embedding`
(token, position, segment, object and box rows), `split_tanh_mlps` (the
two modality MLPs), `pair_sequence` (the scorer input), `mlp_readout`
(the scorer head), `cross_entropy` (the prediction loss), `info_nce` (the
coherence loss, gathering its rows inside the node) and `add_scaled`
(their weighted sum). Each repeats, operation for operation, the float
arithmetic of the chain it replaces, sharing private helpers for the
softmax, layer-norm, linear and tanh-MLP arithmetic, so values and
gradients are bit-identical to the composed graph, while the tape holds
one node and only the arrays its backward pass needs. `encoder_layer` can
also compute only chosen output rows (its `rows` argument), with keys and
values still taken from every row: the encoder runs each stack's last
layer that way, over just the rows that are read next.

The FFN's exact GELU x * Phi(x) takes its erf from `_erf`, a numpy port of
`s_erf.c` from Sun's fdlibm 5.3 (as kept in FreeBSD's msun) with the same
coefficients, ranges and order of operations. It is within 1 ulp of the
exact erf, and it keeps numpy the only third-party library the package
imports.

Inside `no_grad()` operations record nothing: results carry neither parents
nor a backward closure, so each intermediate array is freed as soon as the
forward pass stops using it.
"""

from __future__ import annotations

import contextlib
import ctypes
import math

import numpy as np

_grad_enabled = True

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Keep the pages a released tape frees mapped, for the next tape.

    `backward()` frees a step's whole tape, so after every step the heap
    empties down to what outlives the step. By default glibc's malloc would
    then hand the emptied top of the heap back to the system, and the next
    step would pay system time to fault the same pages in again. Here
    arrays of up to 32 MB come from the heap, and up to 256 MB of freed
    heap stays mapped. That keeps only memory the process has already
    reached, so its peak does not rise. Other C libraries keep their
    defaults."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages()


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


def _released(g):
    """The backward closure of a node whose tape a backward() has walked."""
    raise RuntimeError(
        "this tape was released by an earlier backward(): a tape can be "
        "walked once; build the graph again to backpropagate through it")


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
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
        """Accumulate d(self)/d(leaf) into every leaf's `.grad`, releasing
        the tape as the walk passes it.

        A tape is single-use: once an interior node's backward closure has
        run, its closure (and with it every array it saved), its parents and
        its gradient are dropped, so the tape is gone when this returns.
        Leaves keep their gradients, and every node keeps its `.data`. A
        second `backward()` through a released node raises RuntimeError."""
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
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _released, (), None

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


# fdlibm's s_erf.c: erx and the coefficients of its rational approximations,
# each tuple lowest power first. On |x| < 0.84375, erf(x) = x + x*PP(z)/QQ(z)
# with z = x*x; on [0.84375, 1.25), |erf(x)| = erx + PA(s)/QA(s) with
# s = |x| - 1; on [1.25, 6), 1 - |erf(x)| = exp(-x*x - 0.5625 + R(s)/S(s))/|x|
# with s = 1/(x*x), where R/S is RA/SA below fdlibm's 1/0.35 and RB/SB above.
_ERX = 8.45062911510467529297e-01
_ERF_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
           -2.84817495755985104766e-02, -5.77027029648944159157e-03,
           -2.37630166566501626084e-05)
_ERF_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
           5.08130628187576562776e-03, 1.32494738004321644526e-04,
           -3.96022827877536812320e-06)
_ERF_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
           -3.72207876035701323847e-01, 3.18346619901161753674e-01,
           -1.10894694282396677476e-01, 3.54783043256182359371e-02,
           -2.16637559486879084300e-03)
_ERF_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
           7.18286544141962662868e-02, 1.26171219808761642112e-01,
           1.36370839120290507362e-02, 1.19844998467991074170e-02)
_ERF_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
           -1.05586262253232909814e+01, -6.23753324503260060396e+01,
           -1.62396669462573470355e+02, -1.84605092906711035994e+02,
           -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_ERF_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
           4.34565877475229228821e+02, 6.45387271733267880336e+02,
           4.29008140027567833386e+02, 1.08635005541779435134e+02,
           6.57024977031928170135e+00, -6.04244152148580987438e-02)
_ERF_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
           -1.77579549177547519889e+01, -1.60636384855821916062e+02,
           -6.37566443368389627722e+02, -1.02509513161107724954e+03,
           -4.83519191608651397019e+02)
_ERF_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
           1.53672958608443695994e+03, 3.19985821950859553908e+03,
           2.55305040643316442583e+03, 4.74528541206955367215e+02,
           -2.24409524465858183362e+01)
# fdlibm splits at high word 0x4006DB6E, just above 1/0.35
_ERFC_SPLIT = float.fromhex("0x1.6db6ep+1")
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)
# Elements per pass of the |x| < 0.84375 formula: its three temporaries
# (768 KB) stay in a core's L2 cache across its 22 elementwise passes.
_ERF_CHUNK = 1 << 15


def _horner(s: np.ndarray, coef: tuple) -> np.ndarray:
    """coef[0] + s*(coef[1] + s*(... + s*coef[-1])), innermost first, as
    fdlibm writes its polynomials."""
    t = s * coef[-1]
    for c in coef[-2:0:-1]:
        t += c
        t *= s
    t += coef[0]
    return t


def _erf_large(a: np.ndarray) -> np.ndarray:
    """erf(a) for a >= 0.84375 (inf included): fdlibm's upper ranges."""
    y = np.ones_like(a)                 # a >= 6: fdlibm's 1 - tiny rounds to 1
    mid = a < 1.25
    s = a[mid] - 1.0
    y[mid] = _ERX + _horner(s, _ERF_PA) / _horner(s, _ERF_QA)
    tail = a < 6.0
    tail &= ~mid
    t = a[tail]
    s = 1.0 / (t * t)
    r_s = np.where(t < _ERFC_SPLIT,
                   _horner(s, _ERF_RA) / _horner(s, _ERF_SA),
                   _horner(s, _ERF_RB) / _horner(s, _ERF_SB))
    # z is t with the low 32 bits of its mantissa cleared, so z*z is exact
    z = (t.view(np.uint64) & _HIGH_WORD).view(np.float64)
    r = np.exp(-z * z - 0.5625) * np.exp((z - t) * (z + t) + r_s)
    y[tail] = 1.0 - r / t
    return y


def _erf(x, out: np.ndarray | None = None) -> np.ndarray:
    """The error function, elementwise: a numpy port of fdlibm's s_erf.c
    (Sun fdlibm 5.3; FreeBSD msun) with its coefficients, ranges and order
    of operations, within 1 ulp of the exact value.

    The |x| < 0.84375 formula runs over every element, a chunk at a time;
    NaN passes through it. The elements with |x| >= 0.84375 (about 3% of
    the encoder's GELU inputs) are then recomputed through one index.
    Unlike fdlibm, |x| < 2**-28 takes the polynomial rather than its
    x + efx*x shortcut; the two differ by at most an ulp there. `out` must
    be C-contiguous and may be `x` itself."""
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("_erf needs a C-contiguous out array")
    xf, of = x.reshape(-1), out.reshape(-1)
    large = np.flatnonzero(np.abs(xf) >= 0.84375)
    xl = xf[large]
    # the formula overflows for large |x|; those elements are recomputed
    with np.errstate(all="ignore"):
        for i in range(0, xf.size, _ERF_CHUNK):
            xc = xf[i:i + _ERF_CHUNK]
            z = xc * xc
            r = _horner(z, _ERF_PP)
            r /= _horner(z, _ERF_QQ)
            r *= xc
            np.add(xc, r, out=of[i:i + _ERF_CHUNK])
    of[large] = np.copysign(_erf_large(np.abs(xl)), xl)
    return out


def _gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)); the exact GELU is x * Phi(x)."""
    cdf = x / math.sqrt(2.0)
    _erf(cdf, out=cdf)
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


def _linear_backward(g, x, weight: Tensor, bias: Tensor | None,
                     need_x: bool = True) -> np.ndarray | None:
    """Accumulate the weight and bias gradients of x @ weight + bias and
    return the gradient of x (None unless `need_x`)."""
    if weight.requires_grad:
        weight._accumulate(_unbroadcast(x.swapaxes(-1, -2) @ g,
                                        weight.data.shape))
    if bias is not None and bias.requires_grad:
        bias._accumulate(_unbroadcast(g, bias.data.shape))
    return g @ weight.data.swapaxes(-1, -2) if need_x else None


def _tanh_mlp(x, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor | None):
    """tanh(x @ w1 + b1) @ w2 (+ b2) and the tanh activations."""
    hidden = np.tanh(x @ w1.data + b1.data)
    out = hidden @ w2.data
    return (out if b2 is None else out + b2.data), hidden


def _tanh_mlp_backward(g, x, hidden, w1, b1, w2, b2, need_x=True):
    """Accumulate the parameter gradients of `_tanh_mlp` and return the
    gradient of x (None unless `need_x`)."""
    g_hidden = _linear_backward(g, hidden, w2, b2)
    return _linear_backward(g_hidden * (1.0 - hidden * hidden), x, w1, b1,
                            need_x)


def _code_table(bias_t: np.ndarray, bias_m: np.ndarray) -> np.ndarray:
    """(H, C_t * C_m) bias of every pair code t * C_m + m, from one layer's
    (H, C_t) temporal and (H, C_m) modal tables: bias_t[:, t] +
    bias_m[:, m], where a NONE code (0) of either kind reads exactly 0."""
    t, m = bias_t.copy(), bias_m.copy()
    t[:, 0] = 0.0
    m[:, 0] = 0.0
    return (t[:, :, None] + m[:, None, :]).reshape(len(t), -1)


def _add_code_bias(logits: np.ndarray, table: np.ndarray, codes) -> None:
    """logits[..., a, i, j] += table[a, codes[..., i, j]] for every head a,
    one head at a time, so no (..., H, N, M) bias array is built."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= table.shape[-1]):
        raise IndexError(f"edge code out of range [0, {table.shape[-1]})")
    for a, row in enumerate(table):
        logits[..., a, :, :] += np.take(row, codes)


def _code_grad(g: np.ndarray, codes, n_codes: int) -> np.ndarray:
    """(H, n_codes) gradient of the table `_add_code_bias` read, from the
    gradient g (..., H, N, M) of the logits: one weighted bincount of the
    codes per head. Each sums a (head, code) bin in the order g is laid
    out, so the result is bit-identical to one bincount over offset
    (head, code) indices, without building that (..., H, N, M) index.
    The NONE column gets no gradient."""
    flat = np.asarray(codes).ravel()
    grad = np.stack([np.bincount(flat, weights=g[..., a, :, :].ravel(),
                                 minlength=n_codes)
                     for a in range(g.shape[-3])])
    grad[:, 0] = 0.0
    return grad


def _fold_code_grad(g_pair: np.ndarray, n_t: int, n_m: int):
    """The (H, C_t) temporal and (H, C_m) modal table gradients of a pair
    table's gradient (see `_code_table`): each sums its pair entries in
    code order, one bincount over offset (head, code) indices per table."""
    n_heads = len(g_pair)
    out = []
    for codes, n_codes in zip(np.indices((n_t, n_m)), (n_t, n_m)):
        index = codes.ravel() + (np.arange(n_heads) * n_codes)[:, None]
        grad = np.bincount(index.ravel(), weights=g_pair.ravel(),
                           minlength=n_heads * n_codes).reshape(n_heads, n_codes)
        grad[:, 0] = 0.0
        out.append(grad)
    return out


# ----------------------------------------------------------------------
# fused operations


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    s = (x - m).exp().sum(axis=axis, keepdims=True).log() + m
    if not keepdims:
        s = s.reshape(tuple(np.squeeze(s.data, axis=axis).shape))
    return s


def encoder_layer(h: Tensor, params, n_heads: int, edge=None, key_bias=None,
                  rows=None) -> Tensor:
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

    `edge`, when given, is (bias_t, bias_m, layer, codes): the (L, H, C_t)
    temporal and (L, H, C_m) modal bias tables, this layer's index into
    them, and (..., N, M) pair codes t * C_m + m matching the logits'
    last two axes. The layer reads bias[..., a, i, j] =
    bias_t[layer, a, t] + bias_m[layer, a, m] at each pair's codes, with
    a NONE code of either kind reading exactly 0, straight into the
    logits, one head at a time; no bias array is built or taped. Its
    backward bincounts the logit gradient once over offset (head, pair
    code) indices and folds that pair-table gradient onto both tables, so
    NONE entries get no gradient. `key_bias` is a constant array (the
    -inf mask of padded keys).

    Forward and backward repeat, operation for operation, the arithmetic
    of that chain composed from `linear`, elementwise ops (the softmax as
    exp(x - max) / sum, each layer norm as (x - mean) / sqrt(var + eps)),
    the exact GELU and an edge bias gathered per code from the two tables.
    For backward the node keeps the layer input, q, k and v, the exp
    numerator, its sums and the probabilities, the attention output, each
    layer norm's centred rows, std and inverse, the first layer norm's
    output, and the FFN pre-activation, its Phi and its activation.
    Without a tape it works in place and frees each intermediate once it
    is used. The input arrays are never written.

    `rows`, a (B, R) integer array over h of shape (B, N, dim), computes
    only the output rows h[b, rows[b]], in that order, as (B, R, dim):
    keys and values still come from every row, but queries, the residual,
    the output projection, both layer norms and the FFN take only the R
    selected rows, and the logits are (B, H, N, R), so the codes must be
    the (B, N, R) columns of those rows. Each output row equals the full
    layer's row up to the rounding of the smaller matrix products.
    Indices may repeat; the backward sums a repeated row's query and
    residual gradients."""
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
    parents = (h, *params)
    if edge is not None:
        bias_t, bias_m, layer, codes = edge
        _add_code_bias(logits, _code_table(bias_t.data[layer],
                                           bias_m.data[layer]), codes)
        parents += (bias_t, bias_m)
    if key_bias is not None:
        logits += key_bias
    taped = _grad_enabled and any(p.requires_grad for p in parents)
    e, s, r = _softmax_parts(logits, -2, out=logits)
    del logits
    # without a tape, arrays backward would keep are overwritten or freed
    p = np.multiply(e, r, out=None if taped else e)
    a = merge(p.swapaxes(-1, -2) @ v)
    if not taped:
        del p, q, k, v, e
    o = a @ wo.data
    if not taped:
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
    y += c2.data
    y += h1
    if not taped:
        del act, h1
    ln2 = _ln_stats(y, _LN_EPS, out=y)
    del y

    def bw(g):
        # feed-forward block and its residual
        g_y = _ln_backward(g, *ln2, g2, b2)
        g_f = _gelu_backward(_linear_backward(g_y, act, w2, c2), f, cdf)
        g_h1 = _linear_backward(g_f, h1, w1, c1)
        del g_f
        g_h1 += g_y
        del g_y
        # attention block and its residual
        g_o = _ln_backward(g_h1, *ln1, g1, b1)
        del g_h1
        g_a = split(_linear_backward(g_o, a, wo, bo))
        g_v = p @ g_a
        # the [key, query] gradient of the probabilities, contiguous
        g_attn = v @ g_a.swapaxes(-1, -2)
        del g_a
        g_x = _softmax_backward(g_attn, e, s, r, -2, out=p)
        del g_attn
        if edge is not None and (bias_t.requires_grad or bias_m.requires_grad):
            n_t, n_m = bias_t.shape[-1], bias_m.shape[-1]
            for table, grad in zip((bias_t, bias_m), _fold_code_grad(
                    _code_grad(g_x, codes, n_t * n_m), n_t, n_m)):
                if table.requires_grad:
                    full = np.zeros_like(table.data)
                    full[layer] = grad
                    table._accumulate(full)
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


def node_embedding(params, token_ids, positions, segments, features, boxes,
                   cls_mask) -> Tensor:
    """Initial node states (B, n_text + n_vis, d) as one tape node.

    `params` are the tensors token_content, text_position, segment,
    vis_proj_w, vis_proj_b, box_proj_w, box_proj_b and vis_cls. Text rows
    sum a content row (`token_ids`, (B, n_text)), a position row
    (`positions`, (n_text,)) and a segment row; visual rows sum the
    projected object `features` (B, n_vis, d_v), or vis_cls where
    `cls_mask` (B, n_vis) is 1, the projected `boxes` (B, n_vis, 6) and a
    segment row. `segments` (B, n_text + n_vis) index the segment table.
    Forward and backward repeat the arithmetic of that sum composed from
    gathers, `linear` and masks; the backward scatters each gather's
    gradient with `_scatter_sum`."""
    tok, pos, seg, vis_w, vis_b, box_w, box_b, vis_cls = params
    n_text = token_ids.shape[1]
    text_seg, vis_seg = segments[:, :n_text], segments[:, n_text:]
    has_vis = cls_mask.shape[1] > 0
    out = np.empty(segments.shape + tok.shape[-1:])
    np.add(tok.data[token_ids] + pos.data[positions], seg.data[text_seg],
           out=out[:, :n_text])
    if has_vis:
        obj_rows = (1.0 - cls_mask)[..., None]
        cls_rows = cls_mask[..., None]
        h_vis = (features @ vis_w.data + vis_b.data) * obj_rows
        h_vis += vis_cls.data * cls_rows
        h_vis += boxes @ box_w.data + box_b.data
        np.add(h_vis, seg.data[vis_seg], out=out[:, n_text:])

    def bw(g):
        g_text = np.array(g[:, :n_text])
        g_seg = _scatter_sum(seg.shape, text_seg, g_text)
        if has_vis:
            g_vis = np.array(g[:, n_text:])
            g_seg += _scatter_sum(seg.shape, vis_seg, g_vis)
            _linear_backward(g_vis, boxes, box_w, box_b, need_x=False)
            _linear_backward(g_vis * obj_rows, features, vis_w, vis_b,
                             need_x=False)
            if vis_cls.requires_grad:
                vis_cls._accumulate(_unbroadcast(g_vis * cls_rows,
                                                 vis_cls.shape))
        if tok.requires_grad:
            tok._accumulate(_scatter_sum(tok.shape, token_ids, g_text))
        if pos.requires_grad:
            pos._accumulate(_scatter_sum(pos.shape, positions,
                                         g_text.sum(axis=0)))
        if seg.requires_grad:
            seg._accumulate(g_seg)

    parents = params if has_vis else params[:3]
    return Tensor(out, parents=tuple(parents), backward=bw)


def split_tanh_mlps(h: Tensor, n_first: int, first, second) -> Tensor:
    """Rows h[:, :n_first] through one tanh MLP and rows h[:, n_first:]
    through another, as one tape node. Each MLP is (w1, b1, w2, b2) and
    maps x to tanh(x @ w1 + b1) @ w2 + b2; forward and backward repeat the
    arithmetic of that chain composed from `linear` and `tanh`."""
    x = h.data
    blocks = [(slice(0, n_first), first)]
    if x.shape[1] > n_first:
        blocks.append((slice(n_first, None), second))
    out = np.empty(x.shape[:2] + second[2].shape[-1:])
    hidden = []
    for rows, mlp in blocks:
        out[:, rows], act = _tanh_mlp(x[:, rows], *mlp)
        hidden.append(act)

    def bw(g):
        g_x = np.empty_like(x) if h.requires_grad else None
        for (rows, mlp), act in zip(blocks, hidden):
            g_rows = _tanh_mlp_backward(np.array(g[:, rows]), x[:, rows], act,
                                        *mlp, need_x=g_x is not None)
            if g_x is not None:
                g_x[:, rows] = g_rows
        if g_x is not None:
            h._accumulate(g_x)

    parents = (h,) + tuple(p for _, mlp in blocks for p in mlp)
    return Tensor(out, parents=parents, backward=bw)


def pair_sequence(ht: Tensor, hv: Tensor, cls: Tensor, sep: Tensor,
                  proj=None) -> Tensor:
    """The scorer input [cls, ht rows..., sep, hv rows...] of each batch
    row, (B, 2 + N_t + N_a, dim), as one tape node. `proj`, when given, is
    (weight, bias), applied to the ht and hv rows first."""
    B, n_t = ht.shape[:2]
    xt, xv = ht.data, hv.data
    if proj is not None:
        xt, xv = (x @ proj[0].data + proj[1].data for x in (xt, xv))
    zeros = np.zeros((B, 1, xt.shape[-1]))
    out = np.concatenate([zeros + cls.data, xt, zeros + sep.data, xv], axis=1)

    def bw(g):
        for t, part in ((cls, g[:, :1]), (sep, g[:, 1 + n_t:2 + n_t])):
            if t.requires_grad:
                t._accumulate(_unbroadcast(np.array(part), t.shape))
        for t, part in ((ht, g[:, 1:1 + n_t]), (hv, g[:, 2 + n_t:])):
            if proj is not None:
                part = _linear_backward(np.array(part), t.data, *proj,
                                        need_x=t.requires_grad)
            if t.requires_grad:
                t._accumulate(part)

    parents = (ht, hv, cls, sep) + (tuple(proj) if proj is not None else ())
    return Tensor(out, parents=parents, backward=bw)


def mlp_readout(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor) -> Tensor:
    """Scores (B,) = tanh(h[:, 0] @ w1 + b1) @ w2[:, 0] from rows h
    (B, M, dim), as one tape node repeating the composed chain's
    arithmetic."""
    lead = h.data[:, 0]
    out, hidden = _tanh_mlp(lead, w1, b1, w2, None)

    def bw(g):
        g_out = np.zeros(out.shape)
        g_out[:, 0] = g
        g_lead = _tanh_mlp_backward(g_out, lead, hidden, w1, b1, w2, None,
                                    need_x=h.requires_grad)
        if h.requires_grad:
            g_h = np.zeros_like(h.data)
            g_h[:, 0] = g_lead
            h._accumulate(g_h)

    return Tensor(out[:, 0], parents=(h, w1, b1, w2), backward=bw)


def cross_entropy(scores: Tensor, gold) -> Tensor:
    """Mean over rows of logsumexp(scores[b]) - scores[b, gold[b]] for
    (B, C) scores, as one tape node repeating the arithmetic of the chain
    composed from `logsumexp`, a gather and `mean`."""
    x = scores.data
    picked = (np.arange(x.shape[0]), np.asarray(gold))
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x + (-m))
    s = e.sum(axis=-1, keepdims=True)
    per_row = (np.log(s) + m).reshape(x.shape[0]) + (-x[picked])
    n = per_row.size

    def bw(g):
        g_rows = np.broadcast_to(g * (1.0 / n), per_row.shape)
        g_x = np.broadcast_to((g_rows.reshape(s.shape)) / s, x.shape) * e
        g_x += _scatter_sum(x.shape, picked, -g_rows)
        scores._accumulate(g_x)

    return Tensor(per_row.sum() * (1.0 / n), parents=(scores,), backward=bw)


def _unit_rows(x: np.ndarray, valid: np.ndarray):
    """Rows of x scaled to unit norm, and the inverse norms and norms.
    Rows where `valid` is False are padding: they are exempt from the
    zero-norm check and divided by sqrt(|x|^2 + 1), so they and their
    gradients stay finite."""
    sq = (x * x).sum(axis=-1, keepdims=True)
    if (sq[valid] == 0).any():
        raise ValueError("cosine similarity undefined for zero-norm vector")
    if not valid.all():
        sq = sq + np.where(valid, 0.0, 1.0)[..., None]
    norm = np.sqrt(sq)
    inv = norm ** -1.0
    return x * inv, inv, norm


def _unit_rows_backward(g, x, inv, norm) -> np.ndarray:
    """Gradient of x from the gradient g of `_unit_rows`' unit rows, summed
    in the order the composed x / (x * x).sum().sqrt() chain's tape does."""
    g_norm = _unbroadcast(g * x, inv.shape) * -1.0 * norm ** -2.0
    g_sq = np.broadcast_to(g_norm * 0.5 / norm, x.shape) * x
    g_x = g * inv
    g_x += g_sq
    g_x += g_sq
    return g_x


def info_nce(text: Tensor, pos: Tensor, neg: Tensor, tau: float,
             inclusive: bool = True, n_rows=None, n_neg=None,
             index=None) -> Tensor:
    """InfoNCE coherence loss over I instances as one tape node.

    Rows t (I, n, d) are text representations, v (I, n, d) the aligned
    positives and u (I, K, d) the negatives: `text`, `pos` and `neg`
    themselves or, with `index`, the rows text[index[0]], pos[index[1]]
    and neg[index[2]], gathered inside the node. Instance i's loss is the
    mean over its first n_rows[i] rows of
    logsumexp([t.v, t.u_1, ..., t.u_k] / tau) - t.v / tau over unit
    rows, with its first n_neg[i] negatives (without t.v in the
    logsumexp unless `inclusive`); the result averages the instances.
    `n_rows` and `n_neg` default to no padding.
    Padded rows are ignored and padded negatives get a -inf logit.
    Forward and backward repeat the arithmetic of that formula composed
    from tape ops over the padded rows; the backward scatters the rows'
    gradients back with `_scatter_sum`."""
    sources = (text, pos, neg)
    if index is None:
        index = (Ellipsis,) * 3
    t, v, u = (src.data[idx] for src, idx in zip(sources, index))
    n_rows = np.full(len(t), t.shape[1]) if n_rows is None else np.asarray(n_rows)
    n_neg = np.full(len(u), u.shape[1]) if n_neg is None else np.asarray(n_neg)
    if (n_neg < 1).any():
        raise ValueError("need at least one negative")
    if (n_rows < 1).any():
        raise ValueError("need at least one aligned row")
    rows = np.arange(t.shape[1]) < n_rows[:, None]        # (I, n_max)
    negs = np.arange(u.shape[1]) < n_neg[:, None]         # (I, K_max)
    (t_hat, *t_norm), (v_hat, *v_norm), (u_hat, *u_norm) = (
        _unit_rows(x, valid) for x, valid in ((t, rows), (v, rows), (u, negs)))
    pos_logit = (t_hat * v_hat).sum(axis=-1, keepdims=True) * (1.0 / tau)
    neg_logits = (t_hat @ u_hat.swapaxes(-1, -2)) * (1.0 / tau)
    if not negs.all():
        neg_logits = neg_logits + np.where(negs, 0.0, -np.inf)[:, None, :]
    logits = (np.concatenate([pos_logit, neg_logits], axis=-1) if inclusive
              else neg_logits)
    m = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits + (-m))
    s = e.sum(axis=-1, keepdims=True)
    per_row = np.log(s) + m + (-pos_logit)
    weight = rows[..., None].astype(np.float64)
    if not rows.all():
        per_row = per_row * weight
    per_instance = per_row.sum(axis=(1, 2)) * (1.0 / n_rows)
    n_inst = per_instance.size

    def bw(g):
        g_inst = np.broadcast_to(g * (1.0 / n_inst), per_instance.shape)
        g_row = np.broadcast_to((g_inst * (1.0 / n_rows))[:, None, None],
                                per_row.shape)
        if not rows.all():
            g_row = g_row * weight
        g_logits = np.broadcast_to(g_row / s, e.shape) * e
        g_neg = g_logits[..., 1:] if inclusive else g_logits
        g_neg = g_neg * (1.0 / tau)
        g_pos = -g_row
        if inclusive:
            g_pos = g_logits[..., :1] + g_pos
        g_pos = np.broadcast_to(g_pos * (1.0 / tau), t_hat.shape)
        g_t_hat = g_pos * v_hat
        g_t_hat += g_neg @ u_hat
        grads = (g_t_hat, g_pos * t_hat,
                 (t_hat.swapaxes(-1, -2) @ g_neg).swapaxes(-1, -2))
        # negatives, positives, text: the order in which the composed
        # chain's tape ran its three gathers; when `pos` and `neg` are one
        # tensor, the order of its gradient terms shows in the last bits
        for src, idx, g_hat, x, norms in reversed(list(zip(
                sources, index, grads, (t, v, u), (t_norm, v_norm, u_norm)))):
            if src.requires_grad:
                g_x = _unit_rows_backward(g_hat, x, *norms)
                src._accumulate(g_x.reshape(src.shape) if idx is Ellipsis
                                else _scatter_sum(src.shape, idx, g_x))

    loss = per_instance.sum() * (1.0 / n_inst)
    return Tensor(loss, parents=sources, backward=bw)


def add_scaled(a: Tensor, b: Tensor, scale: float) -> Tensor:
    """a + scale * b as one tape node."""

    def bw(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g * scale)

    return Tensor(a.data + b.data * scale, parents=(a, b), backward=bw)


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

"""Autodiff substrate tests.

Backward rules are checked against central finite differences computed in
the tests themselves, plus closed-form identities where they exist.
"""

import contextlib
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import softmax as scipy_softmax

from tmeg import autodiff
from tmeg.autodiff import (
    _ERFC_SPLIT, _LN_EPS, Tensor, _add_code_bias, _code_grad, _code_table,
    _erf, _erf_large, _fold_code_grad, _gelu_cdf, _gelu_slope, _ln_affine,
    _ln_backward, _ln_stats, _ordered_sum, _softmax_backward, _softmax_parts,
    add_scaled, cross_entropy, encoder_layer, info_nce, mlp_readout, no_grad,
    node_embedding, pair_sequence, split_tanh_mlps,
)
from composed import concat, linear, logsumexp


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare analytic and numeric gradients of a scalar-valued op."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0.0, 1.0, size=s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        num = numeric_grad(lambda: float(build(
            *[Tensor(x) for x in arrays]).data), a)
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


def composed_softmax(x, axis=-1):
    """Softmax from elementary tape ops: exp(x - max) / sum, with the max
    taken as a constant."""
    e = (x - x.data.max(axis=axis, keepdims=True)).exp()
    return e / e.sum(axis=axis, keepdims=True)


def composed_layer_norm(x, g, b):
    """Layer norm over the last axis, then affine, from elementary tape ops."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + _LN_EPS).sqrt() * g + b


def helper_softmax(x, axis=-1):
    """A softmax tape node over the helpers `encoder_layer` computes its
    attention softmax with (`_softmax_parts`, `_softmax_backward`)."""
    e, s, r = _softmax_parts(x.data, axis)

    def bw(g):
        x._accumulate(_softmax_backward(g, e, s, r, axis))

    return Tensor(e * r, parents=(x,), backward=bw)


def helper_layer_norm(x, g, b):
    """A layer-norm tape node over the helpers `encoder_layer` computes both
    of its layer norms with (`_ln_stats`, `_ln_affine`, `_ln_backward`)."""
    c, sd, inv = _ln_stats(x.data, _LN_EPS)

    def bw(grad):
        g_x = _ln_backward(grad, c, sd, inv, g, b)
        if x.requires_grad:
            x._accumulate(g_x)

    return Tensor(_ln_affine(c, inv, g.data, b.data), parents=(x, g, b),
                  backward=bw)


def tape_arrays(node):
    """Every array a node's backward closure reaches, directly or through
    a helper's closure or a tuple: what the node keeps for backward."""
    arrays, stack, seen = [], [node._backward], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            for cell in item.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:   # a name the layer left unbound
                    pass
    return arrays


def layer_shapes(dim, mult):
    """Shapes of a transformer layer's 15 parameters, in `encoder_layer`
    order."""
    d, f = (dim,), (mult * dim,)
    return [(dim, dim), d, (dim, dim), (dim, dim), d, (dim, dim), d, d, d,
            (dim, mult * dim), f, (mult * dim, dim), d, d, d]


def gelu(x):
    """The exact GELU x * Phi(x) as one elementary tape node: the
    reference the fused encoder layer's FFN must repeat, with its erf."""
    cdf = 0.5 * (1.0 + _erf(x.data / math.sqrt(2.0)))

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        x._accumulate(g * (cdf + x.data * pdf))

    return Tensor(x.data * cdf, parents=(x,), backward=bw)


def composed_edge_bias(bias_t, bias_m, layer, codes):
    """The (..., H, N, M) edge bias of pair codes t * C_m + m, composed from
    tape ops the way the encoder built it before the gather moved into
    `encoder_layer`: each table's NONE column masked to 0, a pair table
    summing both tables' rows over the code-pair grid, one fancy gather of
    that table per head at the codes. The reference the layer's edge bias
    must repeat, in values and in both tables' gradients."""
    n_t, n_m = bias_t.shape[-1], bias_m.shape[-1]
    masked = [table[layer] * (np.arange(n) > 0)
              for table, n in ((bias_t, n_t), (bias_m, n_m))]
    pair = (masked[0][:, :, None] + masked[1][:, None, :]).reshape(
        bias_t.shape[-2], n_t * n_m)
    codes = np.asarray(codes)
    # (H, *batch, N, M) -> (*batch, H, N, M)
    out = pair[:, codes]
    for axis in range(codes.ndim - 2):
        out = out.swapaxes(axis, axis + 1)
    return out


class TestElementwiseGrads:

    def test_add_mul_chain(self):
        check_op(lambda a, b: ((a + b) * a).sum(), (3, 4), (3, 4))

    def test_broadcast_add(self):
        check_op(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_broadcast_mul(self):
        check_op(lambda a, b: (a * b).sum(), (2, 3, 4), (1, 4))

    def test_sub_neg(self):
        check_op(lambda a, b: (a - b * 2.0).sum(), (5,), (5,))

    def test_division(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 2.0, size=(3, 3))
        b = rng.uniform(0.5, 2.0, size=(3, 3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta / tb).sum().backward()
        np.testing.assert_allclose(ta.grad, 1.0 / b, rtol=1e-12)
        np.testing.assert_allclose(tb.grad, -a / b ** 2, rtol=1e-12)

    def test_pow(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 2.0, size=(4,))
        t = Tensor(a, requires_grad=True)
        (t ** 3.0).sum().backward()
        np.testing.assert_allclose(t.grad, 3.0 * a ** 2, rtol=1e-12)

    def test_exp_log_sqrt_tanh(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 1.5, size=(6,))
        for build in (lambda t: t.exp().sum(), lambda t: t.log().sum(),
                      lambda t: t.sqrt().sum(), lambda t: t.tanh().sum()):
            t = Tensor(a.copy(), requires_grad=True)
            build(t).backward()
            num = numeric_grad(lambda: float(build(Tensor(a)).data), a)
            np.testing.assert_allclose(t.grad, num, rtol=1e-6, atol=1e-8)

    def test_gelu_matches_definition(self):
        """The exact GELU of the encoder layer's FFN, x * Phi(x)."""
        x = np.linspace(-3.0, 3.0, 13)
        expected = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        np.testing.assert_allclose(x * _gelu_cdf(x), expected, rtol=1e-14)

    def test_gelu_grad(self):
        x = np.random.default_rng(0).normal(size=9)
        g = _gelu_slope(x, _gelu_cdf(x))
        num = numeric_grad(lambda: float((x * _gelu_cdf(x)).sum()), x)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-6)


def assert_within_ulps(actual, expected, ulps):
    """|actual - expected| <= ulps units in the last place of expected."""
    err = np.abs(actual - expected)
    assert np.all(err <= ulps * np.spacing(np.abs(expected))), \
        np.max(err / np.spacing(np.abs(expected)))


class TestErf:
    """`_erf`, the fdlibm port behind the GELU, against glibc's erf
    (`math.erf`) and scipy's."""

    # fdlibm's break points; it splits near 1/0.35 at _ERFC_SPLIT
    BREAKS = (0.84375, 1.25, 1.0 / 0.35, _ERFC_SPLIT, 6.0)

    @staticmethod
    def libm(x):
        return np.array([math.erf(v) for v in x])

    def test_within_one_ulp_of_libm_on_a_dense_grid(self):
        x = np.linspace(-8.0, 8.0, 200_001)
        assert_within_ulps(_erf(x), self.libm(x), 1)

    def test_within_one_ulp_of_libm_at_and_beside_break_points(self):
        b = np.array(self.BREAKS)
        x = np.concatenate([b, np.nextafter(b, 0.0), np.nextafter(b, 9.0)])
        x = np.concatenate([x, -x])
        assert_within_ulps(_erf(x), self.libm(x), 1)

    def test_zeros_subnormals_infinities_and_nan(self):
        tiny = np.array([5e-324, 1e-310, np.finfo(float).tiny, 2.0 ** -28])
        assert_within_ulps(_erf(tiny), self.libm(tiny), 1)
        assert_within_ulps(_erf(-tiny), self.libm(-tiny), 1)
        y = _erf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300]))
        assert y[0] == 0.0 and not np.signbit(y[0])
        assert y[1] == 0.0 and np.signbit(y[1])
        assert y[2] == 1.0 and y[3] == -1.0 and y[5] == 1.0
        assert np.isnan(y[4])

    def test_odd_symmetry_is_exact(self):
        x = np.random.default_rng(3).normal(0.0, 2.0, size=100_000)
        np.testing.assert_array_equal(_erf(-x), -_erf(x))

    def test_in_place_matches(self):
        x = np.random.default_rng(4).normal(0.0, 1.0, size=(3, 40_000))
        expected = _erf(x)
        y = x.copy()
        assert _erf(y, out=y) is y
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(_erf(x.ravel()), expected.ravel())
        with pytest.raises(ValueError):
            _erf(x, out=np.empty((40_000, 3)).T)

    def test_within_four_ulps_of_scipy(self):
        x = np.linspace(-8.0, 8.0, 200_001)
        assert_within_ulps(_erf(x), erf(x), 4)

    @staticmethod
    def large_where_form(a):
        """fdlibm's upper ranges with both erfc tail pairs evaluated on every
        tail element and one of them kept by np.where."""
        ad = autodiff
        y = np.ones_like(a)
        mid = a < 1.25
        s = a[mid] - 1.0
        y[mid] = ad._ERX + (ad._horner(s, ad._ERF_PA)
                            / ad._horner(s, ad._ERF_QA))
        tail = (a < 6.0) & ~mid
        t = a[tail]
        s = 1.0 / (t * t)
        r_s = np.where(t < _ERFC_SPLIT,
                       ad._horner(s, ad._ERF_RA) / ad._horner(s, ad._ERF_SA),
                       ad._horner(s, ad._ERF_RB) / ad._horner(s, ad._ERF_SB))
        z = (t.view(np.uint64) & ad._HIGH_WORD).view(np.float64)
        r = np.exp(-z * z - 0.5625) * np.exp((z - t) * (z + t) + r_s)
        y[tail] = 1.0 - r / t
        return y

    def test_large_ranges_bit_identical_to_one_where_form(self):
        """`_erf_large` evaluates each range on its own elements and skips
        an empty one: bit for bit the np.where form, across every break
        point, on inputs inside a single range and on an empty input."""
        b = np.array(self.BREAKS)
        edges = np.concatenate([b, np.nextafter(b, 0.0), np.nextafter(b, 9.0),
                                [np.inf]])
        cases = [np.linspace(0.84375, 6.5, 100_001), edges[edges >= 0.84375],
                 np.linspace(0.85, 1.2, 101), np.linspace(1.3, 2.8, 101),
                 np.linspace(2.9, 5.9, 101), np.linspace(6.0, 30.0, 11),
                 np.empty(0)]
        for a in cases:
            np.testing.assert_array_equal(_erf_large(a),
                                          self.large_where_form(a))


class TestMatmulAndShapes:

    def test_matmul_2d(self):
        check_op(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_matmul_batched(self):
        check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (2, 4, 5))

    def test_matmul_broadcast_weight(self):
        check_op(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 5))

    def test_getitem_slice(self):
        check_op(lambda a: (a[1:, :2] * a[1:, :2]).sum(), (4, 3))

    def test_getitem_repeated_fancy_index_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        picked = a[np.array([1, 1, 2])]
        picked.sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 2.0, 1.0, 0.0])

    @pytest.mark.parametrize("shape,idx", [
        ((6, 5), np.array([1, 1, 4, 0, 1])),
        ((6, 5), (slice(None), np.array([2, 0, 2, 2]))),
        ((3, 5, 4), (np.arange(3)[:, None], np.array([[0, 4, 0], [2, 2, 2],
                                                      [1, 3, 1]]))),
        ((4, 5, 3), (np.array([0, 3, 0, 0]), np.array([2, 1, 2, 2]))),
        ((4, 5, 3), (np.array([[1, 1], [2, 1]]), slice(1, 4),
                     np.array([0, 0]))),
    ], ids=["2d-rows", "2d-columns", "3d-per-row", "3d-pairs", "3d-mixed"])
    def test_fancy_index_backward_bit_identical_to_add_at(self, shape, idx):
        """The scatter sums repeated targets in np.add.at's order."""
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=shape), requires_grad=True)
        picked = a[idx]
        g = rng.normal(size=picked.shape) * 10.0 ** rng.integers(
            -8, 8, size=picked.shape)
        (picked * g).sum().backward()
        want = np.zeros(shape)
        np.add.at(want, idx, g)
        np.testing.assert_array_equal(a.grad, want)

    def test_reshape_and_swapaxes(self):
        check_op(lambda a: (a.reshape(6, 2).swapaxes(-1, -2)
                            @ a.reshape(6, 2)).sum(), (3, 4))

    def test_reshape_accepts_tuple(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert t.reshape((3, 2)).shape == (3, 2)
        assert t.reshape(3, 2).shape == (3, 2)

    def test_concat_grads(self):
        check_op(lambda a, b: (concat([a, b], axis=1) ** 2.0).sum(),
                 (2, 3), (2, 2))

    def test_sum_axis_keepdims(self):
        check_op(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), (3, 4))

    def test_mean(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))


class TestComposedOps:
    """Logsumexp and linear, from which the tests' composed references are
    built, and the softmax and layer-norm helpers of `encoder_layer`, each
    run as a node of its own (`helper_softmax`, `helper_layer_norm`)."""

    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(helper_softmax(Tensor(x), axis=-1).data,
                                   scipy_softmax(x, axis=-1), rtol=1e-12)
        np.testing.assert_allclose(helper_softmax(Tensor(x), axis=0).data,
                                   scipy_softmax(x, axis=0), rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = helper_softmax(Tensor(rng.normal(size=(6, 7)) * 50.0), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(helper_softmax(Tensor(x)).data,
                                   helper_softmax(Tensor(x + 100.0)).data,
                                   rtol=1e-12)

    def test_softmax_rejects_nan(self):
        with pytest.raises(ValueError):
            helper_softmax(Tensor(np.array([np.nan, 0.0])))

    def test_softmax_grad(self):
        check_op(lambda a: (helper_softmax(a, axis=-1) ** 2.0).sum(), (3, 4))

    def test_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 6)) * 30.0
        np.testing.assert_allclose(logsumexp(Tensor(x), axis=-1).data,
                                   scipy_logsumexp(x, axis=-1), rtol=1e-12)

    def test_logsumexp_keepdims_and_1d(self):
        x = np.array([0.0, 1.0, 2.0])
        out = logsumexp(Tensor(x), axis=-1)
        assert out.shape == ()
        kept = logsumexp(Tensor(x.reshape(1, 3)), axis=-1, keepdims=True)
        assert kept.shape == (1, 1)

    def test_logsumexp_grad_is_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5,))
        t = Tensor(x, requires_grad=True)
        logsumexp(t, axis=-1).backward()
        np.testing.assert_allclose(t.grad, scipy_softmax(x), rtol=1e-10)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(4, 8))
        out = helper_layer_norm(Tensor(x), Tensor(np.ones(8)),
                                Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4),
                                   atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4),
                                   rtol=1e-6)

    def test_layer_norm_grad(self):
        check_op(lambda x, g, b: (helper_layer_norm(x, g, b) ** 2.0).sum(),
                 (3, 5), (5,), (5,), tol=1e-5)

    @pytest.mark.parametrize("op", ["softmax", "layer_norm", "encoder_layer"])
    def test_fused_op_repeats_composed_arithmetic(self, op):
        """The one-node ops must equal, bit for bit, the same formula
        composed from elementary tape ops, in values and gradients."""

        # the layer as the encoder runs it: pair codes with NONE entries of
        # either kind, layer 1 of two layers' tables, the last key of graph
        # 0 padded
        codes = np.random.default_rng(6).integers(0, 12, size=(3, 6, 6))
        key_bias = np.zeros((3, 1, 6, 1))
        key_bias[0, 0, -1] = -np.inf

        def fused_encoder_layer(h, *rest):
            return encoder_layer(h, rest[:-2], 2, (*rest[-2:], 1, codes),
                                 key_bias)

        def composed_encoder_layer(h, wq, bq, wk, wv, bv, wo, bo, g1, b1,
                                   w1, c1, w2, c2, g2, b2, table_t, table_m):
            B, n, dim = h.shape

            def split(x):
                return x.reshape(B, n, 2, dim // 2).swapaxes(-2, -3)

            q, k, v = (split(linear(h, wq, bq)), split(linear(h, wk)),
                       split(linear(h, wv, bv)))
            logits = ((k @ q.swapaxes(-1, -2)) * (1.0 / math.sqrt(dim // 2))
                      + composed_edge_bias(table_t, table_m, 1, codes)
                      + key_bias)
            merged = composed_softmax(logits, axis=-2).swapaxes(-1, -2) @ v
            merged = merged.swapaxes(-2, -3).reshape(B, n, dim)
            h1 = composed_layer_norm(linear(merged, wo, bo) + h, g1, b1)
            ffn = linear(gelu(linear(h1, w1, c1)), w2, c2)
            return composed_layer_norm(ffn + h1, g2, b2)

        rng = np.random.default_rng(5)
        if op == "softmax":
            shapes = [(3, 2, 6, 6)]
            fused, composed = (lambda x: helper_softmax(x, axis=-2),
                               lambda x: composed_softmax(x, axis=-2))
        elif op == "layer_norm":
            shapes = [(3, 6, 8), (8,), (8,)]
            fused, composed = helper_layer_norm, composed_layer_norm
        else:
            shapes = [(3, 6, 8)] + layer_shapes(8, 2) + [(2, 2, 3), (2, 2, 4)]
            fused, composed = fused_encoder_layer, composed_encoder_layer
        arrays = [rng.normal(size=s) for s in shapes]
        weights = None
        results = []
        for fn in (fused, composed):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            # the op input is an interior node, as in the encoder
            out = fn(leaves[0] * 1.0, *leaves[1:])
            if weights is None:
                weights = rng.normal(size=out.shape)
            (out * weights).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_linear_shape_check(self):
        with pytest.raises(ValueError):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_linear_grad(self):
        check_op(lambda x, w, b: (linear(x, w, b) ** 2.0).sum(),
                 (4, 3), (3, 2), (2,))



class TestGatherCodes:
    """The edge-code gather inside `encoder_layer`: a pair table from one
    layer's temporal and modal tables (`_code_table`), read at the pair
    codes into the logits one head at a time (`_add_code_bias`), and its
    gradient, bincounted per head (`_code_grad`) and folded back onto both
    tables (`_fold_code_grad`)."""

    def tables(self, rng, n_heads, n_t, n_m):
        return rng.normal(size=(n_heads, n_t)), rng.normal(size=(n_heads, n_m))

    def test_values_and_none_code(self):
        rng = np.random.default_rng(0)
        bias_t, bias_m = self.tables(rng, 3, 4, 5)
        codes = rng.integers(0, 20, size=(2, 4, 4))
        codes[0, 1, 2] = 0
        assert (codes % 5 == 0).any() and (codes < 5).any()
        out = np.zeros((2, 3, 4, 4))
        _add_code_bias(out, _code_table(bias_t, bias_m), codes)
        t, m = codes // 5, codes % 5
        for b in range(2):
            for a in range(3):
                expect = (np.where(t[b] == 0, 0.0, bias_t[a][t[b]])
                          + np.where(m[b] == 0, 0.0, bias_m[a][m[b]]))
                np.testing.assert_array_equal(out[b, a], expect)
        assert (out.swapaxes(0, 1)[:, codes == 0] == 0.0).all()

    def test_single_row_table_keeps_code_shape(self):
        """One head and codes without a batch axis: (1, N, M) logits."""
        table = _code_table(np.array([[9.0, 1.5]]), np.array([[7.0, -2.0]]))
        codes = np.array([[0, 1], [2, 3]])
        out = np.zeros((1, 2, 2))
        _add_code_bias(out, table, codes)
        np.testing.assert_array_equal(out[0], [[0.0, -2.0], [1.5, -0.5]])

    @pytest.mark.parametrize("table_shape,code_shape", [
        ((1, 4, 5), (5, 5)),
        ((3, 4, 5), (5, 5)),
        ((3, 4, 5), (2, 5, 5)),
        ((2, 3, 2), (2, 3, 3)),
    ])
    def test_grad_matches_central_differences(self, table_shape, code_shape):
        """Both tables' gradients, folded from the per-head bincount."""
        n_heads, n_t, n_m = table_shape
        rng = np.random.default_rng(1)
        codes = rng.integers(0, n_t * n_m, size=code_shape)
        assert (codes // n_m == 0).any() and (codes % n_m == 0).any()
        bias_t, bias_m = self.tables(rng, n_heads, n_t, n_m)
        lead = code_shape[:-2] + (n_heads,) + code_shape[-2:]
        weights = rng.normal(size=lead)

        def f():
            out = np.zeros(lead)
            _add_code_bias(out, _code_table(bias_t, bias_m), codes)
            return float((out * weights).sum())

        got = _fold_code_grad(_code_grad(weights, codes, n_t * n_m), n_t, n_m)
        for table, grad in zip((bias_t, bias_m), got):
            np.testing.assert_allclose(grad, numeric_grad(f, table),
                                       rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("table_shape,code_shape", [
        ((1, 20), (9, 9)),
        ((4, 20), (3, 9, 9)),
        ((8, 20), (3, 9, 9)),
    ])
    def test_grad_bit_identical_to_one_flat_bincount(self, table_shape,
                                                     code_shape):
        """Reference: one bincount over an offset (head x code) index, and
        for the fold one bincount of the code-pair grid per table row;
        each sums its bins in the same order."""
        n_heads, n_codes = table_shape
        rng = np.random.default_rng(4)
        codes = rng.integers(0, n_codes, size=code_shape)
        g = rng.normal(size=code_shape[:-2] + (n_heads,) + code_shape[-2:])
        got = _code_grad(g, codes, n_codes)
        flat = (codes[..., None, :, :]
                + (np.arange(n_heads) * n_codes)[:, None, None]).ravel()
        want = np.bincount(flat, weights=g.ravel(),
                           minlength=n_heads * n_codes).reshape(n_heads, n_codes)
        want[:, 0] = 0.0
        np.testing.assert_array_equal(got, want)

        pair_t, pair_m = np.indices((4, 5))
        for folded, grid, n in zip(_fold_code_grad(got, 4, 5),
                                   (pair_t, pair_m), (4, 5)):
            rows = np.stack([np.bincount(grid.ravel(), weights=row,
                                         minlength=n) for row in got])
            rows[:, 0] = 0.0
            np.testing.assert_array_equal(folded, rows)

    def test_none_code_gets_no_gradient(self):
        g = np.ones((1, 2, 3, 3))
        np.testing.assert_array_equal(
            _code_grad(g, np.zeros((1, 3, 3), dtype=np.int64), 20),
            np.zeros((2, 20)))
        for grad in _fold_code_grad(np.ones((2, 20)), 4, 5):
            assert (grad[:, 0] == 0.0).all() and (grad[:, 1:] > 0.0).all()

    def test_out_of_range_code_rejected(self):
        """`encoder_layer` checks the whole codes array once, before its
        chunked attention, with and without a tape."""
        rng = np.random.default_rng(2)
        params = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in layer_shapes(8, 2)]
        h = Tensor(rng.normal(size=(3, 4, 8)))
        tables = Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 2, 5)))
        for bad in (20, -1):
            codes = np.zeros((3, 4, 4), dtype=np.int64)
            codes[2, 1, 3] = bad
            for context in (contextlib.nullcontext, no_grad):
                with context(), pytest.raises(IndexError, match="edge code"):
                    encoder_layer(h, params, 2, (*tables, 0, codes))


class TestOrderedSum:
    """`_ordered_sum` carried over chunks of graphs equals numpy's sum over
    the whole batch bit for bit, in each layout `encoder_layer` sums its
    parameter gradients in. Terms span 16 orders of magnitude, so any
    other order of the additions shows in the last bits."""

    @staticmethod
    def terms(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)

    @staticmethod
    def carried(parts, shape, fresh):
        """Each chunk's terms summed after the running sum of the chunks
        before it."""
        total = None
        for part in parts:
            total = _ordered_sum(part.copy(), shape, total, fresh)
        return total

    @staticmethod
    def chunks(n, step):
        return [slice(i, i + step) for i in range(0, n, step)]

    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    def test_contiguous_rows(self, step, fresh):
        """Bias and layer-norm terms: (B, N, dim) rows summed row after row
        over all B * N rows."""
        g = self.terms((7, 5, 6), 0)
        whole = g.sum(axis=(0, 1))
        parts = [g[c] for c in self.chunks(len(g), step)]
        assert self.carried(parts, (6,), fresh).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    def test_per_graph_products(self, step):
        """Weight terms: a (B, d_in, d_out) stack of per-graph products
        summed graph after graph."""
        x, g = self.terms((7, 5, 4), 1), self.terms((7, 5, 6), 2)
        whole = (x.swapaxes(-1, -2) @ g).sum(axis=0)
        parts = [x[c].swapaxes(-1, -2) @ g[c]
                 for c in self.chunks(len(x), step)]
        assert self.carried(parts, (4, 6), True).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("queries", [5, 40, 150])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_strided_query_layout(self, step, queries):
        """bq's terms: the query gradient as the transpose of a (B, H,
        d_head, M) array, which numpy sums per graph over its queries
        (pairwise once M reaches 8), then graph after graph."""
        heads, dh = 2, 3
        g_qt = self.terms((7, heads, dh, queries), 3)
        g_q = g_qt.swapaxes(-1, -2).swapaxes(-2, -3).reshape(
            7, queries, heads * dh)
        assert g_q.base is not None           # the strided view, not a copy
        whole = g_q.sum(axis=(0, 1))
        parts = [g_qt[c].sum(axis=-1).reshape(-1, heads * dh)
                 for c in self.chunks(7, step)]
        got = self.carried(parts, (heads * dh,), True)
        assert got.tobytes() == whole.tobytes()

    def test_adding_chunk_sums_differs(self):
        """The data tells the orders apart: adding each chunk's own sum to
        the running sum, prev + chunk.sum(0), misses the whole batch's sum
        in every layout above."""
        g = self.terms((7, 5, 6), 0)
        x, w = self.terms((7, 5, 4), 1), self.terms((7, 5, 6), 2)
        g_qt = self.terms((7, 2, 3, 150), 3)
        cases = [
            (g.reshape(-1, 6), g.sum(axis=(0, 1)), 5 * 2),
            (x.swapaxes(-1, -2) @ w, (x.swapaxes(-1, -2) @ w).sum(axis=0), 2),
            (g_qt.sum(axis=-1).reshape(7, 6),
             g_qt.swapaxes(-1, -2).swapaxes(-2, -3).reshape(
                 7, 150, 6).sum(axis=(0, 1)), 2)]
        for stack, whole, step in cases:
            naive = sum(stack[i:i + step].sum(axis=0)
                        for i in range(0, len(stack), step))
            assert naive.tobytes() != whole.tobytes()


class TestEncoderLayer:

    # graph 0's last key is padded; both code matrices hold NONE entries
    key_bias = np.array([[0.0, 0.0, 0.0, -np.inf],
                         [0.0, 0.0, 0.0, 0.0]])[:, None, :, None]
    codes_t = np.random.default_rng(7).integers(0, 3, size=(2, 4, 4))
    codes_m = np.random.default_rng(8).integers(0, 5, size=(2, 4, 4))
    codes = codes_t * 5 + codes_m

    def build(self, h, *rest):
        """h (2, 4, 8) through a two-head layer, the second of two layers'
        bias tables; its edge bias sums a temporal and a modal table's
        entries at the pair codes, as the encoder's does."""
        params, table_t, table_m = rest[:15], rest[15], rest[16]
        return encoder_layer(h, params, 2, (table_t, table_m, 1, self.codes),
                             self.key_bias)

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 4, 8)] + layer_shapes(8, 2) + [(2, 2, 3), (2, 2, 5)]
        return [rng.normal(size=s) for s in shapes]

    def test_grad_matches_central_differences(self):
        """Over h, all 15 layer parameters and both bias tables; the other
        layer's table rows and the NONE columns get no gradient."""
        assert (self.codes_t == 0).any() and (self.codes_m == 0).any()
        weights = np.random.default_rng(2).normal(size=(2, 4, 8))
        shapes = [a.shape for a in self.arrays(0)]
        check_op(lambda *leaves: (self.build(*leaves) * weights).sum(),
                 *shapes, seed=3)

    def test_no_grad_same_values_no_tape_inputs_untouched(self):
        arrays = self.arrays(3)
        key_bias = self.key_bias.copy()
        before = [a.copy() for a in arrays] + [key_bias]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        taped = self.build(*leaves)
        with no_grad():
            free = self.build(*leaves)
        assert taped.requires_grad and taped._parents
        taped.sum().backward()
        assert not free.requires_grad
        assert free._parents == () and free._backward is None
        np.testing.assert_array_equal(free.data, taped.data)
        for now, then in zip(arrays + [self.key_bias], before):
            np.testing.assert_array_equal(now, then)

    # rows of each graph to compute: repeats in both, as padded CLS slots
    # pointing at row 0 give; graph 0's padded key is not queried
    rows = np.array([[0, 2, 0], [3, 1, 3]])
    picked = (np.arange(2)[:, None], rows)

    def build_rows(self, h, *rest):
        """`build` with only `rows` computed, over their code columns."""
        params, table_t, table_m = rest[:15], rest[15], rest[16]
        codes = np.take_along_axis(self.codes, self.rows[:, None, :], axis=2)
        return encoder_layer(h, params, 2, (table_t, table_m, 1, codes),
                             self.key_bias, self.rows)

    def test_rows_grad_matches_central_differences(self):
        """Over h, all 15 layer parameters and both bias tables."""
        weights = np.random.default_rng(5).normal(size=(2, 3, 8))
        shapes = [a.shape for a in self.arrays(0)]
        check_op(lambda *leaves: (self.build_rows(*leaves) * weights).sum(),
                 *shapes, seed=6)

    def test_rows_match_full_layer_gathered(self):
        """Values and gradients of the row-pruned layer equal the full
        layer's, with the rows gathered after it."""
        arrays = self.arrays(5)
        weights = np.random.default_rng(6).normal(size=(2, 3, 8))
        results = []
        for fn in (self.build_rows,
                   lambda *t: self.build(*t)[self.picked]):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(leaves[0] * 1.0, *leaves[1:])
            (out * weights).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_rows_no_grad_same_values_no_tape_inputs_untouched(self):
        arrays = self.arrays(6)
        before = [a.copy() for a in arrays] + [self.rows.copy()]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        taped = self.build_rows(*leaves)
        with no_grad():
            free = self.build_rows(*leaves)
        taped.sum().backward()
        assert free.shape == (2, 3, 8)
        assert free._parents == () and free._backward is None
        np.testing.assert_array_equal(free.data, taped.data)
        for now, then in zip(arrays + [self.rows], before):
            np.testing.assert_array_equal(now, then)

    def test_no_grad_frees_attention_arrays_once_used(self):
        """Without a tape the peak allocation stays below twice the
        (B, H, N, N) logits: the probabilities overwrite the logits, and
        q, k, v and the probabilities are freed before the output
        projection and the FFN allocate. At this shape the logits are six
        times the layer input; keeping those arrays alive to the end of
        the layer peaks above the bound."""
        b, heads, n, dim = 64, 4, 48, 32
        rng = np.random.default_rng(9)
        params = [Tensor(rng.normal(size=s) * 0.1) for s in layer_shapes(dim, 2)]
        h = Tensor(rng.normal(size=(b, n, dim)))
        edge = (Tensor(rng.normal(size=(1, heads, 4))),
                Tensor(rng.normal(size=(1, heads, 5))), 0,
                rng.integers(0, 20, size=(b, n, n)))
        with no_grad():
            encoder_layer(h, params, heads, edge)   # warm numpy's caches
            tracemalloc.start()
            try:
                encoder_layer(h, params, heads, edge)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * b * heads * n * n * 8

    @pytest.mark.parametrize("case", ["full", "rows", "no_grad"])
    def test_chunking_is_invisible(self, case, monkeypatch):
        """Five graphs, the attention run as chunks of 2 + 2 + 1 graphs,
        equal the one-chunk run bit for bit in the output and all 18
        gradients. Graph 3, in the second chunk, has a padded key."""
        rng = np.random.default_rng(11)
        shapes = [(5, 4, 8)] + layer_shapes(8, 2) + [(2, 2, 3), (2, 2, 5)]
        arrays = [rng.normal(size=s) for s in shapes]
        codes = rng.integers(0, 15, size=(5, 4, 4))
        key_bias = np.zeros((5, 1, 4, 1))
        key_bias[3, 0, 2] = -np.inf
        rows = None
        if case == "rows":
            rows = rng.integers(0, 4, size=(5, 3))
            codes = np.take_along_axis(codes, rows[:, None, :], axis=2)
        weights = rng.normal(size=(5, 4 if rows is None else 3, 8))
        chunk_graphs = []
        parts = autodiff._softmax_parts

        def counted_parts(x, *args, **kwargs):
            chunk_graphs.append(len(x))
            return parts(x, *args, **kwargs)

        monkeypatch.setattr(autodiff, "_softmax_parts", counted_parts)
        results = []
        # two graphs' (dim, ffn) weight-gradient products, each larger than
        # a graph's (H, N, M) logits, per chunk, then every graph in one
        for chunk in (2 * 8 * 16, 1 << 16):
            monkeypatch.setattr(autodiff, "_ATTN_CHUNK", chunk)
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            context = no_grad if case == "no_grad" else contextlib.nullcontext
            with context():
                out = encoder_layer(leaves[0] * 1.0, leaves[1:16], 2,
                                    (*leaves[16:], 1, codes), key_bias, rows)
            if case == "no_grad":
                results.append([out.data])
                continue
            (out * weights).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        # forward, and backward's recompute, in both runs
        per_run = [2, 2, 1] * (1 if case == "no_grad" else 2)
        assert chunk_graphs == per_run + [5] * (len(per_run) // 3)
        assert len(results[0]) == (1 if case == "no_grad" else 19)
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    def test_tape_holds_no_attention_sized_array(self):
        """The taped layer keeps nothing of its softmax: no array its
        backward closure reaches, directly or through a helper's closure
        or a tuple, has the B * H * N * N elements of the logits."""
        b, heads, n, dim = 64, 4, 48, 32
        rng = np.random.default_rng(12)
        params = [Tensor(rng.normal(size=s) * 0.1, requires_grad=True)
                  for s in layer_shapes(dim, 2)]
        h = Tensor(rng.normal(size=(b, n, dim)))
        key_bias = np.zeros((b, 1, n, 1))
        key_bias[5, 0, -2:] = -np.inf
        edge = (Tensor(rng.normal(size=(1, heads, 4))),
                Tensor(rng.normal(size=(1, heads, 5))), 0,
                rng.integers(0, 20, size=(b, n, n)))
        out = encoder_layer(h, params, heads, edge, key_bias)
        sizes = [a.size for a in tape_arrays(out)]
        # input, attention output, Phi, layer-norm and softmax statistics,
        # pair table, codes and key mask: the walk reached the tape
        assert len(sizes) >= 8
        assert b * heads * n * n not in sizes

    def test_tape_keeps_only_costly_arrays(self):
        """The taped layer keeps only what is costly to rebuild: its input,
        the attention output and the GELU's Phi, 4 units of B * N * dim
        floats (Phi is (B, N, 2 * dim)), besides the (B, N, 1) layer-norm
        and (B, H, 1, N) softmax statistics. Backward rebuilds both layer
        norms' centred rows, q, k and v and the FFN's input, pre-activation
        and activation; keeping any of them adds at least one more unit."""
        b, heads, n, dim = 64, 4, 48, 32
        rng = np.random.default_rng(13)
        params = [Tensor(rng.normal(size=s) * 0.1, requires_grad=True)
                  for s in layer_shapes(dim, 2)]
        h = Tensor(rng.normal(size=(b, n, dim)))
        out = encoder_layer(h, params, heads)
        buffers = {}
        for a in tape_arrays(out):
            while a.base is not None:
                a = a.base
            buffers[id(a)] = a.size
        stats = 2 * 3 * b * n + 3 * b * heads * n
        assert sum(buffers.values()) <= 4 * b * n * dim + stats

    def test_backward_peak_is_chunk_sized(self):
        """The taped layer's backward runs each chunk of graphs through its
        whole backward, the chunk's forward rebuilt from the tape, before
        the next, and sums every weight and bias gradient as a running sum
        carried from chunk to chunk. Its only whole-batch array is the
        input gradient, which it hands to the input without a copy, so it
        peaks at most 6 units of B * N * dim floats above its entry (3.9,
        inside the chunk loop). Running the FFN, the layer norms and the
        output and input projections' backward over the whole batch peaked
        at 7.5 units."""
        b, heads, n, dim = 64, 4, 48, 32
        rng = np.random.default_rng(14)
        params = [Tensor(rng.normal(size=s) * 0.1, requires_grad=True)
                  for s in layer_shapes(dim, 2)]
        h = Tensor(rng.normal(size=(b, n, dim)), requires_grad=True)
        edge = (Tensor(rng.normal(size=(1, heads, 4)), requires_grad=True),
                Tensor(rng.normal(size=(1, heads, 5)), requires_grad=True), 0,
                rng.integers(0, 20, size=(b, n, n)).astype(np.int8))
        g = rng.normal(size=(b, n, dim))
        leaves = [h, *params, *edge[:2]]
        for _ in range(2):             # the first run warms numpy's caches
            out = encoder_layer(h, params, heads, edge)
            for t in leaves:
                t.grad = None
            tracemalloc.start()
            try:
                out._backward(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(t.grad is not None for t in leaves)
        assert peak <= 6 * b * n * dim * 8, peak / (b * n * dim * 8)

    def test_rejects_nan(self):
        arrays = self.arrays(4)
        arrays[-1][1, 1] = np.nan
        for context in (contextlib.nullcontext, no_grad):
            with context(), pytest.raises(ValueError, match="NaN"):
                self.build(*[Tensor(a, requires_grad=True) for a in arrays])


# ----------------------------------------------------------------------
# the model's fused nodes and the composed chains they replace

# a padded batch of 3 graphs: 5 text rows, 4 visual rows (2 of them CLS)
EMB_TOKENS = np.array([[5, 1, 1, 0, 6], [5, 2, 3, 3, 6], [5, 0, 0, 4, 6]])
EMB_SEGMENTS = np.array([[0, 1, 1, 2, 2, 1, 1, 2, 0],
                         [0, 3, 3, 1, 1, 3, 2, 2, 3],
                         [0, 1, 2, 2, 2, 0, 1, 0, 0]])
EMB_CLS = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                    [0.0, 1.0, 1.0, 0.0]])
EMB_FEATURES = np.random.default_rng(10).normal(size=(3, 4, 3)) * (1 - EMB_CLS)[..., None]
EMB_BOXES = np.random.default_rng(11).uniform(size=(3, 4, 6)) * (1 - EMB_CLS)[..., None]
EMB_SHAPES = [(7, 6), (5, 6), (4, 6), (3, 6), (6,), (6, 6), (6,), (6,)]


def composed_node_embedding(tok, pos, seg, vis_w, vis_b, box_w, box_b, vis_cls):
    n_text = EMB_TOKENS.shape[1]
    h_text = (tok[EMB_TOKENS] + pos[np.arange(n_text)]
              + seg[EMB_SEGMENTS[:, :n_text]])
    obj_mask = Tensor((1.0 - EMB_CLS)[..., None])
    cls_mask = Tensor(EMB_CLS[..., None])
    h_vis = (linear(Tensor(EMB_FEATURES), vis_w, vis_b) * obj_mask
             + vis_cls * cls_mask + linear(Tensor(EMB_BOXES), box_w, box_b)
             + seg[EMB_SEGMENTS[:, n_text:]])
    return concat([h_text, h_vis], axis=1)


def fused_node_embedding(*params):
    return node_embedding(params, EMB_TOKENS, np.arange(5), EMB_SEGMENTS,
                          EMB_FEATURES, EMB_BOXES, EMB_CLS)


def composed_tanh_mlp(x, w1, b1, w2, b2=None):
    return linear(linear(x, w1, b1).tanh(), w2, b2)


def composed_split_mlps(h, *params):
    return concat([composed_tanh_mlp(h[:, :3], *params[:4]),
                   composed_tanh_mlp(h[:, 3:], *params[4:])], axis=1)


def fused_split_mlps(h, *params):
    return split_tanh_mlps(h, 3, params[:4], params[4:])


def composed_pair_sequence(ht, hv, cls, sep, *proj):
    if proj:
        ht, hv = linear(ht, *proj), linear(hv, *proj)
    zeros = Tensor(np.zeros((ht.shape[0], 1, cls.shape[0])))
    return concat([zeros + cls, ht, zeros + sep, hv], axis=1)


def fused_pair_sequence(ht, hv, cls, sep, *proj):
    return pair_sequence(ht, hv, cls, sep, proj or None)


def composed_readout(h, w1, b1, w2):
    return composed_tanh_mlp(h[:, 0], w1, b1, w2)[:, 0]


GOLD = np.array([2, 0, 3, 3, 1])


def composed_cross_entropy(scores):
    picked = scores[(np.arange(scores.shape[0]), GOLD)]
    return (logsumexp(scores, axis=-1) - picked).mean()


# two graphs of 4 text and 5 visual CLS rows; instance 0 reads 3 aligned
# rows of graph 1 and 4 negatives, instance 1 one row of graph 0 and 2
# negatives (repeats included)
NCE_INDEX = ((np.array([[1], [0]]), np.array([[0, 2, 3], [1, 0, 0]])),
             (np.array([[1], [0]]), np.arange(3)),
             (np.array([[0, 0, 1, 0], [1, 1, 0, 0]]),
              np.array([[0, 4, 2, 0], [3, 4, 0, 0]])))
NCE_ROWS, NCE_NEG = np.array([3, 1]), np.array([4, 2])


def composed_info_nce(t, v, u, tau, inclusive, n_rows, n_neg):
    """The batched InfoNCE formula composed from tape ops."""

    def unit(x, valid):
        sq = (x * x).sum(axis=-1, keepdims=True)
        if not valid.all():
            sq = sq + np.where(valid, 0.0, 1.0)[..., None]
        return x / sq.sqrt()

    rows = np.arange(t.shape[1]) < n_rows[:, None]
    negs = np.arange(u.shape[1]) < n_neg[:, None]
    t_hat, v_hat, u_hat = unit(t, rows), unit(v, rows), unit(u, negs)
    pos_logit = (t_hat * v_hat).sum(axis=-1, keepdims=True) * (1.0 / tau)
    neg_logits = (t_hat @ u_hat.swapaxes(-1, -2)) * (1.0 / tau)
    if not negs.all():
        neg_logits = neg_logits + np.where(negs, 0.0, -np.inf)[:, None, :]
    logits = (concat([pos_logit, neg_logits], axis=-1) if inclusive
              else neg_logits)
    per_row = logsumexp(logits, axis=-1, keepdims=True) - pos_logit
    if not rows.all():
        per_row = per_row * rows[..., None]
    return (per_row.sum(axis=(1, 2)) * (1.0 / n_rows)).mean()


def composed_coherence(ht, hv, inclusive):
    return composed_info_nce(ht[NCE_INDEX[0]], hv[NCE_INDEX[1]],
                             hv[NCE_INDEX[2]], 0.3, inclusive, NCE_ROWS, NCE_NEG)


def fused_coherence(ht, hv, inclusive):
    return info_nce(ht, hv, hv, 0.3, inclusive, NCE_ROWS, NCE_NEG, NCE_INDEX)


# hv also feeds another node whose gradient reaches it first, as the
# scorer input does in the model, so the order in which the positive and
# negative rows' gradients are added to it shows in the last bits
NCE_OTHER = np.random.default_rng(16).normal(size=(2, 5, 6))


FUSED_CASES = {
    # name: (fused, composed, input shapes)
    "node_embedding": (fused_node_embedding, composed_node_embedding,
                       EMB_SHAPES),
    "split_tanh_mlps": (fused_split_mlps, composed_split_mlps,
                        [(2, 5, 4)] + [(4, 4), (4,), (4, 3), (3,)] * 2),
    "pair_sequence": (fused_pair_sequence, composed_pair_sequence,
                      [(2, 3, 4), (2, 2, 4), (4,), (4,)]),
    "pair_sequence_projected": (fused_pair_sequence, composed_pair_sequence,
                                [(2, 3, 4), (2, 2, 4), (6,), (6,), (4, 6),
                                 (6,)]),
    "mlp_readout": (mlp_readout, composed_readout,
                    [(4, 3, 5), (5, 5), (5,), (5, 1)]),
    "cross_entropy": (lambda x: cross_entropy(x, GOLD), composed_cross_entropy,
                      [(5, 4)]),
    "info_nce": (lambda t, v: fused_coherence(t, v, True),
                 lambda t, v: composed_coherence(t, v, True),
                 [(2, 4, 6), (2, 5, 6)]),
    "info_nce_exclusive": (lambda t, v: fused_coherence(t, v, False),
                           lambda t, v: composed_coherence(t, v, False),
                           [(2, 4, 6), (2, 5, 6)]),
    "info_nce_after_other_use": (
        lambda t, v: (v * NCE_OTHER).sum() + fused_coherence(t, v, True),
        lambda t, v: (v * NCE_OTHER).sum() + composed_coherence(t, v, True),
        [(2, 4, 6), (2, 5, 6)]),
    "add_scaled": (lambda a, b: add_scaled(a, b, 0.3),
                   lambda a, b: a + 0.3 * b, [(), ()]),
}


class TestFusedModelOps:
    """Each fused node of the training step against the composed chain it
    replaced: bit-identical values and gradients, and central
    differences."""

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_repeats_composed_arithmetic(self, name):
        fused, composed, shapes = FUSED_CASES[name]
        rng = np.random.default_rng(12)
        arrays = [rng.normal(size=s) for s in shapes]
        results, weights = [], None
        for fn in (fused, composed):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            # the first input is an interior node, as in the model
            out = fn(leaves[0] * 1.0, *leaves[1:])
            if weights is None:
                weights = rng.normal(size=out.shape)
            (out * weights).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(FUSED_CASES))
    def test_grad_matches_central_differences(self, name):
        fused, _, shapes = FUSED_CASES[name]
        out_shape = fused(*[Tensor(np.ones(s)) for s in shapes]).shape
        weights = np.random.default_rng(13).normal(size=out_shape)
        check_op(lambda *t: (fused(*t) * weights).sum(), *shapes, seed=14)

    def test_split_tanh_mlps_tapes_only_its_input(self):
        """The modality MLPs tape no activations: backward rebuilds them
        from the input, the one array the node keeps."""
        _, _, shapes = FUSED_CASES["split_tanh_mlps"]
        rng = np.random.default_rng(16)
        h, *params = [Tensor(rng.normal(size=s), requires_grad=True)
                      for s in shapes]
        arrays = tape_arrays(fused_split_mlps(h, *params))
        assert len(arrays) == 1 and arrays[0] is h.data

    def test_node_embedding_without_visual_rows(self):
        """Text-only graphs: only the text tables are parents."""
        params = [Tensor(np.random.default_rng(15).normal(size=s),
                         requires_grad=True) for s in EMB_SHAPES]
        out = node_embedding(params, EMB_TOKENS, np.arange(5),
                             EMB_SEGMENTS[:, :5], np.zeros((3, 0, 3)),
                             np.zeros((3, 0, 6)), np.zeros((3, 0)))
        assert out.shape == (3, 5, 6) and len(out._parents) == 3
        out.sum().backward()
        assert all(p.grad is None for p in params[3:])

    def test_info_nce_rejects_zero_norm_and_empty_counts(self):
        t = Tensor(np.ones((1, 2, 3)))
        with pytest.raises(ValueError, match="zero-norm"):
            info_nce(t, Tensor(np.zeros((1, 2, 3))), t, 0.1)
        with pytest.raises(ValueError, match="negative"):
            info_nce(t, t, t, 0.1, n_rows=[2], n_neg=[0])
        with pytest.raises(ValueError, match="aligned row"):
            info_nce(t, t, t, 0.1, n_rows=[0], n_neg=[2])


class TestNoGrad:

    def build(self, x, w):
        return (composed_softmax(linear(x, w).tanh(), axis=-1) * 2.0).sum()

    def test_same_values_and_no_tape(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        taped = self.build(x, w)
        with no_grad():
            free = self.build(x, w)
            hidden = linear(x, w)
        assert taped.requires_grad and taped._parents
        assert not free.requires_grad
        assert free._parents == () and free._backward is None
        assert hidden._parents == () and hidden._backward is None
        np.testing.assert_array_equal(free.data, taped.data)
        with pytest.raises(RuntimeError):
            free.backward()

    def test_restores_recording_on_exit(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        out = (w * w).sum()
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])


class TestGraphMechanics:

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_shared_subexpression_accumulates(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t + t
        y.sum().backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_deep_chain_is_iterative(self):
        # long chains would overflow a recursive backward implementation
        t = Tensor(np.array([1.0]), requires_grad=True)
        x = t
        for _ in range(5000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_constant_tensors_track_nothing(self):
        out = Tensor(np.ones(3)) * Tensor(np.ones(3))
        assert not out.requires_grad
        assert out._parents == ()

    def test_a_tape_is_walked_once(self):
        """A second backward() through a released tape raises instead of
        leaving the leaves without gradients; a leaf's backward() does not
        record a tape and may repeat."""
        t = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        hidden = t * t
        loss = hidden.sum()
        loss.backward()
        np.testing.assert_array_equal(t.grad, [4.0, 6.0])
        with pytest.raises(RuntimeError, match="released by an earlier"):
            loss.backward()
        with pytest.raises(RuntimeError, match="released by an earlier"):
            (hidden * 2.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [4.0, 6.0])
        leaf = Tensor(1.5, requires_grad=True)
        leaf.backward()
        leaf.backward()
        assert leaf.grad == 2.0

    def test_backward_frees_the_tape(self):
        """Once backward() returns, the values the tape held for it are
        freed by reference counting alone; the leaves' gradients and the
        root's value stay."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        hidden = linear(x, w).tanh()
        probs = composed_softmax(hidden, axis=-1)
        refs = [weakref.ref(hidden.data), weakref.ref(probs.data)]
        loss = (probs * probs).sum()
        want = float(loss.data)
        del hidden, probs
        collecting = gc.isenabled()
        gc.disable()
        try:
            assert all(ref() is not None for ref in refs)
            loss.backward()
            assert all(ref() is None for ref in refs)
        finally:
            if collecting:
                gc.enable()
        assert float(loss.data) == want
        assert x.grad.shape == (4, 3) and w.grad.shape == (3, 5)
        assert loss._parents == () and loss.grad is None


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_bilinear_grad_identity(n, m, seed):
    """For f = u^T A v the gradient of A is the outer product u v^T."""
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.normal(size=m)
    a = Tensor(rng.normal(size=(n, m)), requires_grad=True)
    out = (Tensor(u).reshape(1, n) @ a @ Tensor(v).reshape(m, 1))
    out.sum().backward()
    np.testing.assert_allclose(a.grad, np.outer(u, v), rtol=1e-10, atol=1e-10)

"""Autodiff substrate tests.

Backward rules are checked against central finite differences computed in
the tests themselves, plus closed-form identities where they exist.
"""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.special import logsumexp as scipy_logsumexp
from scipy.special import softmax as scipy_softmax

from tmeg.autodiff import (
    Tensor, _gelu_backward, _gelu_cdf, concat, encoder_layer, gather_codes,
    layer_norm, linear, logsumexp, no_grad, softmax,
)


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


def layer_shapes(dim, mult):
    """Shapes of a transformer layer's 15 parameters, in `encoder_layer`
    order."""
    d, f = (dim,), (mult * dim,)
    return [(dim, dim), d, (dim, dim), (dim, dim), d, (dim, dim), d, d, d,
            (dim, mult * dim), f, (mult * dim, dim), d, d, d]


def gelu(x):
    """The exact GELU x * Phi(x) as one elementary tape node: the
    reference the fused encoder layer's FFN must repeat."""
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))

    def bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        x._accumulate(g * (cdf + x.data * pdf))

    return Tensor(x.data * cdf, parents=(x,), backward=bw)


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
        g = _gelu_backward(np.ones(9), x, _gelu_cdf(x))
        num = numeric_grad(lambda: float((x * _gelu_cdf(x)).sum()), x)
        np.testing.assert_allclose(g, num, rtol=1e-6, atol=1e-6)


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

    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(softmax(Tensor(x), axis=-1).data,
                                   scipy_softmax(x, axis=-1), rtol=1e-12)
        np.testing.assert_allclose(softmax(Tensor(x), axis=0).data,
                                   scipy_softmax(x, axis=0), rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = softmax(Tensor(rng.normal(size=(6, 7)) * 50.0), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(Tensor(x)).data,
                                   softmax(Tensor(x + 100.0)).data, rtol=1e-12)

    def test_softmax_rejects_nan(self):
        with pytest.raises(ValueError):
            softmax(Tensor(np.array([np.nan, 0.0])))

    def test_softmax_grad(self):
        check_op(lambda a: (softmax(a, axis=-1) ** 2.0).sum(), (3, 4))

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
        out = layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4),
                                   atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4),
                                   rtol=1e-6)

    def test_layer_norm_grad(self):
        check_op(lambda x, g, b: (layer_norm(x, g, b) ** 2.0).sum(),
                 (3, 5), (5,), (5,), tol=1e-5)

    @pytest.mark.parametrize("op", ["softmax", "layer_norm", "encoder_layer"])
    def test_fused_op_repeats_composed_arithmetic(self, op):
        """The one-node ops must equal, bit for bit, the same formula
        composed from elementary tape ops, in values and gradients."""

        def composed_softmax(x):
            e = (x - x.data.max(axis=-2, keepdims=True)).exp()
            return e / e.sum(axis=-2, keepdims=True)

        def composed_layer_norm(x, g, b):
            centered = x - x.mean(axis=-1, keepdims=True)
            var = (centered * centered).mean(axis=-1, keepdims=True)
            return centered / (var + 1e-12).sqrt() * g + b

        # the layer as the encoder runs it: edge codes with NONE entries,
        # the last key of graph 0 padded
        codes = np.random.default_rng(6).integers(0, 4, size=(3, 6, 6))
        key_bias = np.zeros((3, 1, 6, 1))
        key_bias[0, 0, -1] = -np.inf

        def fused_encoder_layer(h, *rest):
            return encoder_layer(h, rest[:-1], 2, gather_codes(rest[-1], codes),
                                 key_bias)

        def composed_encoder_layer(h, wq, bq, wk, wv, bv, wo, bo, g1, b1,
                                   w1, c1, w2, c2, g2, b2, table):
            B, n, dim = h.shape

            def split(x):
                return x.reshape(B, n, 2, dim // 2).swapaxes(-2, -3)

            q, k, v = (split(linear(h, wq, bq)), split(linear(h, wk)),
                       split(linear(h, wv, bv)))
            logits = ((k @ q.swapaxes(-1, -2)) * (1.0 / math.sqrt(dim // 2))
                      + gather_codes(table, codes) + key_bias)
            merged = softmax(logits, axis=-2).swapaxes(-1, -2) @ v
            merged = merged.swapaxes(-2, -3).reshape(B, n, dim)
            h1 = layer_norm(linear(merged, wo, bo) + h, g1, b1)
            ffn = linear(gelu(linear(h1, w1, c1)), w2, c2)
            return layer_norm(ffn + h1, g2, b2)

        rng = np.random.default_rng(5)
        if op == "softmax":
            shapes = [(3, 2, 6, 6)]
            fused, composed = (lambda x: softmax(x, axis=-2)), composed_softmax
        elif op == "layer_norm":
            shapes = [(3, 6, 8), (8,), (8,)]
            fused, composed = layer_norm, composed_layer_norm
        else:
            shapes = [(3, 6, 8)] + layer_shapes(8, 2) + [(2, 4)]
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

    def codes(self, rng, shape, n_codes):
        return rng.integers(0, n_codes, size=shape)

    def test_values_and_none_code(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(3, 5))
        codes = self.codes(rng, (2, 4, 4), 5)
        out = gather_codes(Tensor(table), codes).data
        assert out.shape == (2, 3, 4, 4)
        for b in range(2):
            for a in range(3):
                expect = np.where(codes[b] == 0, 0.0, table[a][codes[b]])
                np.testing.assert_array_equal(out[b, a], expect)

    def test_single_row_table_keeps_code_shape(self):
        table = np.array([9.0, 1.5, -2.0])
        codes = np.array([[0, 1], [2, 0]])
        out = gather_codes(Tensor(table), codes).data
        np.testing.assert_array_equal(out, [[0.0, 1.5], [-2.0, 0.0]])

    @pytest.mark.parametrize("table_shape,code_shape", [
        ((4,), (5, 5)),
        ((3, 4), (5, 5)),
        ((3, 4), (2, 5, 5)),
        ((2, 3, 4), (2, 3, 3)),
    ])
    def test_grad_matches_central_differences(self, table_shape, code_shape):
        rng = np.random.default_rng(1)
        codes = self.codes(rng, code_shape, table_shape[-1])
        assert (codes == 0).any() and (codes != 0).any()
        out_shape = (code_shape[:-2] + table_shape[:-1] + code_shape[-2:])
        weights = rng.normal(size=out_shape)
        check_op(lambda t: (gather_codes(t, codes) * weights).sum(),
                 table_shape)

    @pytest.mark.parametrize("table_shape,code_shape", [
        ((7,), (9, 9)),
        ((4, 7), (3, 9, 9)),
        ((2, 4, 7), (3, 9, 9)),
    ])
    def test_grad_bit_identical_to_one_flat_bincount(self, table_shape,
                                                     code_shape):
        """Reference: one bincount over an offset (rows x codes) index,
        which sums each bin's elements in the same order."""
        rng = np.random.default_rng(4)
        codes = self.codes(rng, code_shape, table_shape[-1])
        lead, nb = table_shape[:-1], len(code_shape) - 2
        g = rng.normal(size=code_shape[:-2] + lead + code_shape[-2:])
        table = Tensor(rng.normal(size=table_shape), requires_grad=True)
        (gather_codes(table, codes) * g).sum().backward()

        n_rows, n_codes = int(np.prod(lead)), table_shape[-1]
        moved = np.moveaxis(g, tuple(range(nb, nb + len(lead))),
                            tuple(range(len(lead))))
        flat = (codes.reshape(1, -1)
                + (np.arange(n_rows) * n_codes)[:, None]).ravel()
        want = np.bincount(flat, weights=moved.reshape(-1),
                           minlength=n_rows * n_codes).reshape(n_rows, n_codes)
        want[:, 0] = 0.0
        np.testing.assert_array_equal(table.grad, want.reshape(table_shape))

    def test_none_code_gets_no_gradient(self):
        table = Tensor(np.ones((2, 3)), requires_grad=True)
        gather_codes(table, np.zeros((1, 3, 3), dtype=np.int64)).sum().backward()
        np.testing.assert_array_equal(table.grad, np.zeros((2, 3)))

    def test_out_of_range_code_rejected(self):
        with pytest.raises(IndexError):
            gather_codes(Tensor(np.zeros((2, 3))), np.full((2, 2), 3))


class TestEncoderLayer:

    # graph 0's last key is padded; both code matrices hold NONE entries
    key_bias = np.array([[0.0, 0.0, 0.0, -np.inf],
                         [0.0, 0.0, 0.0, 0.0]])[:, None, :, None]
    codes_t = np.random.default_rng(7).integers(0, 3, size=(2, 4, 4))
    codes_m = np.random.default_rng(8).integers(0, 5, size=(2, 4, 4))

    def build(self, h, *rest):
        """h (2, 4, 8) through a two-head layer; the edge bias sums a
        temporal and a modal table's gathers, as the encoder's does."""
        params, table_t, table_m = rest[:15], rest[15], rest[16]
        bias = (gather_codes(table_t, self.codes_t)
                + gather_codes(table_m, self.codes_m))
        return encoder_layer(h, params, 2, bias, self.key_bias)

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 4, 8)] + layer_shapes(8, 2) + [(2, 3), (2, 5)]
        return [rng.normal(size=s) for s in shapes]

    def test_grad_matches_central_differences(self):
        """Over h, all 15 layer parameters and both bias tables."""
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
        taped.sum().backward()
        assert taped.requires_grad and taped._parents
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
        codes_t, codes_m = (np.take_along_axis(c, self.rows[:, None, :], axis=2)
                            for c in (self.codes_t, self.codes_m))
        bias = gather_codes(table_t, codes_t) + gather_codes(table_m, codes_m)
        return encoder_layer(h, params, 2, bias, self.key_bias, self.rows)

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
        bias = Tensor(rng.normal(size=(1, heads, n, n)))
        with no_grad():
            encoder_layer(h, params, heads, bias)   # warm numpy's caches
            tracemalloc.start()
            try:
                encoder_layer(h, params, heads, bias)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * b * heads * n * n * 8

    def test_rejects_nan(self):
        arrays = self.arrays(4)
        arrays[-1][0, 1] = np.nan
        for context in (contextlib.nullcontext, no_grad):
            with context(), pytest.raises(ValueError, match="NaN"):
                self.build(*[Tensor(a, requires_grad=True) for a in arrays])


class TestNoGrad:

    def build(self, x, w):
        return (softmax(linear(x, w).tanh(), axis=-1) * 2.0).sum()

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

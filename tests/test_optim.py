"""Optimizer, gradient-check, and checkpoint tests."""

import struct

import numpy as np
import pytest

from tmeg.autodiff import Tensor, add_scaled, cross_entropy
from tmeg.optim import (
    CheckpointError, ParamStore, adam_step, config_hash,
    finite_difference_check, grad_eval, load_checkpoint, save_checkpoint,
)


def quadratic_store(**extra):
    return ParamStore({"x": np.array([1.0, -2.0, 0.5]),
                       "y": np.array([[0.3, 0.7], [1.1, -0.4]]), **extra})


def quadratic_loss(store):
    x = store["x"].tensor
    y = store["y"].tensor
    return (x * x).sum() + 0.5 * (y * y).sum()


class TestParamStore:

    def test_duplicate_name_rejected(self, tmp_path):
        """A store maps each name once, so a checkpoint that repeats a
        parameter record is rejected."""
        path = tmp_path / "repeated.ckpt"
        save_checkpoint(path, ParamStore({"a": np.zeros(2), "b": np.ones(2)}), "h")
        raw = path.read_bytes()
        record_b = struct.pack("<I", 1) + b"b"
        assert raw.count(record_b) == 1
        path.write_bytes(raw.replace(record_b, struct.pack("<I", 1) + b"a"))
        with pytest.raises(CheckpointError, match="repeated parameter record a"):
            load_checkpoint(path)

    def test_contains_and_names(self):
        store = quadratic_store()
        assert "x" in store and "z" not in store
        assert store.names() == ["x", "y"]

    def test_values_stored_as_float64(self):
        store = ParamStore({"a": np.array([1, 2], dtype=np.int32)})
        assert store["a"].value.dtype == np.float64
        np.testing.assert_array_equal(store["a"].value, [1.0, 2.0])

    def test_arrays_are_views_of_the_flat_vectors(self):
        """A store built from its values holds every parameter's value,
        gradient and both moments as views of its four flat vectors, laid
        out in the order of the values, empty parameters included."""
        values = {f"p{k}": np.full((k % 3, 2), float(k)) for k in range(20)}
        store = quadratic_store(**values)
        assert store.names() == ["x", "y"] + list(values)
        assert store.flat.shape == (4, 3 + 4 + sum(2 * (k % 3) for k in range(20)))
        np.testing.assert_array_equal(store.flat[1:], 0.0)
        np.testing.assert_array_equal(store["x"].value, [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(store["p5"].value, np.full((2, 2), 5.0))
        start = 0
        for p in store.params.values():
            assert p.slice == slice(start, start + p.value.size)
            start = p.slice.stop
            for row, arr in enumerate((p.value, p.gradient, p.m1, p.m2)):
                assert arr.size == 0 or np.shares_memory(arr, store.flat[row])
        assert start == store.flat.shape[1]
        store.flat[0] += 1.0
        np.testing.assert_array_equal(store["x"].value, [2.0, -1.0, 1.5])


class TestGradEval:

    def test_quadratic_gradients(self):
        store = quadratic_store()
        grad_eval(quadratic_loss(store), store)
        np.testing.assert_allclose(store["x"].gradient,
                                   2.0 * store["x"].value, rtol=1e-14)
        np.testing.assert_allclose(store["y"].gradient,
                                   store["y"].value, rtol=1e-14)

    def test_unreachable_parameter_gets_zero_gradient(self):
        store = quadratic_store(unused=np.ones(4))
        grad_eval(quadratic_loss(store), store)
        np.testing.assert_array_equal(store["unused"].gradient, np.zeros(4))

    def test_rejects_vector_loss(self):
        store = quadratic_store()
        with pytest.raises(ValueError):
            grad_eval(store["x"].tensor * 2.0, store)


class TestAdam:

    def test_first_step_moves_by_lr(self):
        """With bias correction, the first Adam step is lr * sign(g)."""
        store = ParamStore({"x": np.array([1.0, -3.0, 0.2])})
        before = store["x"].value.copy()
        grad_eval((store["x"].tensor * np.array([2.0, -1.0, 4.0])).sum(), store)
        adam_step(store, lr=0.1)
        moved = store["x"].value - before
        np.testing.assert_allclose(moved, [-0.1, 0.1, -0.1], rtol=1e-6)

    def test_converges_on_quadratic(self):
        store = quadratic_store()
        for _ in range(400):
            grad_eval(quadratic_loss(store), store)
            adam_step(store, lr=0.05)
        assert float(quadratic_loss(store).data) < 1e-4

    def test_grads_cleared_after_step(self):
        store = quadratic_store()
        grad_eval(quadratic_loss(store), store)
        assert store["x"].gradient.any()
        adam_step(store, lr=0.01)
        assert not store.flat[1].any()
        assert not store["x"].gradient.any()

    def test_flat_update_bit_identical_to_per_parameter_loop(self):
        """Reference: the bias-corrected update applied one parameter at a
        time, as separate arrays."""
        store = quadratic_store()
        ref = {name: [p.value.copy(), np.zeros_like(p.value),
                      np.zeros_like(p.value)] for name, p in store.params.items()}
        for t in range(1, 6):
            grad_eval(quadratic_loss(store) * float(t), store)
            grads = {name: p.gradient.copy() for name, p in store.params.items()}
            adam_step(store, lr=0.05)
            for name, (value, m, v) in ref.items():
                g = grads[name]
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                m_hat = m / (1 - 0.9 ** t)
                v_hat = v / (1 - 0.999 ** t)
                ref[name][0] = value - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for name, (value, m, v) in ref.items():
            np.testing.assert_array_equal(store[name].value, value)
            np.testing.assert_array_equal(store[name].m1, m)
            np.testing.assert_array_equal(store[name].m2, v)

    def test_step_counter_advances(self):
        store = quadratic_store()
        for expected in (1, 2, 3):
            grad_eval(quadratic_loss(store), store)
            adam_step(store, lr=0.01)
            assert store.step_count == expected


class TestFiniteDifferenceCheck:

    def test_correct_gradients_pass(self):
        store = quadratic_store()
        err = finite_difference_check(lambda: quadratic_loss(store), store)
        assert err < 1e-9

    def test_corrupted_backward_fails(self):
        """Negative control: a wrong analytic gradient must be flagged."""
        store = quadratic_store()

        def loss_fn():
            x = store["x"].tensor

            def bad(g):
                x._accumulate(g * 2.0 * x.data * 1.5)  # 1.5x too large

            return Tensor((x.data ** 2).sum(), parents=(x,), backward=bad)

        err = finite_difference_check(loss_fn, store)
        assert err > 1e-2

    @pytest.mark.parametrize("scale", [np.inf, np.nan])
    def test_non_finite_loss_fails(self, scale):
        """A loss whose central differences are inf or NaN gives a NaN
        relative error, which must count as the worst, not be skipped."""
        store = ParamStore({"scores": np.array([[0.3, -0.2]])})

        def loss_fn():
            ce = cross_entropy(store["scores"].tensor, np.array([0]))
            return add_scaled(ce, ce, scale)

        err = finite_difference_check(loss_fn, store)
        assert not err < 1e-4

    def test_subsampling_is_seeded(self):
        store = ParamStore({"big": np.random.default_rng(0).normal(size=200)})

        def loss_fn():
            t = store["big"].tensor
            return (t * t * t).sum()

        e1 = finite_difference_check(loss_fn, store, seed=5,
                                     max_coords_per_param=8)
        e2 = finite_difference_check(loss_fn, store, seed=5,
                                     max_coords_per_param=8)
        assert e1 == e2


class TestCheckpoints:

    def test_round_trip(self, tmp_path):
        store = quadratic_store()
        grad_eval(quadratic_loss(store), store)
        adam_step(store, lr=0.1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, config_hash({"d": 4}))
        loaded = load_checkpoint(path, expected_config_hash=config_hash({"d": 4}))
        assert loaded.names() == store.names()
        for name in store.names():
            np.testing.assert_array_equal(loaded[name].value, store[name].value)
            np.testing.assert_array_equal(loaded[name].m1, store[name].m1)
            np.testing.assert_array_equal(loaded[name].m2, store[name].m2)
        assert loaded.step_count == store.step_count

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        """Optimizer state in the checkpoint makes resumed training identical."""
        a = quadratic_store()
        for _ in range(3):
            grad_eval(quadratic_loss(a), a)
            adam_step(a, lr=0.05)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(path, a, "h")
        b = load_checkpoint(path)
        for store in (a, b):
            for _ in range(3):
                grad_eval(quadratic_loss(store), store)
                adam_step(store, lr=0.05)
        np.testing.assert_array_equal(a["x"].value, b["x"].value)
        np.testing.assert_array_equal(a["y"].value, b["y"].value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        store = quadratic_store()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, config_hash({"d": 4}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_config_hash=config_hash({"d": 5}))

    def test_save_is_deterministic(self, tmp_path):
        store = quadratic_store()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, store, "h")
        save_checkpoint(p2, store, "h")
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

"""Parameter storage, Adam, finite-difference checking, and checkpoints."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Callable

import numpy as np

from .autodiff import Tensor

CHECKPOINT_MAGIC = b"TMEGCKPT"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    pass


class Parameter:
    """A named learnable array with its gradient."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.tensor = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)

    @property
    def value(self) -> np.ndarray:
        return self.tensor.data

    @value.setter
    def value(self, v: np.ndarray):
        self.tensor.data = np.asarray(v, dtype=np.float64)

    @property
    def gradient(self) -> np.ndarray:
        if self.tensor.grad is None:
            return np.zeros_like(self.tensor.data)
        return self.tensor.grad


class ParamStore:
    """Ordered name -> Parameter map plus Adam moment state."""

    def __init__(self):
        self.params: dict[str, Parameter] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name}")
        p = Parameter(name, value)
        self.params[name] = p
        self.moment1[name] = np.zeros_like(p.value)
        self.moment2[name] = np.zeros_like(p.value)
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grad(self):
        for p in self.params.values():
            p.tensor.grad = None


def grad_eval(loss: Tensor, store: ParamStore):
    """Populate gradients for every parameter; unreachable ones get zero."""
    if loss.data.size != 1:
        raise ValueError("loss must be a scalar")
    store.zero_grad()
    loss.backward()
    for p in store.params.values():
        if p.tensor.grad is None:
            p.tensor.grad = np.zeros_like(p.tensor.data)


def adam_step(store: ParamStore, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update; zeroes gradients afterwards."""
    store.step_count += 1
    t = store.step_count
    for name, p in store.params.items():
        g = p.gradient
        m = store.moment1[name]
        v = store.moment2[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.tensor.data = p.tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
    store.zero_grad()


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    store: ParamStore,
    h: float = 1e-5,
    max_coords_per_param: int = 32,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Large parameters are sub-sampled: at least `max_coords_per_param` random
    coordinates per parameter, drawn from a seeded stream.
    """
    grad_eval(loss_fn(), store)
    analytic = {name: p.gradient.copy() for name, p in store.params.items()}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in store.params.items():
        flat = p.tensor.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        a_flat = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = float(loss_fn().data)
            flat[c] = orig - h
            f_minus = float(loss_fn().data)
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            a = a_flat[c]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    store.zero_grad()
    return worst


# ----------------------------------------------------------------------
# checkpoint format: magic, header JSON, per-parameter records, then the
# optimizer state (first/second moments and step counter). Floats are raw
# little-endian 64-bit.


def config_hash(config_dict: dict) -> str:
    canon = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_array(fh, name: str, arr: np.ndarray):
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    for ext in arr.shape:
        fh.write(struct.pack("<Q", ext))
    fh.write(arr.astype("<f8").tobytes())


class _Reader:
    """Bounds-checked cursor over checkpoint bytes: a read past the end
    raises CheckpointError instead of returning short data."""

    def __init__(self, buf: bytes, path):
        self.buf = memoryview(buf)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if n > len(self.buf) - self.pos:
            raise CheckpointError(
                f"{self.path}: truncated at byte {self.pos} "
                f"(needs {n} more, {len(self.buf) - self.pos} left)")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def array(self) -> tuple[str, np.ndarray]:
        name = bytes(self.take(self.unpack("<I"))).decode("utf-8")
        shape = tuple(self.unpack("<Q") for _ in range(self.unpack("<I")))
        data = np.frombuffer(self.take(math.prod(shape) * 8), dtype="<f8")
        return name, data.reshape(shape).astype(np.float64)


def save_checkpoint(path, store: ParamStore, model_config_hash: str):
    header = {
        "format_version": CHECKPOINT_VERSION,
        "model_config_hash": model_config_hash,
        "num_params": len(store.params),
    }
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        for name, p in store.params.items():
            _write_array(fh, name, p.value)
        for name in store.params:
            _write_array(fh, "m1/" + name, store.moment1[name])
            _write_array(fh, "m2/" + name, store.moment2[name])
        fh.write(struct.pack("<Q", store.step_count))


def load_checkpoint(path, expected_config_hash: str | None = None) -> ParamStore:
    """Read a checkpoint; any malformed, truncated or trailing-garbage file
    raises CheckpointError."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return _parse_checkpoint(_Reader(buf, path), expected_config_hash)
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from exc


def _parse_checkpoint(rd: _Reader, expected_config_hash: str | None) -> ParamStore:
    path = rd.path
    if bytes(rd.take(len(CHECKPOINT_MAGIC))) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    header = json.loads(bytes(rd.take(rd.unpack("<I"))).decode("utf-8"))
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}"
        )
    if expected_config_hash is not None and header["model_config_hash"] != expected_config_hash:
        raise CheckpointError(
            f"{path}: model config hash mismatch "
            f"(checkpoint {header['model_config_hash'][:12]}..., "
            f"expected {expected_config_hash[:12]}...)"
        )
    n_params = header["num_params"]
    if not isinstance(n_params, int) or n_params < 0:
        raise CheckpointError(f"{path}: bad parameter count {n_params!r}")
    store = ParamStore()
    for _ in range(n_params):
        name, data = rd.array()
        store.add(name, data)
    for _ in range(n_params * 2):
        name, data = rd.array()
        kind, pname = name.split("/", 1)
        moments = {"m1": store.moment1, "m2": store.moment2}[kind]
        if moments[pname].shape != data.shape:
            raise CheckpointError(f"{path}: moment {name} has shape "
                                  f"{data.shape}, parameter has "
                                  f"{moments[pname].shape}")
        moments[pname] = data
    store.step_count = rd.unpack("<Q")
    if rd.pos != len(rd.buf):
        raise CheckpointError(f"{path}: {len(rd.buf) - rd.pos} trailing bytes")
    return store

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
    """A named learnable array. Its value (`tensor.data`), gradient
    (`tensor.grad`) and Adam moments `m1` and `m2` are views into its
    store's flat vectors."""

    def __init__(self, name: str, flat: np.ndarray, start: int, shape: tuple):
        self.name = name
        self.slice = slice(start, start + math.prod(shape))
        self.shape = shape
        value, grad, self.m1, self.m2 = (row[self.slice].reshape(shape)
                                         for row in flat)
        self.tensor = Tensor(value, requires_grad=True)
        self.tensor.grad = grad

    @property
    def value(self) -> np.ndarray:
        return self.tensor.data

    @property
    def gradient(self) -> np.ndarray:
        return self.tensor.grad


class ParamStore:
    """Ordered name -> Parameter map over one float64 vector each of
    values, gradients and first and second Adam moments, the rows of
    `flat`: every parameter's arrays are views into them, so the optimizer
    updates all parameters with a few elementwise operations.

    `values` maps each name to its initial value, in parameter order; the
    flat vectors are allocated once, with zero gradients and moments."""

    def __init__(self, values: dict[str, np.ndarray]):
        self.step_count = 0
        self.flat = np.zeros((4, sum(np.size(v) for v in values.values())))
        self.params: dict[str, Parameter] = {}
        start = 0
        for name, value in values.items():
            p = self.params[name] = Parameter(name, self.flat, start,
                                              np.shape(value))
            p.value[...] = value
            start = p.slice.stop

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def zero_grad(self):
        self.flat[1] = 0.0


def grad_eval(loss: Tensor, store: ParamStore):
    """Populate gradients for every parameter; unreachable ones get zero."""
    if loss.data.size != 1:
        raise ValueError("loss must be a scalar")
    store.zero_grad()
    loss.backward()


def adam_step(store: ParamStore, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update of every parameter at once, over the
    store's flat vectors; zeroes gradients afterwards."""
    store.step_count += 1
    t = store.step_count
    p, g, m, v = store.flat
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    p -= lr * m_hat / (np.sqrt(v_hat) + eps)
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
    coordinates per parameter, drawn from a seeded stream. A non-finite
    loss or gradient gives a NaN error, and a NaN error is the worst: the
    result is then NaN, which fails every `err < tol` check.
    """
    grad_eval(loss_fn(), store)
    values, analytic = store.flat[0], store.flat[1].copy()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in store.params.values():
        n = p.slice.stop - p.slice.start
        coords = (np.arange(n) if n <= max_coords_per_param else
                  rng.choice(n, size=max_coords_per_param, replace=False))
        for c in coords + p.slice.start:
            orig = values[c]
            values[c] = orig + h
            f_plus = float(loss_fn().data)
            values[c] = orig - h
            f_minus = float(loss_fn().data)
            values[c] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            a = analytic[c]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = math.nan if math.isnan(err) else max(worst, err)
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
        for name, p in store.params.items():
            _write_array(fh, "m1/" + name, p.m1)
            _write_array(fh, "m2/" + name, p.m2)
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
    values = {}
    for _ in range(n_params):
        name, data = rd.array()
        if name in values:
            raise CheckpointError(f"{path}: repeated parameter record {name}")
        values[name] = data
    store = ParamStore(values)
    # 2 * n_params distinct records, each m1/ or m2/ of a known parameter,
    # are all of them: none can be missing
    moments = set()
    for _ in range(n_params * 2):
        name, data = rd.array()
        if name in moments:
            raise CheckpointError(f"{path}: repeated moment record {name}")
        moments.add(name)
        kind, pname = name.split("/", 1)
        moment = {"m1": store.params[pname].m1, "m2": store.params[pname].m2}[kind]
        if moment.shape != data.shape:
            raise CheckpointError(f"{path}: moment {name} has shape "
                                  f"{data.shape}, parameter has "
                                  f"{moment.shape}")
        moment[...] = data
    store.step_count = rd.unpack("<Q")
    if rd.pos != len(rd.buf):
        raise CheckpointError(f"{path}: {len(rd.buf) - rd.pos} trailing bytes")
    return store

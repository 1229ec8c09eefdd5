"""Parameter storage, Adam, gradient clipping, checkpoint io.

A checkpoint (format `rexeval-checkpoint-v3`) is a magic line, a JSON
header line (seed, step, config hash, optional model description, and
each parameter's name and shape in store order), then one `.npy` array
(`numpy.lib.format`) of every value as little-endian IEEE-754 float64,
the parameters one after another, each in C order. The array holds the
binary64 bit patterns themselves, so no value passes through a decimal
conversion: every bit pattern, including signed zeros, subnormals,
infinities and NaN payloads, reads back bit for bit, which the
determinism contract relies on. Fixing the byte order makes a file read
the same on any host. Loading reads the array once and hands out views
of it by name. Files in the earlier formats (v1 hex floats, v2 base64
lines) are rejected with a message to rerun the train stage;
checkpoints are regenerable from the run's config.
"""

from __future__ import annotations

import json
import math

import numpy as np

CHECKPOINT_MAGIC = "rexeval-checkpoint-v3"
_WIRE_DTYPE = np.dtype("<f8")
INIT_SCALE = 0.08


class ParamStore:
    """Named float64 parameters; Adam moments are allocated at a first update."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._buffers = (np.empty(0), np.empty(0))
        self.step = 0

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        arr = np.array(values, dtype=np.float64)
        self._params[name] = arr
        return arr

    def add_uniform(self, name: str, shape: tuple[int, ...], rng: np.random.Generator,
                    scale: float = INIT_SCALE) -> np.ndarray:
        return self.add(name, rng.uniform(-scale, scale, size=shape))

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.zeros(shape))

    def add_ones(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.ones(shape))

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def state_copy(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter; `state` holds exactly this store's names."""
        missing = [name for name in self._params if name not in state]
        extra = [name for name in state if name not in self._params]
        if missing or extra:
            raise ValueError(f"missing parameter '{missing[0]}'" if missing
                             else f"unexpected parameter '{extra[0]}'")
        for name, values in state.items():
            p = self._params[name]
            if p.shape != values.shape:
                raise ValueError(f"shape mismatch for '{name}': {p.shape} vs {values.shape}")
            p[...] = values

    def adam_step(self, grads: dict[str, np.ndarray], lr: float,
                  beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        """Bias-corrected Adam update for every parameter with a gradient."""
        if lr <= 0 or not (0 < beta1 < 1) or not (0 < beta2 < 1) or eps <= 0:
            raise ValueError("adam hyperparameters out of range")
        self.step += 1
        bc1 = 1.0 - beta1 ** self.step
        bc2 = 1.0 - beta2 ** self.step
        for name, g in grads.items():
            p = self._params[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for '{name}': {g.shape} vs {p.shape}")
            m = self._m.get(name)
            if m is None:  # first update: the moments start at zero
                m = self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            v = self._v[name]
            a, b = self._scratch(p.size)
            a, b = a.reshape(p.shape), b.reshape(p.shape)
            # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g g;
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), each operation in
            # the order and association of the formula, so only the
            # temporaries are saved.
            np.multiply(g, 1.0 - beta1, out=a)
            m *= beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - beta2
            v *= beta2
            v += a
            np.divide(m, bc1, out=a)
            a *= lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p -= a

    def _scratch(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Two flat buffers of `size` values, kept between Adam steps."""
        if self._buffers[0].size < size:
            self._buffers = (np.empty(size), np.empty(size))
        return self._buffers[0][:size], self._buffers[1][:size]


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}, norm


def save_checkpoint(path, store: ParamStore, seed: int, config_hash: str,
                    extra: dict | None = None) -> None:
    header = {"seed": int(seed), "step": int(store.step), "config_hash": config_hash}
    if extra:
        header.update(extra)
    header["parameters"] = [[name, list(store[name].shape)] for name in store.names()]
    values = np.concatenate([store[name].ravel() for name in store.names()], dtype=_WIRE_DTYPE)
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode("utf-8"))
        np.lib.format.write_array(fh, values, allow_pickle=False)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and each parameter by name, in store order: views of the
    one value array. Errors name the file, and the parameter at fault."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n").decode("utf-8", errors="replace")
        if magic != CHECKPOINT_MAGIC:
            if magic.startswith("rexeval-checkpoint-"):
                raise ValueError(f"{path}: checkpoint format {magic} is no longer read "
                                 f"(this version reads {CHECKPOINT_MAGIC}); rerun the train "
                                 "stage to rewrite it")
            raise ValueError(f"{path}: not a checkpoint file")
        try:
            header = json.loads(fh.readline())
            values = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:  # a cut or corrupt header or array
            raise ValueError(f"{path}: unreadable checkpoint: {exc}") from None
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the value array")
    if values.dtype != _WIRE_DTYPE or values.ndim != 1:
        raise ValueError(f"{path}: value array is {values.dtype.str} of shape {values.shape}, "
                         f"not one flat {_WIRE_DTYPE.str} array")
    params = {}
    offset = 0
    for name, shape in header["parameters"]:
        end = offset + math.prod(shape)
        if end > values.size:
            raise ValueError(f"{path}: parameter '{name}' of shape {tuple(shape)} needs "
                             f"values up to {end} but the array holds {values.size}")
        params[name] = values[offset:end].reshape(shape)
        offset = end
    if offset != values.size:
        raise ValueError(f"{path}: the array holds {values.size} values but the header's "
                         f"parameters take {offset}")
    return header, params

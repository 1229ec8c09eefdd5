"""Parameter storage, Adam, finite-difference checking, checkpoint io.

Checkpoints are plain text: a magic line, a JSON header (seed, step,
config hash, optional model description), then one line per parameter
with its name, shape, and flat values as C99 hex floats. Hex floats make
the round trip bit-exact, which the determinism contract relies on.
"""

from __future__ import annotations

import json
from collections.abc import Callable

import numpy as np

from .autodiff import softmax_xent_forward

CHECKPOINT_MAGIC = "rexeval-checkpoint-v1"
INIT_SCALE = 0.08


class ParamStore:
    """Named float64 parameter arrays with Adam moment accumulators."""

    def __init__(self):
        self._params: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        arr = np.array(values, dtype=np.float64)
        self._params[name] = arr
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)
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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def num_values(self) -> int:
        return sum(p.size for p in self._params.values())

    def state_copy(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
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
            m = self._m[name]
            v = self._v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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


def grad_check(loss_fn: Callable[[], tuple[float, dict[str, np.ndarray]]],
               store: ParamStore, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn rebuilds the forward pass from the current store contents and
    returns (loss, grads). It must be deterministic; a second baseline
    call is compared bit for bit to catch hidden randomness.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    loss_a, grads = loss_fn()
    loss_b, _ = loss_fn()
    if loss_a != loss_b:
        raise ValueError("loss_fn is not deterministic between calls")
    worst = 0.0
    for name in store.names():
        p = store[name]
        ga = grads[name]
        flat = p.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up, _ = loss_fn()
            flat[i] = orig - epsilon
            down, _ = loss_fn()
            flat[i] = orig
            numeric = (up - down) / (2.0 * epsilon)
            analytic = gflat[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def nll_loss(logits: np.ndarray, targets, pad_mask=None) -> float:
    """Mean negative log-likelihood over non-padded positions."""
    loss, _ = softmax_xent_forward(np.asarray(logits, dtype=np.float64), targets, pad_mask)
    return loss


def mse_loss(pred, target) -> float:
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.shape != t.shape:
        raise ValueError(f"mse_loss length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("mse_loss on empty input")
    d = p - t
    return float(d @ d / d.size)


def _hex_floats(values: np.ndarray) -> str:
    """Space-separated `float.hex` of each value, byte for byte, built from
    the bit fields instead of one Python call per value.

    Each value becomes one fixed-width uint8 row: sign, "0x", lead digit,
    ".", 13 mantissa digits, "p", exponent sign, 4 exponent digits and a
    separating space. Positions a value does not use (plus sign, leading
    exponent zeros, all but one mantissa digit of zero) hold NUL and are
    dropped at the end. Arrays holding inf or nan use `float.hex` itself.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if not flat.size:
        return ""
    bits = flat.view(np.uint64)
    expo = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    if (expo == 0x7FF).any():
        return " ".join(float(x).hex() for x in flat)
    mant = bits & np.uint64((1 << 52) - 1)
    zero = (expo == 0) & (mant == 0)
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    rows = np.zeros((flat.size, 25), dtype=np.uint8)
    rows[:, 0] = np.where(bits >> np.uint64(63), ord("-"), 0)
    rows[:, 1] = ord("0")
    rows[:, 2] = ord("x")
    rows[:, 3] = np.where(expo > 0, ord("1"), ord("0"))
    rows[:, 4] = ord(".")
    shifts = np.arange(48, -4, -4, dtype=np.uint64)
    rows[:, 5:18] = digits[((mant[:, None] >> shifts) & np.uint64(0xF)).astype(np.intp)]
    rows[zero, 6:18] = 0
    rows[:, 18] = ord("p")
    power = np.where(zero, 0, np.maximum(expo, 1) - 1023)
    rows[:, 19] = np.where(power < 0, ord("-"), ord("+"))
    mag = np.abs(power)
    for col, scale in zip(range(20, 23), (1000, 100, 10)):
        rows[:, col] = np.where(mag >= scale, ord("0") + mag // scale % 10, 0)
    rows[:, 23] = ord("0") + mag % 10
    rows[:, 24] = ord(" ")
    chars = rows.reshape(-1)
    return chars[chars != 0][:-1].tobytes().decode("ascii")


def save_checkpoint(path, store: ParamStore, seed: int, config_hash: str,
                    extra: dict | None = None) -> None:
    header = {"seed": int(seed), "step": int(store.step), "config_hash": config_hash}
    if extra:
        header.update(extra)
    lines = [CHECKPOINT_MAGIC, json.dumps(header, sort_keys=True)]
    for name in store.names():
        p = store[name]
        shape = ",".join(str(d) for d in p.shape)
        values = _hex_floats(p)
        lines.append(f"{name} {shape} {values}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> tuple[ParamStore, dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    header = json.loads(lines[1])
    store = ParamStore()
    for line in lines[2:]:
        if not line:
            continue
        parts = line.split(" ")
        name = parts[0]
        shape = tuple(int(d) for d in parts[1].split(",") if d)
        values = np.fromiter(map(float.fromhex, parts[2:]), dtype=np.float64,
                             count=len(parts) - 2)
        store.add(name, values.reshape(shape))
    store.step = int(header["step"])
    return store, header

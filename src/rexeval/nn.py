"""Parameter storage, Adam, gradient clipping, checkpoint io.

A `ParamStore` keeps every parameter in one flat vector, `values`, under
a layout that gives each name an offset and a shape, in `add` order. The
store's dtype is the one place a model's compute precision is set: the
trainable models build float32 stores, everything else float64 ones, and
a Tape computes in the dtype of the values it is given. The gradient
`Tape.param_grads` returns, the two Adam moments, training's best-epoch
snapshot and a checkpoint's value array are flat vectors of that same
layout and dtype, so each of clipping, an Adam step, a snapshot, a
restore and a load is one pass over one vector.

A checkpoint (format `rexeval-checkpoint-v4`) is a magic line, a JSON
header line (seed, step, config hash, and `parameters`: the layout as
each name and shape in order), then one `.npy` array
(`numpy.lib.format`) of `values` as little-endian IEEE-754 in the
store's own dtype (`<f4` or `<f8`). The array holds the bit patterns
themselves, so every value, signed zeros, subnormals, infinities and NaN
payloads included, reads back bit for bit on any host, which the
determinism contract relies on. A checkpoint holds values, not an
architecture: `load_into` copies them into a store built from the
model's roster entry, as the train stage built it, once its layout and
dtype match. Files in the earlier formats (v1 hex floats, v2 base64
lines, v3 float64 arrays) are rejected with a message to rerun the
train stage; checkpoints are regenerable from the run's config.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

CHECKPOINT_MAGIC = "rexeval-checkpoint-v4"
_WIRE_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))
INIT_SCALE = 0.08  # half-width of the uniform initialisation
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ParamStore:
    """Named parameters of one dtype in one flat vector, `values`.

    `store[name]` is a view into `values`. `add` appends by reallocating
    `values`, so a view taken before a later `add` no longer writes
    through: build the whole store before reading parameters from it.
    Added values are rounded to the store's dtype. The Adam moments are
    allocated at the first update, in that dtype.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.values = np.empty(0, dtype=self.dtype)
        self._slots: dict[str, tuple[int, int, tuple[int, ...]]] = {}  # start, end, shape
        self._moments: tuple[np.ndarray, np.ndarray] | None = None
        self.step = 0

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._slots:
            raise ValueError(f"duplicate parameter name '{name}'")
        arr = np.asarray(values, dtype=self.dtype)
        start = self.values.size
        self.values = np.concatenate([self.values, arr.ravel()])
        self._slots[name] = (start, self.values.size, arr.shape)
        return self[name]

    def add_uniform(self, name: str, shape: tuple[int, ...],
                    rng: np.random.Generator) -> np.ndarray:
        return self.add(name, rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.zeros(shape))

    def add_ones(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        return self.add(name, np.ones(shape))

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """Parameter `name`'s part of a flat vector of this store's layout."""
        start, end, shape = self._slots[name]
        return flat[start:end].reshape(shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.view(self.values, name)

    def names(self) -> list[str]:
        return list(self._slots)

    def layout(self) -> list[list]:
        """Each parameter's [name, shape list] in order: a checkpoint's `parameters`."""
        return [[name, list(shape)] for name, (_, _, shape) in self._slots.items()]

    def adam_step(self, grads: np.ndarray, lr: float) -> None:
        """Bias-corrected Adam update of `values` by a flat gradient."""
        if lr <= 0:
            raise ValueError(f"adam learning rate {lr} out of range")
        if grads.shape != self.values.shape:
            raise ValueError(f"gradient shape mismatch: {grads.shape} vs {self.values.shape}")
        if self._moments is None:  # first update: the moments start at zero
            self._moments = (np.zeros_like(self.values), np.zeros_like(self.values))
        m, v = self._moments
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.step
        bc2 = 1.0 - ADAM_BETA2 ** self.step
        # each operation in the order and association of the formula
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grads
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (grads * grads)
        self.values -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def clip_global_norm(store: ParamStore, grads: np.ndarray, max_norm: float) -> float:
    """The joint L2 norm of a flat gradient, which is scaled in place so
    that norm is at most max_norm. Squares are summed one parameter at a
    time in store order."""
    total = 0.0
    for name in store.names():
        g = store.view(grads, name)
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


def save_checkpoint(path, store: ParamStore, seed: int, config_hash: str) -> None:
    header = {"seed": int(seed), "step": int(store.step), "config_hash": config_hash,
              "parameters": store.layout()}
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode("utf-8"))
        np.lib.format.write_array(fh, store.values.astype(store.dtype.newbyteorder("<"),
                                                          copy=False), allow_pickle=False)


def load_checkpoint(path) -> tuple[dict, np.ndarray]:
    """The header and the flat value array, whose size the header's
    `parameters` add up to, in the dtype it was saved in. Errors name the
    file, and the entry at fault."""
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
    if values.dtype not in _WIRE_DTYPES or values.ndim != 1:
        raise ValueError(f"{path}: value array is {values.dtype.str} of shape {values.shape}, "
                         f"not one flat {' or '.join(d.str for d in _WIRE_DTYPES)} array")
    parameters = header.get("parameters") if isinstance(header, dict) else None
    if not isinstance(parameters, list):
        raise ValueError(f"{path}: the header has no 'parameters' list")
    end = 0
    for entry in parameters:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], list)
                and all(type(d) is int and d >= 0 for d in entry[1])):
            raise ValueError(f"{path}: header parameter {json.dumps(entry)} is not a name and "
                             "a list of non-negative integer dimensions")
        name, shape = entry
        end += math.prod(shape)
        if end > values.size:
            raise ValueError(f"{path}: parameter '{name}' of shape {tuple(shape)} needs "
                             f"values up to {end} but the array holds {values.size}")
    if end != values.size:
        raise ValueError(f"{path}: the array holds {values.size} values but the header's "
                         f"parameters take {end}")
    return header, values


def load_into(store: ParamStore, header: dict, values: np.ndarray, path) -> None:
    """Copy a loaded checkpoint's values into a built store and set its
    step. Errors name the file and the first parameter that differs from
    the store's layout, or the array's dtype when it is not the store's."""
    for want, have in itertools.zip_longest(store.layout(), header["parameters"]):
        if want != have:
            raise ValueError(f"{path}: " + (
                f"missing parameter '{want[0]}'" if have is None else
                f"unexpected parameter '{have[0]}'" if want is None else
                f"parameter '{have[0]}' of shape {tuple(have[1])} where the model has "
                f"'{want[0]}' of shape {tuple(want[1])}"))
    if values.dtype != store.dtype:
        raise ValueError(f"{path}: value array is {values.dtype.str} but the model "
                         f"computes in {store.dtype.str}")
    store.values[...] = values
    store.step = int(header["step"])

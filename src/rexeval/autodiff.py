"""Reverse-mode automatic differentiation over numpy arrays.

A tape computes in the dtype of the values it is given: a store's
parameters set it (`nn.ParamStore`), float32 for the trainable models and
float64 for the finite-difference checks and the TLAE regressor. No op
promotes a float32 value to float64, and every gradient slot keeps its
node's dtype. The losses are the float64 boundary: `softmax_xent` takes
its log-softmax over float64 copies of the logits and `squared_error`
its difference in float64, both return float64 scalars, and their
backward hands the gradient back in the input's dtype. `log_softmax`
always returns float64, so the log-probabilities that leave a model
(scores, the decoder's argmax) are float64 too.

A Tape records one forward pass as an ordered list of steps. A step is
a node's gradient slot plus its backward closure, and it holds only
what that backward reads: the slots of the node's parents, and the
arrays the gradient formula needs (an affine's input, a layer norm's
normalised input, attention's inputs and weights, a ReLU or tanh's own
output, the cross-entropy's log-probabilities). A node's value is not
part of its step, so a value no backward reads (a residual sum, the
pre-ReLU output of an affine, a concatenation, the logits) is freed as
soon as the forward pass drops its node. `index` keeps only a shape
and, like `broadcast`, returns a view.

backward() consumes the tape: it pops each step as that step's backward
runs, so the closures and cached activations of later layers are freed
while the gradients of earlier layers are built, and a tape is
differentiated once. Gradients land in the slots, which `Node.grad`
reads, so the nodes a caller still holds keep their gradients. The
gradients of a store's parameters accumulate straight into their slices
of one flat vector of the store's layout and dtype, which
`Tape.param_grads` returns without a copy. An inference tape
(`Tape(grad=False)`) records no steps at all, so each intermediate is
freed as soon as the caller drops its node. Both run the same forward
functions and return the same bits.

The value-level primitive set is fixed: affine map (matrix product plus
bias), embedding lookup, elementwise nonlinearity, scaled-dot attention,
GRU cell step, layer normalization, fused softmax cross-entropy, and mean
squared error. Structural helpers (add, scale, concat, index, stack,
broadcast) only rearrange values; models are composed
from these pieces and nothing else.

Forward math lives in free functions that the tape ops call, so
recording and inference tapes share a single implementation.

Every forward product runs through `matmul`, by one rule: on at least two
rows, and at width `row_width(cols)`, on zero columns past its own. A
one-row or one-column product would take OpenBLAS's gemv path, and a
width such as 68 or 89 a gemm edge kernel, both of which round a row
differently with the number of rows beside it. With attention's
keys-outer softmax, the rule keeps a row's bits independent of the rows
it is batched with.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-5
MASKED_SCORE = -1e30
# Product widths that are a multiple of this round every row alike however
# many rows the product holds (measured for float32 and float64 on
# OpenBLAS 0.3.31, Haswell kernels, at inner sizes 16-256; widths such
# as 68 or 89 do not).
ROW_ALIGN = 16


def row_width(n: int) -> int:
    """`n` rounded up to a multiple of ROW_ALIGN."""
    return -(-n // ROW_ALIGN) * ROW_ALIGN


def matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., M, K) @ w (..., K, N) by the one rule of every forward
    product: a one-row x runs as two rows, and w at width `row_width(N)`,
    on zero columns past N, so a row's bits do not depend on M."""
    rows, cols = x.shape[-2], w.shape[-1]
    if rows == 1:
        x = np.concatenate([x, x], axis=-2)
    if row_width(cols) != cols:
        wide = np.zeros(w.shape[:-1] + (row_width(cols),), dtype=w.dtype)
        wide[..., :cols] = w
        w = wide
    return (x @ w)[..., :rows, :cols]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, in float64 whatever x's dtype."""
    x = np.asarray(x, dtype=np.float64)
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def _sum_keys(x: np.ndarray) -> np.ndarray:
    """x summed over its keys axis, 0, adding the keys one after another.
    numpy does so over an outer axis; when the other axes hold one element
    in all, the keys axis is its only loop and numpy would add it
    pairwise, so that sum is accumulated instead."""
    return x.sum(axis=0) if x[0].size > 1 else np.add.accumulate(x, axis=0)[-1]


def attention_forward(q, k, v, mask, n_heads):
    """Scaled-dot attention as batched matrix products over (batch, head).

    q: (B, Lq, D), k/v: (B, Lk, D), mask: bool (B|1, Lq, Lk) with True
    meaning the query may attend to the key. Returns (out (B, Lq, D), cache).

    Scores and weights are laid out keys-outer, (Lk, B, H, Lq), and the
    softmax reduces over that outermost axis (`_sum_keys`), adding the keys
    one after another. Masked or padded keys, whose weight is exactly
    zero, then cannot change a row's value whatever the key count, with
    one query as with many.
    """
    B, Lq, D = q.shape
    Lk = k.shape[1]
    if D % n_heads != 0:
        raise ValueError(f"model dim {D} not divisible by {n_heads} heads")
    dh = D // n_heads
    # head-major views: (B, H, L, dh)
    qh = q.reshape(B, Lq, n_heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(B, Lk, n_heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(B, Lk, n_heads, dh).transpose(0, 2, 1, 3)
    weights = np.divide(matmul(kh, qh.transpose(0, 1, 3, 2)).transpose(2, 0, 1, 3),
                        math.sqrt(dh), order="C")
    np.copyto(weights, MASKED_SCORE, where=~mask.transpose(2, 0, 1)[:, :, None])
    weights -= weights.max(axis=0)
    np.exp(weights, out=weights)
    weights /= _sum_keys(weights)
    out = matmul(weights.transpose(1, 2, 3, 0), vh).transpose(0, 2, 1, 3).reshape(B, Lq, D)
    return out, (qh, kh, vh, weights, dh)


def attention_backward(g, cache):
    """Gradients of attention_forward, with the keys-outer weights."""
    qh, kh, vh, weights, dh = cache
    B, H, Lq, _ = qh.shape
    Lk = kh.shape[2]
    gh = g.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)
    gw = np.empty_like(weights)
    np.matmul(vh, gh.transpose(0, 1, 3, 2), out=gw.transpose(1, 2, 0, 3))
    gv = weights.transpose(1, 2, 0, 3) @ gh
    # softmax backward: each (batch, head, query) column is a distribution
    gs = weights * (gw - _sum_keys(weights * gw))
    gq = (gs.transpose(1, 2, 3, 0) @ kh) / math.sqrt(dh)
    gk = (gs.transpose(1, 2, 0, 3) @ qh) / math.sqrt(dh)
    D = H * dh
    return (gq.transpose(0, 2, 1, 3).reshape(B, Lq, D),
            gk.transpose(0, 2, 1, 3).reshape(B, Lk, D),
            gv.transpose(0, 2, 1, 3).reshape(B, Lk, D))


def layer_norm_forward(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    sq = xc * xc
    var = sq.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    # two full-size buffers: xc becomes xhat, sq becomes the output
    xhat = np.multiply(xc, inv, out=xc)
    out = np.multiply(xhat, gain, out=sq)
    out += bias
    return out, (xhat, inv)


def layer_norm_backward(g, gain, cache):
    """Gradients of layer_norm_forward; the same operations in the same
    order as inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    computed in two full-size buffers."""
    xhat, inv = cache
    D = xhat.shape[-1]
    tmp = g * xhat
    dgain = tmp.reshape(-1, D).sum(axis=0)
    dbias = g.reshape(-1, D).sum(axis=0)
    dx = g * gain
    np.multiply(dx, xhat, out=tmp)
    proj = tmp.mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=tmp)
    dx -= tmp
    dx *= inv
    return dx, dgain, dbias


def gru_forward(x, h, wz, bz, wr, br, wn, bn):
    """One GRU step. x: (B, Din), h: (B, H) -> new hidden (B, H)."""
    xh = np.concatenate([x, h], axis=1)
    z = sigmoid(matmul(xh, wz) + bz)
    r = sigmoid(matmul(xh, wr) + br)
    xrh = np.concatenate([x, r * h], axis=1)
    n = np.tanh(matmul(xrh, wn) + bn)
    out = (1.0 - z) * n + z * h
    return out, (xh, xrh, z, r, n)


def gru_backward(g, wz, wr, wn, cache):
    """Gradients of gru_forward; the input and the previous state are
    read back from the cached [x; h]."""
    xh, xrh, z, r, n = cache
    din = xh.shape[1] - z.shape[1]
    h = xh[:, din:]
    dn = g * (1.0 - z)
    dz = g * (h - n)
    dh = g * z
    dni = dn * (1.0 - n * n)
    dxrh = dni @ wn.T
    dwn = xrh.T @ dni
    dbn = dni.sum(axis=0)
    dx = dxrh[:, :din].copy()
    drh = dxrh[:, din:]
    dr = drh * h
    dh = dh + drh * r
    dri = dr * r * (1.0 - r)
    dzi = dz * z * (1.0 - z)
    dxh = dri @ wr.T + dzi @ wz.T
    dwr = xh.T @ dri
    dbr = dri.sum(axis=0)
    dwz = xh.T @ dzi
    dbz = dzi.sum(axis=0)
    dx += dxh[:, :din]
    dh = dh + dxh[:, din:]
    return dx, dh, dwz, dbz, dwr, dbr, dwn, dbn


def softmax_xent_forward(logits, targets, pad_mask):
    """Mean cross-entropy over non-padded positions.

    logits: (..., V) float, targets: (...) int, pad_mask: (...) bool with
    True marking padding (excluded from the mean). Returns (loss, cache).
    The log-softmax and the loss are float64 whatever the logits' dtype.
    """
    lv = np.asarray(logits, dtype=np.float64)
    V = lv.shape[-1]
    flat = lv.reshape(-1, V)
    t = np.asarray(targets).reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ValueError("targets do not match logits leading shape")
    keep = ~np.asarray(pad_mask, dtype=bool).reshape(-1)
    if not keep.any():
        raise ValueError("empty target: all positions are padded")
    kept = t[keep]
    if (kept < 0).any() or (kept >= V).any():
        bad = kept[(kept < 0) | (kept >= V)][0]
        raise ValueError(f"target id {bad} out of range for vocab size {V}")
    logp = log_softmax(flat)
    nll = -logp[np.arange(t.shape[0]), np.where(keep, t, 0)]
    count = int(keep.sum())
    loss = float(nll[keep].sum() / count)
    return loss, (logp, t, keep, count, lv.shape, np.asarray(logits).dtype)


def softmax_xent_backward(g, cache):
    """The logits' gradient, computed in float64 and returned in their dtype."""
    logp, t, keep, count, shape, dtype = cache
    probs = np.exp(logp)
    probs[np.arange(t.shape[0]), np.where(keep, t, 0)] -= 1.0
    probs[~keep] = 0.0
    probs *= g / count
    return probs.astype(dtype, copy=False).reshape(shape)


class GradSlot:
    """Where backward accumulates one node's gradient. It keeps the shape
    and dtype of the node's value but not the value, so a recorded step
    that holds slots holds no activations."""

    __slots__ = ("grad", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype: np.dtype):
        self.grad = None
        self.shape = shape
        self.dtype = dtype


class Node:
    """One tape entry: an array plus the slot of its gradient."""

    __slots__ = ("value", "op", "slot")

    def __init__(self, value: np.ndarray, op: str):
        self.value = value
        self.op = op
        self.slot = GradSlot(value.shape, value.dtype)

    @property
    def grad(self):
        return self.slot.grad


class Tape:
    """Ordered record of one forward pass, consumed by backward().

    Each op's backward closure takes the gradient of the op's output and
    returns (parent slot, gradient) pairs. With `grad=False` the tape is
    for inference: ops return the same nodes, but no step is recorded
    and backward() raises.
    """

    def __init__(self, *, grad: bool = True):
        self._steps: list[tuple[GradSlot, object]] = []
        self._param_nodes: dict[str, Node] = {}
        self._store = None  # the store whose parameters this tape reads
        self._grads = None  # their flat gradient, on a recording tape
        self.grad = grad
        self._consumed = False

    # ------------------------------------------------------------------
    # bookkeeping

    def _record(self, value, op, backward) -> Node:
        node = Node(np.asarray(value), op)
        if self.grad:
            self._steps.append((node.slot, backward))
        return node

    def leaf(self, values) -> Node:
        """Fixed float values, in their own dtype."""
        return self._record(values, "leaf", None)

    def param(self, store, name: str) -> Node:
        """Wrap a named parameter as a leaf, one node per name per tape. On
        a recording tape the node's gradient is its slice of the flat
        gradient, which starts at zero."""
        node = self._param_nodes.get(name)
        if node is None:
            if self._store is None:
                self._store = store
                if self.grad:
                    self._grads = np.zeros_like(store.values)
            elif store is not self._store:
                raise ValueError("a tape reads the parameters of one store")
            node = self._record(store[name], f"param:{name}", None)
            if self.grad:
                node.slot.grad = store.view(self._grads, name)
            self._param_nodes[name] = node
        return node

    def param_grads(self, store) -> np.ndarray:
        """The gradient of every store parameter as one flat vector of the
        store's layout and dtype, zero where a parameter is unreachable:
        the vector backward accumulated into, not a copy."""
        if self._grads is None:
            return np.zeros_like(store.values)
        if store is not self._store:
            raise ValueError("param_grads of a store this tape did not read")
        return self._grads

    def backward(self, loss: Node) -> None:
        """Accumulate d(loss)/d(node) into each reached node's `.grad`,
        popping every step as it runs; the tape holds no steps afterwards."""
        if not self.grad:
            raise RuntimeError("backward on an inference tape (grad=False): it records "
                               "no steps")
        if self._consumed:
            raise RuntimeError("backward already ran on this tape and freed its steps; "
                               "record the forward pass on a new tape")
        steps = self._steps
        if not steps:
            raise RuntimeError("backward before forward: tape is empty")
        if loss.value.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        if not any(slot is loss.slot for slot, _ in steps):
            raise RuntimeError("loss node was not recorded on this tape")
        loss.slot.grad = np.ones((), dtype=loss.slot.dtype)
        self._consumed = True
        while steps:
            slot, bw = steps.pop()
            if bw is None or slot.grad is None:
                continue
            for parent, g in bw(slot.grad):
                if parent.grad is None:
                    # g + 0.0 has the bits of zeros + g, signed zeros included,
                    # and never aliases g
                    parent.grad = np.add(g, 0.0, out=np.empty(parent.shape, parent.dtype))
                else:  # a parameter's grad is its zeroed slice of the flat gradient
                    parent.grad += g

    # ------------------------------------------------------------------
    # value primitives

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x (..., Din) @ w (Din, Dout) + b (Dout); the product runs by
        `matmul`'s rule, so each row's bits do not depend on the rows it
        is batched with."""
        xv, wv = x.value, w.value
        if xv.shape[-1] != wv.shape[0]:
            raise ValueError(f"affine shape mismatch: {xv.shape} @ {wv.shape}")
        lead = xv.shape[:-1]
        x2 = xv.reshape(-1, xv.shape[-1])
        out = (matmul(x2, wv) + b.value).reshape(*lead, wv.shape[1])
        xs, ws, bs = x.slot, w.slot, b.slot

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            return [(xs, (g2 @ wv.T).reshape(xs.shape)), (ws, x2.T @ g2), (bs, g2.sum(axis=0))]

        return self._record(out, "affine", backward)

    def embedding(self, table: Node, ids) -> Node:
        """Row gather: table (V, D), ids int array of any shape -> (*ids.shape, D)."""
        ids = np.asarray(ids, dtype=np.int64)
        tv = table.value
        if ids.size and (ids.min() < 0 or ids.max() >= tv.shape[0]):
            raise ValueError(f"embedding id out of range for table of {tv.shape[0]} rows")
        out = tv[ids]
        ts = table.slot

        def backward(g):
            gt = np.zeros(ts.shape, ts.dtype)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, ts.shape[1]))
            return [(ts, gt)]

        return self._record(out, "embedding", backward)

    def nonlin(self, x: Node, kind: str) -> Node:
        """tanh or relu; each backward reads only the output (ReLU's mask
        out > 0 equals x > 0, NaN, signed zeros and infinities included)."""
        xv = x.value
        if kind == "tanh":
            out = np.tanh(xv)
            dfn = lambda g: g * (1.0 - out * out)
        elif kind == "relu":
            out = np.maximum(xv, 0.0)
            dfn = lambda g: g * (out > 0)
        else:
            raise ValueError(f"unknown nonlinearity '{kind}'")
        xs = x.slot
        return self._record(out, kind, lambda g: [(xs, dfn(g))])

    def attention(self, q: Node, k: Node, v: Node, mask, n_heads: int) -> Node:
        """Scaled-dot attention (`attention_forward`); the scores and
        weights it keeps for backward are laid out keys-outer."""
        out, cache = attention_forward(q.value, k.value, v.value,
                                       np.asarray(mask, dtype=bool), n_heads)
        qs, ks, vs = q.slot, k.slot, v.slot

        def backward(g):
            gq, gk, gv = attention_backward(g, cache)
            return [(qs, gq), (ks, gk), (vs, gv)]

        return self._record(out, "attention", backward)

    def gru_cell(self, x: Node, h: Node, wz: Node, bz: Node, wr: Node, br: Node,
                 wn: Node, bn: Node) -> Node:
        out, cache = gru_forward(x.value, h.value, wz.value, bz.value,
                                 wr.value, br.value, wn.value, bn.value)
        wzv, wrv, wnv = wz.value, wr.value, wn.value
        slots = [n.slot for n in (x, h, wz, bz, wr, br, wn, bn)]

        def backward(g):
            return list(zip(slots, gru_backward(g, wzv, wrv, wnv, cache)))

        return self._record(out, "gru_cell", backward)

    def layer_norm(self, x: Node, gain: Node, bias: Node) -> Node:
        out, cache = layer_norm_forward(x.value, gain.value, bias.value)
        gv = gain.value
        xs, gs, bs = x.slot, gain.slot, bias.slot

        def backward(g):
            dx, dgain, dbias = layer_norm_backward(g, gv, cache)
            return [(xs, dx), (gs, dgain), (bs, dbias)]

        return self._record(out, "layer_norm", backward)

    def softmax_xent(self, logits: Node, targets, pad_mask) -> Node:
        loss, cache = softmax_xent_forward(logits.value, targets, pad_mask)
        ls = logits.slot

        def backward(g):
            return [(ls, softmax_xent_backward(g, cache))]

        return self._record(np.float64(loss), "softmax_xent", backward)

    def squared_error(self, pred: Node, target) -> Node:
        """Mean squared error, taken in float64; the gradient returns in
        pred's dtype."""
        tv = np.asarray(target, dtype=np.float64)
        pv = pred.value
        if pv.shape != tv.shape:
            raise ValueError(f"squared_error shape mismatch: {pv.shape} vs {tv.shape}")
        if pv.size == 0:
            raise ValueError("squared_error on empty input")
        diff = (pv - tv).reshape(-1)
        loss = float(diff @ diff / diff.size)
        ps = pred.slot

        def backward(g):
            gp = (2.0 / diff.size) * diff.reshape(ps.shape) * g
            return [(ps, gp.astype(ps.dtype, copy=False))]

        return self._record(np.float64(loss), "squared_error", backward)

    # ------------------------------------------------------------------
    # structural helpers (no learned math)

    def add(self, a: Node, b: Node) -> Node:
        if a.value.shape != b.value.shape:
            raise ValueError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
        sa, sb = a.slot, b.slot
        return self._record(a.value + b.value, "add", lambda g: [(sa, g), (sb, g)])

    def scale(self, a: Node, c: float) -> Node:
        c = float(c)
        sa = a.slot
        return self._record(a.value * c, "scale", lambda g: [(sa, g * c)])

    def concat(self, nodes: list[Node], axis: int) -> Node:
        values = [n.value for n in nodes]
        out = np.concatenate(values, axis=axis)
        slots = [n.slot for n in nodes]
        offsets = np.cumsum([0] + [v.shape[axis] for v in values])

        def backward(g):
            grads = []
            for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                grads.append((slot, g[tuple(idx)]))
            return grads

        return self._record(out, "concat", backward)

    def index(self, x: Node, key) -> Node:
        """x.value[key] for a basic numpy index (ints and slices)."""
        out = x.value[key]
        xs = x.slot

        def backward(g):
            gx = np.zeros(xs.shape, xs.dtype)
            gx[key] = g
            return [(xs, gx)]

        return self._record(out, "index", backward)

    def stack(self, nodes: list[Node], axis: int) -> Node:
        out = np.stack([n.value for n in nodes], axis=axis)
        slots = [n.slot for n in nodes]

        def backward(g):
            return [(slot, np.take(g, j, axis=axis)) for j, slot in enumerate(slots)]

        return self._record(out, "stack", backward)

    def broadcast(self, x: Node, shape: tuple[int, ...]) -> Node:
        """A read-only view of x broadcast to `shape`; no op writes into a
        node's value."""
        xs = x.slot
        xshape = xs.shape

        def backward(g):
            # Sum over axes introduced or widened by the broadcast.
            extra = g.ndim - len(xshape)
            gx = g.sum(axis=tuple(range(extra))) if extra else g
            reduce_axes = tuple(i for i, d in enumerate(xshape) if d == 1 and gx.shape[i] != 1)
            if reduce_axes:
                gx = gx.sum(axis=reduce_axes, keepdims=True)
            return [(xs, gx)]

        return self._record(np.broadcast_to(x.value, shape), "broadcast", backward)

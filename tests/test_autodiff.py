"""Tape gradients against central finite differences, plus op semantics.

GRAD_CASES is the registry of (name, builder) pairs; each builder sizes
its parameters from an rng, stores them, and returns a deterministic
loss_fn suitable for testkit.grad_check. The acceptance gate reuses the same
registry over more seeds, so keep every case small and smooth (relu
inputs are bounded away from the kink).
"""

import weakref

import numpy as np
import pytest

from rexeval.autodiff import (LN_EPS, MASKED_SCORE, ROW_ALIGN, Tape, attention_backward,
                              attention_forward, gru_forward, layer_norm_backward,
                              layer_norm_forward, log_softmax, sigmoid)
from rexeval.nn import ParamStore

from testkit import grad_check

TOL = 1e-4


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
# finite-difference cases


def _loss_fn(store, build):
    """Wrap a tape-building closure into the (loss, grads) contract."""

    def loss_fn():
        tape = Tape()
        loss = build(tape)
        tape.backward(loss)
        return float(loss.value), tape.param_grads(store)

    return loss_fn


def _affine_case(width: int):
    """An affine map to `width` outputs; widths that are not a multiple of
    16 run on zero columns past their own (`autodiff.matmul`)."""
    def build(rng, store):
        store.add("x", rng.normal(size=(2, 3, 4)))
        store.add("w", rng.normal(size=(4, width)))
        store.add("b", rng.normal(size=(width,)))
        target = rng.normal(size=(2, 3, width))
        return _loss_fn(store, lambda t: t.squared_error(
            t.affine(t.param(store, "x"), t.param(store, "w"), t.param(store, "b")),
            target))

    return build


def _case_affine_no_bias(rng, store):
    store.add("x", rng.normal(size=(3, 4)))
    store.add("w", rng.normal(size=(4, 2)))
    target = rng.normal(size=(3, 2))
    return _loss_fn(store, lambda t: t.squared_error(
        t.affine(t.param(store, "x"), t.param(store, "w"), t.leaf(np.zeros(2))), target))


def _case_embedding(rng, store):
    store.add("table", rng.normal(size=(6, 3)))
    ids = np.array([[0, 2, 2], [5, 0, 1]])  # repeated ids accumulate
    target = rng.normal(size=(2, 3, 3))
    return _loss_fn(store, lambda t: t.squared_error(
        t.embedding(t.param(store, "table"), ids), target))


def _nonlin_case(kind):
    def build(rng, store):
        # keep relu inputs off the kink so finite differences stay valid
        x = rng.uniform(0.2, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        store.add("x", x)
        target = rng.normal(size=(3, 4))
        return _loss_fn(store, lambda t: t.squared_error(
            t.nonlin(t.param(store, "x"), kind), target))

    return build


def _case_attention(rng, store):
    for name in ("q", "k", "v"):
        store.add(name, rng.normal(size=(2, 3, 4)))
    mask = np.tril(np.ones((3, 3), dtype=bool))[None]
    target = rng.normal(size=(2, 3, 4))
    return _loss_fn(store, lambda t: t.squared_error(
        t.attention(t.param(store, "q"), t.param(store, "k"),
                    t.param(store, "v"), mask, n_heads=2), target))


def _case_attention_full(rng, store):
    store.add("q", rng.normal(size=(2, 2, 4)))
    store.add("k", rng.normal(size=(2, 5, 4)))
    store.add("v", rng.normal(size=(2, 5, 4)))
    target = rng.normal(size=(2, 2, 4))
    return _loss_fn(store, lambda t: t.squared_error(
        t.attention(t.param(store, "q"), t.param(store, "k"),
                    t.param(store, "v"), np.ones((1, 2, 5), dtype=bool), n_heads=1), target))


def _case_gru(rng, store):
    din, H = 3, 4
    store.add("x", rng.normal(size=(2, din)))
    store.add("h", rng.normal(size=(2, H)))
    for gate in ("wz", "wr", "wn"):
        store.add(gate, rng.normal(size=(din + H, H)))
        store.add(gate.replace("w", "b"), rng.normal(size=(H,)))
    target = rng.normal(size=(2, H))
    return _loss_fn(store, lambda t: t.squared_error(
        t.gru_cell(*[t.param(store, n) for n in
                     ("x", "h", "wz", "bz", "wr", "br", "wn", "bn")]), target))


def _case_layer_norm(rng, store):
    store.add("x", rng.normal(size=(2, 3, 4)))
    store.add("gain", rng.uniform(0.5, 1.5, size=(4,)))
    store.add("bias", rng.normal(size=(4,)))
    target = rng.normal(size=(2, 3, 4))
    return _loss_fn(store, lambda t: t.squared_error(
        t.layer_norm(t.param(store, "x"), t.param(store, "gain"),
                     t.param(store, "bias")), target))


def _case_softmax_xent(rng, store):
    store.add("logits", rng.normal(size=(2, 4, 5)))
    targets = rng.integers(0, 5, size=(2, 4))
    pad = np.zeros((2, 4), dtype=bool)
    pad[0, 3] = pad[1, 2] = pad[1, 3] = True
    return _loss_fn(store, lambda t: t.softmax_xent(
        t.param(store, "logits"), targets, pad))


def _case_squared_error(rng, store):
    store.add("pred", rng.normal(size=(3, 2)))
    target = rng.normal(size=(3, 2))
    return _loss_fn(store, lambda t: t.squared_error(t.param(store, "pred"), target))


def _case_structural(rng, store):
    store.add("a", rng.normal(size=(2, 3)))
    store.add("b", rng.normal(size=(2, 3)))
    store.add("v", rng.normal(size=(3,)))
    target = rng.normal(size=(2, 3))

    def build(t):
        x = t.concat([t.param(store, "a"), t.param(store, "b")], axis=0)
        y = t.add(x, t.broadcast(t.param(store, "v"), (4, 3)))
        z = t.stack([t.index(y, 0), t.index(y, 2)], axis=0)
        w = t.index(y, np.s_[1:3, :])
        return t.squared_error(t.add(z, t.scale(w, 0.5)), target)

    return _loss_fn(store, build)


GRAD_CASES = (
    ("affine", _affine_case(5)),
    ("affine_68", _affine_case(68)),
    ("affine_no_bias", _case_affine_no_bias),
    ("embedding", _case_embedding),
    ("tanh", _nonlin_case("tanh")),
    ("relu", _nonlin_case("relu")),
    ("attention_masked", _case_attention),
    ("attention_full", _case_attention_full),
    ("gru_cell", _case_gru),
    ("layer_norm", _case_layer_norm),
    ("softmax_xent", _case_softmax_xent),
    ("squared_error", _case_squared_error),
    ("structural", _case_structural),
)


def max_grad_error(builder, seed: int) -> float:
    store = ParamStore()
    loss_fn = builder(np.random.default_rng([seed, 0xD1FF]), store)
    return grad_check(loss_fn, store)


@pytest.mark.parametrize("name,builder", GRAD_CASES, ids=[n for n, _ in GRAD_CASES])
@pytest.mark.parametrize("seed", [0, 1])
def test_gradients_match_finite_differences(name, builder, seed):
    assert max_grad_error(builder, seed) < TOL


# ----------------------------------------------------------------------
# forward semantics


def test_affine_matches_matmul():
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    t = Tape()
    out = t.affine(t.leaf(x), t.leaf(w), t.leaf(b))
    np.testing.assert_allclose(out.value, x @ w + b, rtol=1e-12)
    with pytest.raises(ValueError, match="shape mismatch"):
        t.affine(t.leaf(x), t.leaf(rng.normal(size=(3, 5))), t.leaf(b))


def test_a_row_keeps_its_bits_among_any_rows_at_aligned_widths():
    # The platform assumption `autodiff.matmul`'s width rule rests on: at
    # the widths it runs products at, multiples of ROW_ALIGN, BLAS rounds a
    # row the same among 2, 3, 64 or 200 rows, wherever it sits. A BLAS
    # build or kernel family that breaks it fails here, by name, and not
    # only in the models' chunk-invariance tests.
    rng = np.random.default_rng(16)
    differ = []
    for dtype in (np.float32, np.float64):
        for inner in range(16, 257):
            x = rng.normal(size=(200, inner)).astype(dtype)
            for width in (ROW_ALIGN * m for m in (1, 2, 3, 4, 5, 6, 8, 16)):
                w = rng.normal(size=(inner, width)).astype(dtype)
                among_200 = x @ w
                for rows in (2, 3, 64):
                    for start in (0, 200 - rows):
                        if (x[start:start + rows] @ w).tobytes() != \
                                among_200[start:start + rows].tobytes():
                            differ.append((dtype.__name__, inner, width, rows, start))
    assert differ == []


def test_embedding_gathers_rows_and_validates_ids():
    table = np.arange(12.0).reshape(4, 3)
    t = Tape()
    out = t.embedding(t.leaf(table), np.array([3, 0, 3]))
    np.testing.assert_array_equal(out.value, table[[3, 0, 3]])
    with pytest.raises(ValueError, match="out of range"):
        t.embedding(t.leaf(table), np.array([4]))
    with pytest.raises(ValueError, match="out of range"):
        t.embedding(t.leaf(table), np.array([-1]))


def test_nonlin_values_and_unknown_kind():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    t = Tape()
    np.testing.assert_allclose(t.nonlin(t.leaf(x), "tanh").value, np.tanh(x))
    np.testing.assert_array_equal(t.nonlin(t.leaf(x), "relu").value,
                                  np.maximum(x, 0.0))
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        t.nonlin(t.leaf(x), "gelu")


def test_sigmoid_is_stable_at_extremes():
    x = np.array([-1000.0, 1000.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def test_sigmoid_equals_the_masked_formula_bitwise():
    grid = np.concatenate([[0.0, -0.0, 710.0, -710.0, 745.0, -745.0, 1e308, -1e308,
                            5e-324, -5e-324, np.nan],
                           np.linspace(-40.0, 40.0, 4001),
                           np.random.default_rng(0).normal(scale=20.0, size=2000)])
    expect = np.empty_like(grid)
    pos = grid >= 0
    expect[pos] = 1.0 / (1.0 + np.exp(-grid[pos]))
    ex = np.exp(grid[~pos])
    expect[~pos] = ex / (1.0 + ex)
    got = sigmoid(grid)
    nan = np.isnan(grid)
    assert np.isnan(got[nan]).all()
    np.testing.assert_array_equal(got[~nan].view(np.uint64), expect[~nan].view(np.uint64))
    assert sigmoid(np.array([-0.0]))[0] == 0.5


def _einsum_attention(q, k, v, mask, n_heads, g):
    """Reference attention over einsum contractions: (out, (gq, gk, gv))."""
    B, Lq, D = q.shape
    Lk = k.shape[1]
    dh = D // n_heads
    qh = q.reshape(B, Lq, n_heads, dh)
    kh = k.reshape(B, Lk, n_heads, dh)
    vh = v.reshape(B, Lk, n_heads, dh)
    scores = np.einsum("bqhd,bkhd->bhqk", qh, kh) / np.sqrt(dh)
    scores = np.where(mask[:, None, :, :], scores, MASKED_SCORE)
    weights = softmax(scores)
    out = np.einsum("bhqk,bkhd->bqhd", weights, vh).reshape(B, Lq, D)
    gh = g.reshape(B, Lq, n_heads, dh)
    gw = np.einsum("bqhd,bkhd->bhqk", gh, vh)
    gv = np.einsum("bhqk,bqhd->bkhd", weights, gh)
    gs = weights * (gw - (weights * gw).sum(axis=-1, keepdims=True))
    gq = np.einsum("bhqk,bkhd->bqhd", gs, kh) / np.sqrt(dh)
    gk = np.einsum("bhqk,bqhd->bkhd", gs, qh) / np.sqrt(dh)
    return out, (gq.reshape(B, Lq, D), gk.reshape(B, Lk, D), gv.reshape(B, Lk, D))


@pytest.mark.parametrize("case", ["masked", "full", "cached"])
def test_attention_matches_einsum_reference(case):
    rng = np.random.default_rng(11)
    B, Lq, Lk, D, H = 3, 6, 6, 8, 2
    mask = np.tril(np.ones((Lq, Lk), dtype=bool))[None]
    if case == "full":
        mask = np.ones((1, Lq, Lk), dtype=bool)
    elif case == "cached":
        # two new queries after six cached positions (Lq < Lk), as when a
        # K/V cache is continued; the first key is a visible prefix
        Lq, Lk = 2, 8
        pos = np.arange(Lk - Lq, Lk)[:, None]
        mask = ((np.arange(Lk)[None, :] < 1) | (np.arange(Lk)[None, :] <= pos))[None]
    q = rng.normal(size=(B, Lq, D))
    k, v = rng.normal(size=(B, Lk, D)), rng.normal(size=(B, Lk, D))
    g = rng.normal(size=(B, Lq, D))
    out, cache = attention_forward(q, k, v, mask, H)
    expect_out, expect_grads = _einsum_attention(q, k, v, mask, H, g)
    np.testing.assert_allclose(out, expect_out, rtol=0, atol=1e-12)
    for got, expect in zip(attention_backward(g, cache), expect_grads, strict=True):
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_single_head_attention_matches_manual_softmax():
    rng = np.random.default_rng(3)
    q, k, v = (rng.normal(size=(1, 3, 4)) for _ in range(3))
    out, _ = attention_forward(q, k, v, np.ones((1, 3, 3), dtype=bool), n_heads=1)
    scores = q[0] @ k[0].T / np.sqrt(4)
    np.testing.assert_allclose(out[0], softmax(scores) @ v[0], rtol=1e-12)


def test_masked_keys_cannot_influence_output():
    rng = np.random.default_rng(4)
    q = rng.normal(size=(2, 4, 6))
    k, v = rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 4, 6))
    mask = np.tril(np.ones((4, 4), dtype=bool))[None]
    base, _ = attention_forward(q, k, v, mask, n_heads=2)
    k2, v2 = k.copy(), v.copy()
    k2[:, 2:] += 100.0  # only positions >= 2 change
    v2[:, 2:] -= 50.0
    moved, _ = attention_forward(q, k2, v2, mask, n_heads=2)
    # queries 0 and 1 never attend past themselves, so they are untouched
    np.testing.assert_array_equal(base[:, :2], moved[:, :2])
    assert not np.allclose(base[:, 2:], moved[:, 2:])


def test_attention_rejects_indivisible_heads():
    x = np.zeros((1, 2, 5))
    with pytest.raises(ValueError, match="not divisible"):
        attention_forward(x, x, x, np.ones((1, 2, 2), dtype=bool), n_heads=2)


def test_gru_forward_matches_manual_formula():
    rng = np.random.default_rng(5)
    x, h = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
    wz, wr, wn = (rng.normal(size=(7, 4)) for _ in range(3))
    bz, br, bn = (rng.normal(size=(4,)) for _ in range(3))
    out, _ = gru_forward(x, h, wz, bz, wr, br, wn, bn)
    xh = np.hstack([x, h])
    z = 1 / (1 + np.exp(-(xh @ wz + bz)))
    r = 1 / (1 + np.exp(-(xh @ wr + br)))
    n = np.tanh(np.hstack([x, r * h]) @ wn + bn)
    np.testing.assert_allclose(out, (1 - z) * n + z * h, rtol=1e-12)


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 8)) * 5 + 2
    t = Tape()
    out = t.layer_norm(t.leaf(x), t.leaf(np.ones(8)), t.leaf(np.zeros(8))).value
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=10 * LN_EPS)


def _layer_norm_reference(x, gain, bias, g):
    """Layer norm forward and backward written with a fresh array per step."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    out = xhat * gain + bias
    D = x.shape[-1]
    dgain = (g * xhat).reshape(-1, D).sum(axis=0)
    dbias = g.reshape(-1, D).sum(axis=0)
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return out, dx, dgain, dbias


@pytest.mark.parametrize("shape", [(3, 8), (4, 7, 16), (2, 5, 64)])
def test_layer_norm_equals_the_fresh_array_formula_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape) * 3 + 1
    x[0, ...] = 0.0  # a constant row: xhat is all zeros
    gain = rng.normal(size=shape[-1])
    bias = rng.normal(size=shape[-1])
    g = rng.normal(size=shape)
    out, cache = layer_norm_forward(x, gain, bias)
    dx, dgain, dbias = layer_norm_backward(g, gain, cache)
    for got, want in zip((out, dx, dgain, dbias), _layer_norm_reference(x, gain, bias, g)):
        assert got.shape == want.shape
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_softmax_xent_matches_manual_mean():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(2, 3, 5))
    targets = np.array([[1, 0, 4], [2, 2, 3]])
    pad = np.array([[False, False, True], [False, True, True]])
    t = Tape()
    loss = float(t.softmax_xent(t.leaf(logits), targets, pad).value)
    lp = log_softmax(logits)
    manual = -(lp[0, 0, 1] + lp[0, 1, 0] + lp[1, 0, 2]) / 3
    assert loss == pytest.approx(manual, rel=1e-12)
    # an all-False pad scores every position
    full = float(Tape().softmax_xent(Tape().leaf(logits), targets,
                                     np.zeros(targets.shape, dtype=bool)).value)
    assert full != loss


def test_softmax_xent_error_cases():
    t = Tape()
    logits = t.leaf(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="all positions are padded"):
        t.softmax_xent(logits, np.array([0, 1]), np.array([True, True]))
    with pytest.raises(ValueError, match="out of range"):
        t.softmax_xent(logits, np.array([0, 3]), np.array([False, False]))
    with pytest.raises(ValueError, match="do not match"):
        t.softmax_xent(logits, np.array([0, 1, 2]), np.array([False, False, False]))


def test_padded_targets_are_ignored_even_when_out_of_range():
    # a padded position may hold any id; only kept positions are validated
    t = Tape()
    logits = t.leaf(np.zeros((2, 3)))
    loss = t.softmax_xent(logits, np.array([1, 99]), np.array([False, True]))
    assert float(loss.value) == pytest.approx(np.log(3.0))


def test_squared_error_validates_shape():
    t = Tape()
    pred = t.leaf(np.ones((2, 2)))
    assert float(t.squared_error(pred, np.zeros((2, 2))).value) == 1.0
    with pytest.raises(ValueError, match="shape mismatch"):
        t.squared_error(pred, np.zeros((4,)))


# ----------------------------------------------------------------------
# tape mechanics


def test_backward_accumulates_shared_nodes():
    t = Tape()
    x = t.leaf(np.array(3.0))
    y = t.add(x, x)
    t.backward(y)
    assert float(x.grad) == 2.0


def test_first_gradient_has_the_bits_of_zeros_plus_g():
    t = Tape()
    x = t.leaf(np.array([1.0, 2.0]))
    y = t.scale(x, -1.0)
    # the squared error's gradient is +0.0, so the scale passes -0.0 to x
    loss = t.squared_error(y, np.array([-1.0, -2.0]))
    t.backward(loss)
    assert np.signbit(y.grad).tolist() == [False, False]
    assert np.signbit(x.grad).tolist() == [False, False]  # 0.0 + -0.0 == +0.0


def test_backward_rejects_nonscalar_and_foreign_loss():
    t = Tape()
    with pytest.raises(RuntimeError, match="tape is empty"):
        t.backward(Tape().leaf(np.array(1.0)))
    vec = t.leaf(np.ones(3))
    with pytest.raises(ValueError, match="must be scalar"):
        t.backward(vec)
    other = Tape().leaf(np.array(1.0))
    with pytest.raises(RuntimeError, match="not recorded on this tape"):
        t.backward(other)


def test_param_nodes_are_shared_and_unreached_grads_are_zero():
    store = ParamStore()
    store.add("a", np.ones(2))
    store.add("unused", np.ones(3))
    t = Tape()
    n1 = t.param(store, "a")
    n2 = t.param(store, "a")
    assert n1 is n2
    loss = t.squared_error(n1, np.zeros(2))
    t.backward(loss)
    grads = t.param_grads(store)
    np.testing.assert_array_equal(store.view(grads, "unused"), np.zeros(3))
    np.testing.assert_allclose(store.view(grads, "a"), np.ones(2))


def test_backward_is_repeatable_bitwise():
    rng = np.random.default_rng(9)
    store = ParamStore()
    builder = _case_attention(rng, store)
    loss1, grads1 = builder()
    loss2, grads2 = builder()
    assert loss1 == loss2
    assert (grads1.view(np.uint64) == grads2.view(np.uint64)).all()


# ----------------------------------------------------------------------
# working set: backward consumes its tape, inference tapes record nothing


def test_backward_consumes_the_tape_and_cannot_run_twice():
    rng = np.random.default_rng(12)
    store = ParamStore()
    store.add("w", rng.normal(size=(4, 3)))
    t = Tape()
    w = t.param(store, "w")
    h = t.nonlin(t.affine(t.leaf(rng.normal(size=(5, 4))), w, t.leaf(np.zeros(3))), "tanh")
    dropped = weakref.ref(h.value)  # an intermediate the caller no longer holds
    loss = t.squared_error(h, np.zeros((5, 3)))
    del h
    assert dropped() is not None  # the recorded step keeps it for backward
    t.backward(loss)
    assert t._steps == []
    assert dropped() is None
    assert store.view(t.param_grads(store), "w").shape == (4, 3)
    assert float(loss.grad) == 1.0  # node grads stay on the nodes the caller holds
    with pytest.raises(RuntimeError, match="already ran on this tape"):
        t.backward(loss)


def test_an_inference_tape_records_no_steps_and_refuses_backward():
    rng = np.random.default_rng(13)
    t = Tape(grad=False)
    h = t.nonlin(t.affine(t.leaf(rng.normal(size=(5, 4))), t.leaf(rng.normal(size=(4, 3))),
                          t.leaf(np.zeros(3))), "tanh")
    dropped = weakref.ref(h.value)
    loss = t.squared_error(h, np.zeros((5, 3)))
    assert t._steps == []
    del h
    assert dropped() is None  # freed as soon as the caller drops its node
    with pytest.raises(RuntimeError, match="inference tape"):
        t.backward(loss)


def _buffer(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


def test_values_no_backward_reads_are_freed_before_backward():
    rng = np.random.default_rng(15)
    store = ParamStore()
    for name, shape in (("emb", (6, 4)), ("pos", (3, 4)), ("gain", (4,)), ("bias", (4,)),
                        ("w1", (4, 8)), ("b1", (8,)), ("w2", (8, 4)), ("b2", (4,)),
                        ("out", (4, 5))):
        store.add(name, rng.normal(size=shape))
    t = Tape()
    emb, pos = t.param(store, "emb"), t.param(store, "pos")
    # a transformer block: concatenated input plus positions, a ReLU
    # feed-forward residual, then a layer norm and the logits
    cat = t.concat([t.embedding(emb, [[0], [1]]), t.embedding(emb, [[2, 3], [4, 5]])], axis=1)
    x = t.add(cat, t.broadcast(pos, (2, 3, 4)))
    pre = t.affine(x, t.param(store, "w1"), t.param(store, "b1"))
    h = t.nonlin(pre, "relu")
    res = t.add(x, t.affine(h, t.param(store, "w2"), t.param(store, "b2")))
    y = t.layer_norm(res, t.param(store, "gain"), t.param(store, "bias"))
    logits = t.affine(y, t.param(store, "out"), t.leaf(np.zeros(5)))
    loss = t.softmax_xent(logits, rng.integers(0, 5, size=(2, 3)), np.zeros((2, 3), dtype=bool))
    unread = {name: weakref.ref(_buffer(node.value)) for name, node in
              (("concat", cat), ("pre-relu", pre), ("residual", res), ("logits", logits))}
    read = {name: weakref.ref(_buffer(node.value)) for name, node in
            (("affine input", x), ("relu output", h))}
    del cat, x, pre, h, res, y, logits
    assert {name for name, ref in unread.items() if ref() is not None} == set()
    assert {name for name, ref in read.items() if ref() is None} == set()
    t.backward(loss)
    assert {name for name, ref in read.items() if ref() is not None} == set()
    assert np.isfinite(t.param_grads(store)).all()


def test_relu_mask_from_its_output_equals_the_mask_from_its_input():
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny, 3 * tiny,
                  np.finfo(np.float64).tiny / 2, -np.finfo(np.float64).tiny / 2, 1.5, -1.5])
    g = np.random.default_rng(16).normal(size=x.shape)
    t = Tape()
    t.nonlin(t.leaf(x), "relu")
    _, relu_backward = t._steps[-1]
    [(_, gx)] = relu_backward(g)
    assert gx.tobytes() == (g * (x > 0)).tobytes()


def _op_cases(rng):
    """Per op, a function that runs that op on a tape from fixed inputs."""
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    q, k, v = rng.normal(size=(2, 6, 8)), rng.normal(size=(2, 6, 8)), rng.normal(size=(2, 6, 8))
    mask = np.tril(np.ones((6, 6), dtype=bool))[None]
    gain, bias = rng.normal(size=(4,)), rng.normal(size=(4,))
    xg, hg = rng.normal(size=(3, 2)), rng.normal(size=(3, 4))
    gates = [rng.normal(size=s) for s in ((6, 4), (4,)) * 3]
    logits = rng.normal(size=(2, 3, 7))
    targets = rng.integers(0, 7, size=(2, 3))
    pad = np.array([[False, False, True], [False, True, True]])
    w68, b68 = rng.normal(size=(4, 68)), rng.normal(size=(68,))
    return {
        "affine": lambda t: t.affine(t.leaf(x), t.leaf(w), t.leaf(b)),
        "affine_68": lambda t: t.affine(t.leaf(x), t.leaf(w68), t.leaf(b68)),
        "affine_no_bias": lambda t: t.affine(t.leaf(x), t.leaf(w), t.leaf(np.zeros(5))),
        "attention": lambda t: t.attention(t.leaf(q), t.leaf(k), t.leaf(v), mask, 2),
        "layer_norm": lambda t: t.layer_norm(t.leaf(x), t.leaf(gain), t.leaf(bias)),
        "gru_cell": lambda t: t.gru_cell(t.leaf(xg), t.leaf(hg), *[t.leaf(p) for p in gates]),
        "softmax_xent": lambda t: t.softmax_xent(t.leaf(logits), targets, pad),
    }


@pytest.mark.parametrize("op", ["affine", "affine_68", "affine_no_bias", "attention",
                                "layer_norm", "gru_cell", "softmax_xent"])
def test_each_op_returns_the_same_bits_on_an_inference_tape(op):
    build = _op_cases(np.random.default_rng(14))[op]
    recorded = build(Tape()).value
    inferred = build(Tape(grad=False)).value
    assert recorded.shape == inferred.shape
    assert recorded.tobytes() == inferred.tobytes()

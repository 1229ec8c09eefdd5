"""Parameter store, Adam, clipping, and checkpoint round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexeval.nn import (CHECKPOINT_MAGIC, _hex_floats, ParamStore, clip_global_norm,
                        grad_check, load_checkpoint, mse_loss, nll_loss,
                        save_checkpoint)


def test_store_basics():
    store = ParamStore()
    a = store.add("a", np.ones((2, 3)))
    store.add_zeros("z", (4,))
    store.add_ones("o", (2,))
    assert store.names() == ["a", "z", "o"]
    assert store.num_values() == 6 + 4 + 2
    assert "a" in store and "missing" not in store
    assert store["a"] is a
    with pytest.raises(ValueError, match="duplicate parameter"):
        store.add("a", np.zeros(1))


def test_add_uniform_respects_scale():
    store = ParamStore()
    vals = store.add_uniform("w", (50, 50), np.random.default_rng(0), scale=0.08)
    assert np.abs(vals).max() <= 0.08
    assert np.abs(vals).max() > 0.01  # not degenerate


def test_state_copy_is_independent():
    store = ParamStore()
    store.add("a", np.ones(3))
    snap = store.state_copy()
    store["a"][:] = 9.0
    np.testing.assert_array_equal(snap["a"], np.ones(3))
    store.load_state(snap)
    np.testing.assert_array_equal(store["a"], np.ones(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        store.load_state({"a": np.ones(4)})


def test_adam_matches_reference_updates():
    store = ParamStore()
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=(3, 2))
    store.add("p", p0)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    ref = p0.copy()
    for step in range(1, 4):
        g = rng.normal(size=(3, 2))
        store.adam_step({"p": g}, lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
        np.testing.assert_allclose(store["p"], ref, rtol=1e-12)
    assert store.step == 3


def test_adam_validates_inputs():
    store = ParamStore()
    store.add("p", np.zeros(2))
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        store.adam_step({"p": np.zeros(3)}, lr=1e-3)
    for bad in (dict(lr=0.0), dict(lr=1e-3, beta1=1.0), dict(lr=1e-3, beta2=0.0),
                dict(lr=1e-3, eps=0.0)):
        with pytest.raises(ValueError, match="out of range"):
            store.adam_step({"p": np.zeros(2)}, **bad)


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    kept, norm = clip_global_norm(grads, max_norm=10.0)
    assert norm == 5.0
    assert kept is grads
    clipped, norm = clip_global_norm(grads, max_norm=2.5)
    assert norm == 5.0
    np.testing.assert_allclose(clipped["a"], [1.5])
    np.testing.assert_allclose(clipped["b"], [2.0])
    zeros = {"a": np.zeros(3)}
    same, norm = clip_global_norm(zeros, max_norm=1.0)
    assert norm == 0.0 and same is zeros


def test_grad_check_guards():
    store = ParamStore()
    store.add("p", np.ones(1))
    with pytest.raises(ValueError, match="epsilon"):
        grad_check(lambda: (0.0, {}), store, epsilon=1e-2)
    state = {"n": 0}

    def jittery():
        state["n"] += 1
        return float(state["n"]), {"p": np.zeros(1)}

    with pytest.raises(ValueError, match="not deterministic"):
        grad_check(jittery, store)


def test_loss_helpers():
    logits = np.log(np.array([[0.25, 0.75], [0.5, 0.5]]))
    assert nll_loss(logits, [1, 0]) == pytest.approx(
        -(np.log(0.75) + np.log(0.5)) / 2)
    assert mse_loss([1.0, 3.0], [0.0, 1.0]) == pytest.approx(2.5)
    with pytest.raises(ValueError, match="length mismatch"):
        mse_loss([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        mse_loss([], [])


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(2)
    store.add("w", rng.normal(size=(4, 3)))
    # values that tend to expose lossy serialization
    store.add("edge", np.array([0.1, -0.0, 1e-300, 1.7976931348623157e308, np.pi]))
    store.step = 17
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, seed=42, config_hash="abc123",
                    extra={"model": {"kind": "demo"}})
    loaded, header = load_checkpoint(path)
    assert header["seed"] == 42
    assert header["step"] == 17
    assert header["config_hash"] == "abc123"
    assert header["model"] == {"kind": "demo"}
    assert loaded.step == 17
    assert loaded.names() == store.names()
    for name in store.names():
        np.testing.assert_array_equal(loaded[name], store[name])
        assert loaded[name].shape == store[name].shape


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)
    assert CHECKPOINT_MAGIC.startswith("rexeval-checkpoint")


def _float_hex(values) -> str:
    return " ".join(float(x).hex() for x in np.asarray(values, dtype=np.float64).reshape(-1))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0, -2.0, 0.5, 1e-300]


def test_hex_encoder_equals_float_hex_on_edges_and_random_bits():
    for value in EDGE_FLOATS:
        assert _hex_floats(np.array([value])) == float(value).hex()
    bits = np.random.default_rng(9).integers(0, 2 ** 64, size=50_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.concatenate([EDGE_FLOATS, values[np.isfinite(values)]])
    assert _hex_floats(values) == _float_hex(values)
    # shape does not matter, only the flat C order
    assert _hex_floats(values[:12].reshape(3, 4)) == _float_hex(values[:12])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_hex_encoder_equals_float_hex_on_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _hex_floats(values) == _float_hex(values)


def test_checkpoint_keeps_non_finite_values(tmp_path):
    store = ParamStore()
    store.add("odd", np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.5]))
    assert _hex_floats(store["odd"]) == "inf -inf nan -0x0.0p+0 0x0.0000000000001p-1022 " \
                                       "0x1.8000000000000p+0"
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    loaded, _ = load_checkpoint(path)
    np.testing.assert_array_equal(loaded["odd"], store["odd"])
    assert np.signbit(loaded["odd"][3])

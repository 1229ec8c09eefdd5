"""Parameter store, Adam, clipping, and checkpoint round-trips."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexeval.autodiff import softmax_xent_forward
from rexeval.lexicon import Vocab
from rexeval.models import TransformerArch, TransformerModel
from rexeval.nn import (CHECKPOINT_MAGIC, ParamStore, clip_global_norm, load_checkpoint,
                        load_into, save_checkpoint)

from testkit import grad_check


def test_store_basics():
    store = ParamStore()
    store.add("a", np.ones((2, 3)))
    store.add_zeros("z", (4,))
    o = store.add_ones("o", (2,))
    assert store.names() == ["a", "z", "o"]
    assert store.layout() == [["a", [2, 3]], ["z", [4]], ["o", [2]]]
    assert store.values.tolist() == [1.0] * 6 + [0.0] * 4 + [1.0] * 2
    # each parameter is a view of the one flat vector, writing through
    store["a"][1, 2] = 7.0
    o[0] = -3.0
    assert store.values[5] == 7.0 and store.values[10] == -3.0
    np.testing.assert_array_equal(store.view(store.values, "z"), store["z"])
    with pytest.raises(ValueError, match="duplicate parameter"):
        store.add("a", np.zeros(1))


def test_add_uniform_respects_scale():
    store = ParamStore()
    vals = store.add_uniform("w", (50, 50), np.random.default_rng(0))
    assert np.abs(vals).max() <= 0.08
    assert np.abs(vals).max() > 0.01  # not degenerate


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
        store.adam_step(g.reshape(-1), lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
        np.testing.assert_allclose(store["p"], ref, rtol=1e-12)
    assert store.step == 3


def test_adam_step_equals_the_fresh_array_formula_bitwise():
    rng = np.random.default_rng(4)
    shapes = {"big": (7, 5), "small": (3,), "mid": (2, 2, 2)}
    store = ParamStore()
    ref = {}
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
        ref[name] = [store[name].copy(), np.zeros(shape), np.zeros(shape)]
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    for step in range(1, 5):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                 for name, shape in shapes.items()}
        grads["small"][0] = -0.0
        flat = np.empty_like(store.values)
        for name, g in grads.items():
            store.view(flat, name)[...] = g
        store.adam_step(flat, lr)
        bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
        for name, g in grads.items():
            p, m, v = ref[name]
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            assert (store[name].view(np.uint64) == p.view(np.uint64)).all()


def test_a_loaded_store_allocates_no_adam_moments(tmp_path):
    vocab = Vocab.from_texts([["good", "food"]])
    arch = TransformerArch(embed_dim=8, ffn_dim=8, layers=1, heads=1)
    model = TransformerModel(arch, vocab, 3, 2, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, seed=5, config_hash="h")
    header, values = load_checkpoint(path)
    loaded = TransformerModel(arch, vocab, 3, 2, seed=6).store
    load_into(loaded, header, values, path)
    assert loaded.values.dtype == model.store.values.dtype == np.float32
    assert loaded.values.tobytes() == model.store.values.tobytes()
    assert loaded._moments is None
    loaded.adam_step(np.ones_like(loaded.values), lr=1e-3)
    assert [m.shape for m in loaded._moments] == [loaded.values.shape] * 2
    # the store holds its own copy: the step left the loaded array as it was
    assert not np.shares_memory(loaded.values, values)
    assert (values == model.store.values).all()


def test_adam_validates_inputs():
    store = ParamStore()
    store.add("p", np.zeros(2))
    with pytest.raises(ValueError, match="gradient shape mismatch"):
        store.adam_step(np.zeros(3), lr=1e-3)
    with pytest.raises(ValueError, match="out of range"):
        store.adam_step(np.zeros(2), lr=0.0)


def test_clip_global_norm():
    store = ParamStore()
    store.add_zeros("a", (1,))
    store.add_zeros("b", (1,))
    grads = np.array([3.0, 4.0])
    assert clip_global_norm(store, grads, max_norm=10.0) == 5.0
    assert grads.tolist() == [3.0, 4.0]
    assert clip_global_norm(store, grads, max_norm=2.5) == 5.0
    np.testing.assert_allclose(grads, [1.5, 2.0])
    zeros = np.zeros(2)
    assert clip_global_norm(store, zeros, max_norm=1.0) == 0.0
    assert zeros.tolist() == [0.0, 0.0]


def test_clip_global_norm_equals_a_loop_over_names_bitwise():
    rng = np.random.default_rng(6)
    shapes = {"w": (37, 11), "b": (11,), "gain": (3, 5, 7), "one": (1,)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add_zeros(name, shape)
    for max_norm in (1e-3, 1e3):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4)
                 for name, shape in shapes.items()}
        flat = np.empty_like(store.values)
        for name, g in grads.items():
            store.view(flat, name)[...] = g
        # the reference: one separate array per name, summed in store order
        total = 0.0
        for g in grads.values():
            total += float((g * g).sum())
        norm = float(np.sqrt(total))
        assert clip_global_norm(store, flat, max_norm) == norm
        factor = max_norm / norm if norm > max_norm else 1.0
        for name, g in grads.items():
            assert (store.view(flat, name).view(np.uint64) == (g * factor).view(np.uint64)).all()


def test_grad_check_guards():
    store = ParamStore()
    store.add("p", np.ones(1))
    with pytest.raises(ValueError, match="epsilon"):
        grad_check(lambda: (0.0, np.zeros(1)), store, epsilon=1e-2)
    state = {"n": 0}

    def jittery():
        state["n"] += 1
        return float(state["n"]), np.zeros(1)

    with pytest.raises(ValueError, match="not deterministic"):
        grad_check(jittery, store)


def test_loss_helpers():
    logits = np.log(np.array([[0.25, 0.75], [0.5, 0.5]]))
    loss, _ = softmax_xent_forward(logits, np.array([1, 0]), np.array([False, False]))
    assert loss == pytest.approx(-(np.log(0.75) + np.log(0.5)) / 2)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(2)
    store.add("w", rng.normal(size=(4, 3)))
    # values that tend to expose lossy serialization
    store.add("edge", np.array([0.1, -0.0, 1e-300, 1.7976931348623157e308, np.pi]))
    store.step = 17
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, seed=42, config_hash="abc123")
    header, loaded = load_checkpoint(path)
    # values and lineage only: the architecture comes from the roster entry
    assert sorted(header) == ["config_hash", "parameters", "seed", "step"]
    assert header["seed"] == 42
    assert header["step"] == 17
    assert header["config_hash"] == "abc123"
    assert header["parameters"] == store.layout() == [["w", [4, 3]], ["edge", [5]]]
    assert (loaded.view(np.uint64) == store.values.view(np.uint64)).all()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)
    assert CHECKPOINT_MAGIC.startswith("rexeval-checkpoint")


EDGE_BITS = [0x0000000000000000, 0x8000000000000000,  # +0, -0
             0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
             0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
             0x7FF8000000000000, 0xFFF8000000000001,  # quiet NaNs, with a payload
             0x7FF0000000000001, 0x7FF4000000000000,  # signalling NaN payloads
             0x7FEFFFFFFFFFFFFF, 0x3FF0000000000000]  # max finite, 1.0


def _round_trip_bits(tmp_path, bits, shape=None) -> np.ndarray:
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    store = ParamStore()
    store.add("p", values.reshape(shape or values.shape))
    path = tmp_path / "bits.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    header, loaded = load_checkpoint(path)
    assert header["parameters"] == [["p", list(store["p"].shape)]]
    return loaded.view(np.uint64)


def test_checkpoint_round_trip_keeps_edge_bit_patterns(tmp_path):
    assert _round_trip_bits(tmp_path, EDGE_BITS).tolist() == EDGE_BITS
    assert _round_trip_bits(tmp_path, EDGE_BITS, shape=(3, 4)).tolist() == EDGE_BITS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=0, max_size=40))
def test_checkpoint_round_trip_is_bit_exact_on_any_bit_pattern(tmp_path_factory, patterns):
    tmp_path = tmp_path_factory.mktemp("bits")
    assert _round_trip_bits(tmp_path, patterns).tolist() == patterns


def test_checkpoint_keeps_non_finite_values(tmp_path):
    store = ParamStore()
    store.add("odd", np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.5]))
    path = tmp_path / "odd.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    _, loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded, store["odd"])
    assert np.signbit(loaded[3])


def _split_checkpoint(path) -> tuple[bytes, dict, bytes]:
    """A checkpoint's magic line, JSON header and `.npy` bytes."""
    magic, header, array = path.read_bytes().split(b"\n", 2)
    return magic, json.loads(header), array


def _write_checkpoint(path, magic: bytes, header: dict, array: bytes) -> None:
    path.write_bytes(magic + b"\n" + json.dumps(header).encode("utf-8") + b"\n" + array)


def test_checkpoint_is_a_v4_header_and_one_little_endian_array(tmp_path):
    for dtype in ("<f8", "<f4"):
        store = ParamStore(dtype)
        store.add("w", np.array([[1.0, -2.5]]))
        store.add("b", np.array([0.5]))
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, store, seed=0, config_hash="h")
        magic, header, array = _split_checkpoint(path)
        assert magic.decode("ascii") == CHECKPOINT_MAGIC == "rexeval-checkpoint-v4"
        assert header == {"config_hash": "h", "seed": 0, "step": 0,
                          "parameters": [["w", [1, 2]], ["b", [1]]]}
        # the array holds the store's values in the store's own dtype
        values = np.lib.format.read_array(io.BytesIO(array), allow_pickle=False)
        assert values.dtype.str == dtype and values.shape == (3,)
        assert values.tobytes() == np.array([1.0, -2.5, 0.5], dtype=dtype).tobytes()
        # loading returns that one array
        _, loaded = load_checkpoint(path)
        assert loaded.dtype.str == dtype and loaded.tobytes() == values.tobytes()


def test_checkpoint_rejects_the_float64_only_v3_format(tmp_path):
    store = ParamStore()
    store.add("w", np.array([[1.0, -2.5]]))
    path = tmp_path / "v3.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    _, header, array = _split_checkpoint(path)
    _write_checkpoint(path, b"rexeval-checkpoint-v3", header, array)
    with pytest.raises(ValueError, match="rexeval-checkpoint-v3") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "rerun the train stage" in str(err.value)


def test_checkpoint_rejects_the_hex_float_format(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_text('rexeval-checkpoint-v1\n{"config_hash": "h", "seed": 0, "step": 0}\n'
                    "w 2 0x1.0000000000000p+0 -0x1.4000000000000p+1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="rexeval-checkpoint-v1") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "rerun the train stage" in str(err.value)


def test_checkpoint_rejects_the_base64_format(tmp_path):
    path = tmp_path / "v2.ckpt"
    # the bytes the base64 writer produced for w = [[1, -2.5]], b = [0.5]
    path.write_bytes(b'rexeval-checkpoint-v2\n{"config_hash": "h", "model": {"kind": "demo"}, '
                     b'"seed": 0, "step": 3}\nw 1,2 AAAAAAAA8D8AAAAAAAAEwA==\n'
                     b'b 1 AAAAAAAA4D8=\n')
    with pytest.raises(ValueError, match="rexeval-checkpoint-v2") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "rerun the train stage" in str(err.value)


def test_checkpoint_rejects_a_value_count_that_does_not_match_the_shape(tmp_path):
    store = ParamStore()
    store.add("ok", np.zeros(2))
    store.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    magic, header, array = _split_checkpoint(path)
    # shapes adding up to more values than the array holds name the parameter
    for bad_shape in ([7], [2, 3, 1, 2]):
        header["parameters"][1][1] = bad_shape
        _write_checkpoint(path, magic, header, array)
        with pytest.raises(ValueError, match="parameter 'w'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
    # and shapes adding up to fewer are caught as well
    header["parameters"][1][1] = [2, 2]
    _write_checkpoint(path, magic, header, array)
    with pytest.raises(ValueError, match="holds 8 values but the header's parameters take 6"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_cut_or_padded_array(tmp_path):
    store = ParamStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    intact = path.read_bytes()
    # cut inside the values, inside the array's header, inside the JSON header
    for cut in (8, 1, 47, 60, len(intact) - 30):
        path.write_bytes(intact[:-cut])
        with pytest.raises(ValueError, match="unreadable checkpoint") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)
    path.write_bytes(intact + b"\0")
    with pytest.raises(ValueError, match="trailing bytes") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_any_dtype_but_little_endian_floats(tmp_path):
    store = ParamStore()
    store.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "dtype.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    magic, header, _ = _split_checkpoint(path)
    for dtype in (">f8", ">f4", "<f2", "<i8"):
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, np.arange(6).astype(dtype))
        _write_checkpoint(path, magic, header, buffer.getvalue())
        with pytest.raises(ValueError, match=f"value array is {dtype}") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


def test_checkpoint_rejects_a_malformed_parameters_header(tmp_path):
    store = ParamStore()
    store.add("ok", np.zeros(2))
    store.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "header.ckpt"
    save_checkpoint(path, store, seed=0, config_hash="h")
    magic, header, array = _split_checkpoint(path)
    del header["parameters"]
    _write_checkpoint(path, magic, header, array)
    with pytest.raises(ValueError, match="no 'parameters' list") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    for bad in (["w", 6], ["w", [-1, 6]], ["w", [2.0, 3]], ["w", [True, 6]],
                ["w"], [6, [6]], "w"):
        header["parameters"] = [["ok", [2]], bad]
        _write_checkpoint(path, magic, header, array)
        with pytest.raises(ValueError, match="non-negative integer dimensions") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

"""Joint-objective evaluation and the minibatch training loop."""

import math

import numpy as np
import pytest

from rexeval import training
from rexeval.autodiff import Tape
from rexeval.models import TransformerArch, TransformerModel
from rexeval.nn import ParamStore
from rexeval.training import (BUCKET_WINDOW, TrainConfig, epoch_batches, joint_loss,
                              length_order, make_batch, train_model)


@pytest.fixture(scope="module")
def setup(lexicon):
    from rexeval.corpus import build_corpus, generate_world

    world = generate_world(12, 10, 3, seed=51, lexicon=lexicon)
    corpus = build_corpus(world, 6, seed=51)

    def fresh():
        return TransformerModel(
            TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2),
            corpus.vocab, 12, 10, seed=9)

    return corpus, fresh


def test_train_config_validation():
    TrainConfig()
    for bad in (dict(epochs=0), dict(batch_size=0), dict(lr=0.0),
                dict(rating_weight=-0.1), dict(clip_norm=0.0), dict(patience=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_joint_loss_is_chunking_invariant(setup):
    corpus, fresh = setup
    model = fresh()
    reviews = corpus.validation
    whole = joint_loss(model, reviews, corpus.vocab, 1.0)
    # token-weighted accumulation makes the nll independent of chunking:
    # calls over sub-lists of 3 combine to the loss of one call
    nll_sum = mse_sum = 0.0
    for start in range(0, len(reviews), 3):
        part = reviews[start:start + 3]
        _, nll, mse = joint_loss(model, part, corpus.vocab, 1.0)
        nll_sum += nll * make_batch(part, corpus.vocab).scored_positions
        mse_sum += mse * len(part)
    positions = make_batch(reviews, corpus.vocab).scored_positions
    parts = (nll_sum / positions + mse_sum / len(reviews), nll_sum / positions,
             mse_sum / len(reviews))
    np.testing.assert_allclose(parts, whole, rtol=1e-12)


def test_joint_loss_in_length_order_equals_review_order(setup):
    corpus, fresh = setup
    model = fresh()
    reviews = corpus.validation + corpus.test
    assert length_order([len(r.tokens) for r in reviews]).tolist() != list(range(len(reviews)))
    nll_sum = mse_sum = positions = 0.0
    for start in range(0, len(reviews), 8):
        batch = make_batch(reviews[start:start + 8], corpus.vocab)
        nll, mse = model.loss_nodes(Tape(), batch)
        nll_sum += float(nll.value) * batch.scored_positions
        mse_sum += float(mse.value) * len(batch.ratings)
        positions += batch.scored_positions
    reference = (nll_sum / positions + 0.5 * mse_sum / len(reviews),
                 nll_sum / positions, mse_sum / len(reviews))
    ordered = joint_loss(model, reviews, corpus.vocab, 0.5)
    np.testing.assert_allclose(ordered, reference, rtol=1e-12)


def test_length_order_is_stable():
    assert length_order([3, 1, 3, 2, 1]).tolist() == [1, 4, 3, 0, 2]
    assert length_order([]).tolist() == []


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n, batch_size", [(203, 8), (37, 4), (48, 6), (5, 8), (8, 8)])
def test_epoch_batches_bucket_each_window_and_cover_every_review_once(seed, n, batch_size):
    lengths = np.random.default_rng(seed + 100).integers(4, 15, size=n)
    batches = epoch_batches(lengths, batch_size, np.random.default_rng(seed))
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))
    assert len(batches) == math.ceil(n / batch_size)
    partial = [len(b) for b in batches if len(b) != batch_size]
    assert partial == ([n % batch_size] if n % batch_size else [])
    # the generator's first draw fixes the windows; within one, the batches
    # hold consecutive runs of its length-sorted reviews
    permutation = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size * BUCKET_WINDOW):
        window = set(permutation[start:start + batch_size * BUCKET_WINDOW].tolist())
        inside = sorted((b for b in batches if set(b.tolist()) <= window),
                        key=lambda b: (lengths[b].min(), lengths[b].max()))
        assert sum(len(b) for b in inside) == len(window)
        for shorter, longer in zip(inside, inside[1:]):
            assert lengths[shorter].max() <= lengths[longer].min()
    again = epoch_batches(lengths, batch_size, np.random.default_rng(seed))
    assert [b.tolist() for b in again] == [b.tolist() for b in batches]


def test_every_train_review_is_seen_once_per_epoch(setup, monkeypatch):
    corpus, fresh = setup
    train_ids = {id(r) for r in corpus.train}
    batch_size = 5  # two windows and a partial batch over the 48 train reviews
    assert len(corpus.train) % batch_size
    seen = []

    def recording(reviews, vocab):
        if id(reviews[0]) in train_ids:
            seen.append([id(r) for r in reviews])
        return make_batch(reviews, vocab)

    monkeypatch.setattr(training, "make_batch", recording)
    epochs = 3
    history = train_model(fresh(), corpus, TrainConfig(epochs=epochs, batch_size=batch_size,
                                                       patience=epochs))
    assert len(history) == epochs
    per_epoch = math.ceil(len(corpus.train) / batch_size)
    assert len(seen) == epochs * per_epoch
    for e in range(epochs):
        rows = seen[e * per_epoch:(e + 1) * per_epoch]
        assert sorted(i for batch in rows for i in batch) == sorted(train_ids)
        assert sum(len(batch) < batch_size for batch in rows) == 1


def test_joint_loss_combines_terms(setup):
    corpus, fresh = setup
    model = fresh()
    joint, nll, mse = joint_loss(model, corpus.validation, corpus.vocab, 0.7)
    assert joint == pytest.approx(nll + 0.7 * mse)
    zero, nll0, _ = joint_loss(model, corpus.validation, corpus.vocab, 0.0)
    assert zero == nll0 == pytest.approx(nll)
    with pytest.raises(ValueError, match="empty batch"):
        joint_loss(model, [], corpus.vocab, 1.0)
    with pytest.raises(ValueError, match="rating_weight"):
        joint_loss(model, corpus.validation, corpus.vocab, -1.0)


def test_training_improves_and_restores_best_state(setup):
    corpus, fresh = setup
    model = fresh()
    before = joint_loss(model, corpus.validation, corpus.vocab, 1.0)[0]
    history = train_model(model, corpus, TrainConfig(epochs=4, batch_size=16))
    assert 1 <= len(history) <= 4
    best = min(h["val_joint"] for h in history)
    assert best < before
    # the store now holds exactly the parameters of the best epoch
    after = joint_loss(model, corpus.validation, corpus.vocab, 1.0)[0]
    assert after == best
    for entry in history:
        assert set(entry) == {"epoch", "train_nll", "train_mse", "val_joint",
                              "val_nll", "val_mse"}
        assert all(np.isfinite(v) for v in entry.values())


def test_optimize_restores_the_best_epochs_values_bitwise():
    store = ParamStore()
    store.add("w", np.array([[1.0, -2.0], [0.5, 3.0]]))
    store.add("b", np.array([0.25]))
    scores = iter([3.0, 1.0, 2.0, 5.0])
    seen = []

    def loss(tape, batch):
        return tape.add(tape.squared_error(tape.param(store, "w"), np.zeros((2, 2))),
                        tape.squared_error(tape.param(store, "b"), np.ones(1)))

    def validate(epoch):
        seen.append(store.values.copy())
        return next(scores), {"epoch": epoch}

    history, best = training.optimize(store, TrainConfig(epochs=4, patience=4, lr=0.1),
                                      lambda: [None, None], loss, validate)
    assert best == 1.0 and [entry["epoch"] for entry in history] == [1, 2, 3, 4]
    # the epochs after the best one moved every value, and the snapshot kept none of it
    assert (seen[3] != seen[1]).all()
    assert (store.values.view(np.uint64) == seen[1].view(np.uint64)).all()


def test_training_is_deterministic(setup):
    corpus, fresh = setup
    cfg = TrainConfig(epochs=2, batch_size=16)
    m1, m2 = fresh(), fresh()
    h1 = train_model(m1, corpus, cfg)
    h2 = train_model(m2, corpus, cfg)
    assert h1 == h2
    for name in m1.store.names():
        np.testing.assert_array_equal(m1.store[name], m2.store[name])


def test_training_logs_progress(setup):
    corpus, fresh = setup
    lines = []
    train_model(fresh(), corpus, TrainConfig(epochs=1, batch_size=16),
                log=lines.append)
    assert len(lines) == 1 and "epoch 1" in lines[0]


def test_empty_train_split_is_rejected(setup):
    corpus, fresh = setup
    import dataclasses

    hollow = dataclasses.replace(corpus, train=[])
    with pytest.raises(ValueError, match="empty train split"):
        train_model(fresh(), hollow, TrainConfig(epochs=1))

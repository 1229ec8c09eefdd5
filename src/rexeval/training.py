"""Minibatch training for the joint text-plus-rating objective.

The loss is mean token cross-entropy plus a weighted rating MSE. Epochs
draw length-bucketed batches from a seeded generator. `optimize` is the
one optimiser loop, which the TLAE regressor shares: gradients are
clipped by global norm, and the parameters giving the best validation
score are restored at the end, with early stopping after a patience of
flat epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .lexicon import BOS_ID, EOS_ID, PAD_ID, Vocab
from .nn import clip_global_norm


# Batches per window that is sorted by length before it is cut into batches:
# wide enough that a batch pads little, narrow enough that batch contents
# still vary from epoch to epoch.
BUCKET_WINDOW = 8
# Rows one batched inference pass runs at once (validation loss, scoring,
# ratings, decoding, the TLAE regressor): its working set stays bounded
# whatever the number of requests.
CHUNK_ROWS = 64


class DivergenceError(RuntimeError):
    """Raised when the loss leaves the finite floats; remembers the last good epoch."""

    def __init__(self, message: str, last_finite_epoch: int):
        super().__init__(message)
        self.last_finite_epoch = last_finite_epoch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 8
    batch_size: int = 32
    lr: float = 3e-3
    rating_weight: float = 1.0
    clip_norm: float = 5.0
    patience: int = 3

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.rating_weight < 0:
            raise ValueError("rating_weight must be >= 0")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class Batch:
    """Padded encodings of a list of reviews."""

    users: np.ndarray       # (B,)
    items: np.ndarray       # (B,)
    aspect_ids: np.ndarray  # (B,) vocab id of each review's aspect term
    input_ids: np.ndarray   # (B, W): BOS then words, right-padded
    target_ids: np.ndarray  # (B, W): words then EOS, right-padded
    pad: np.ndarray         # (B, W): True at padded positions
    ratings: np.ndarray     # (B,) float

    @property
    def scored_positions(self) -> int:
        return int((~self.pad).sum())


def padded_ids(encoded) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Teacher-forcing arrays of token-id rows, each (B, W) with W one above
    the longest row: input_ids hold BOS then the words and target_ids the
    words then EOS, both right-padded, and pad is True at padded positions."""
    W = max(len(ids) for ids in encoded) + 1
    B = len(encoded)
    input_ids = np.full((B, W), PAD_ID, dtype=np.int64)
    target_ids = np.full((B, W), PAD_ID, dtype=np.int64)
    pad = np.ones((B, W), dtype=bool)
    input_ids[:, 0] = BOS_ID
    for b, ids in enumerate(encoded):
        n = len(ids)
        input_ids[b, 1:n + 1] = ids
        target_ids[b, :n] = ids
        target_ids[b, n] = EOS_ID
        pad[b, :n + 1] = False
    return input_ids, target_ids, pad


def make_batch(reviews, vocab: Vocab) -> Batch:
    if not reviews:
        raise ValueError("empty batch")
    input_ids, target_ids, pad = padded_ids(
        [vocab.encode(r.tokens, append_eos=False) for r in reviews])
    return Batch(
        users=np.array([r.user for r in reviews], dtype=np.int64),
        items=np.array([r.item for r in reviews], dtype=np.int64),
        aspect_ids=np.array([vocab.token_to_id(r.aspect) for r in reviews], dtype=np.int64),
        input_ids=input_ids,
        target_ids=target_ids,
        pad=pad,
        ratings=np.array([r.rating for r in reviews], dtype=np.float64),
    )


def length_order(lengths) -> np.ndarray:
    """Positions of `lengths` in ascending order; equal lengths keep their order."""
    return np.argsort(np.asarray(lengths, dtype=np.int64), kind="stable")


def epoch_batches(lengths, batch_size: int, rng) -> list[np.ndarray]:
    """One epoch of length-bucketed batches of positions into `lengths`.

    A permutation from `rng` is cut into windows of BUCKET_WINDOW batches;
    each window is stably sorted by length and cut into batches, and the
    order of all batches is then shuffled with `rng`. Every position is in
    exactly one batch, and only the last window can end in a partial one.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = rng.permutation(len(lengths))
    span = batch_size * BUCKET_WINDOW
    batches = []
    for start in range(0, len(order), span):
        window = order[start:start + span]
        window = window[length_order(lengths[window])]
        batches.extend(window[b:b + batch_size] for b in range(0, len(window), batch_size))
    return [batches[k] for k in rng.permutation(len(batches))]


def joint_loss(model, reviews, vocab, rating_weight: float) -> tuple[float, float, float]:
    """(joint, nll, mse) over the reviews; nll is token-weighted across chunks.

    Reviews are chunked in `length_order`, so a chunk pads little.
    """
    if not reviews:
        raise ValueError("empty batch")
    if rating_weight < 0:
        raise ValueError("rating_weight must be >= 0")
    nll_sum = 0.0
    mse_sum = 0.0
    positions = 0
    order = length_order([len(r.tokens) for r in reviews])
    for start in range(0, len(order), CHUNK_ROWS):
        chunk = [reviews[j] for j in order[start:start + CHUNK_ROWS]]
        batch = make_batch(chunk, vocab)
        nll, mse = model.loss_nodes(Tape(grad=False), batch)
        n = batch.scored_positions
        nll_sum += float(nll.value) * n
        mse_sum += float(mse.value) * len(chunk)
        positions += n
    nll_mean = nll_sum / positions
    mse_mean = mse_sum / len(reviews)
    return nll_mean + rating_weight * mse_mean, nll_mean, mse_mean


def optimize(store, config: TrainConfig, batches, loss, validate,
             what: str = "training") -> tuple[list, float]:
    """Adam on the parameters in `store`, with gradients clipped by global
    norm, for up to `config.epochs` epochs of one step per batch of
    `batches()`.

    `loss(tape, batch)` records a batch's scalar loss on `tape`, and
    `validate(epoch)` returns the epoch's validation score (lower is
    better) and its history entry. Training stops after `config.patience`
    epochs without a better score, and the parameters of the best one are
    restored. A non-finite loss, gradient norm or score raises
    DivergenceError. Returns the history entries and the best score.
    """
    best = np.inf
    best_values = store.values.copy()
    flat_epochs = 0
    history = []
    for epoch in range(1, config.epochs + 1):
        try:
            for batch in batches():
                tape = Tape()
                total = loss(tape, batch)
                if not np.isfinite(total.value):
                    raise FloatingPointError("non-finite loss")
                tape.backward(total)
                grads = tape.param_grads(store)
                norm = clip_global_norm(store, grads, config.clip_norm)
                if not np.isfinite(norm):
                    raise FloatingPointError("non-finite gradient norm")
                store.adam_step(grads, config.lr)
            score, entry = validate(epoch)
            if not np.isfinite(score):
                raise FloatingPointError("non-finite validation loss")
        except FloatingPointError as exc:
            raise DivergenceError(
                f"{what} diverged in epoch {epoch}: {exc}", epoch - 1) from exc
        history.append(entry)
        if score < best:
            best = score
            np.copyto(best_values, store.values)
            flat_epochs = 0
        else:
            flat_epochs += 1
            if flat_epochs >= config.patience:
                break
    np.copyto(store.values, best_values)
    return history, best


def train_model(model, corpus, config: TrainConfig, log=None) -> list[dict]:
    """Optimize in place, drawing batches from the model's seed; returns
    the per-epoch history."""
    train = corpus.train
    if not train:
        raise ValueError("empty train split")
    vocab = corpus.vocab
    lengths = [len(r.tokens) for r in train]
    rng = np.random.default_rng([model.seed, 0x7E41])
    # this epoch's token-weighted nll, review-weighted mse, positions, reviews
    seen = [0.0, 0.0, 0, 0]

    def batches():
        for rows in epoch_batches(lengths, config.batch_size, rng):
            yield make_batch([train[j] for j in rows], vocab)

    def loss(tape, batch):
        nll, mse = model.loss_nodes(tape, batch)
        n = batch.scored_positions
        seen[0] += float(nll.value) * n
        seen[1] += float(mse.value) * len(batch.ratings)
        seen[2] += n
        seen[3] += len(batch.ratings)
        return tape.add(nll, tape.scale(mse, config.rating_weight))

    def validate(epoch):
        val_joint, val_nll, val_mse = joint_loss(
            model, corpus.validation, vocab, config.rating_weight)
        entry = {
            "epoch": epoch,
            "train_nll": seen[0] / seen[2],
            "train_mse": seen[1] / seen[3],
            "val_joint": val_joint,
            "val_nll": val_nll,
            "val_mse": val_mse,
        }
        seen[:] = [0.0, 0.0, 0, 0]
        if log is not None:
            log(f"epoch {epoch}: train nll {entry['train_nll']:.4f} "
                f"mse {entry['train_mse']:.4f} | val joint {val_joint:.4f}")
        return val_joint, entry

    return optimize(model.store, config, batches, loss, validate)[0]

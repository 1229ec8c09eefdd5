"""Helpers that only the tests use.

The one-pair model calls (`predict_rating` and `generate`, the two halves
of one explanation, `log_likelihood` and `perplexity`) are the batched
interface over a one-element request list.
`full_pass_log_likelihoods` and `prefix_bos_ratings` are the references
the batched scoring and ratings of the trainable models are checked
against. `UniformScorer` and
`mrr_random_baseline` are the chance references that metric values are
compared with. The rest are conveniences over the library: an
untrained model of a roster kind, finite-difference gradient checks,
parameter counts, single-text regressor predictions, a text's bigram
NLL, token cosines, and a trained model of an architecture loaded from
a checkpoint file.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from rexeval.autodiff import Tape, log_softmax
from rexeval.config import ModelSpec
from rexeval.lexicon import BOS_ID
from rexeval.models import (CHUNK_ROWS, EOS_TOKEN, KINDS, ExplainableRecommender, _nonempty,
                            _sum_target_logprobs, clamp_rating)
from rexeval.nn import ParamStore, load_checkpoint, load_into
from rexeval.training import length_order, padded_ids


def build_kind(kind: str, corpus, lexicon, seed: int, **options):
    """An untrained model of a roster kind, built from a [model:*]
    section that gives these options."""
    spec = ModelSpec("m", kind, tuple(options.items()))
    return KINDS[kind].build(corpus, lexicon, seed, *spec.settings)


def predict_rating(model, user: int, item: int, aspect: str | None = None) -> float:
    return model.explain_many([(user, item, aspect)])[0][0]


def generate(model, user: int, item: int, aspect: str | None = None) -> list[str]:
    return model.explain_many([(user, item, aspect)])[0][1]


def log_likelihood(model, user: int, item: int, tokens) -> float:
    return model.log_likelihood_many([(user, item, tokens)])[0]


def perplexity(model, user: int, item: int, tokens) -> float:
    return model.perplexity_many([(user, item, tokens)])[0]


def full_pass_log_likelihoods(model, requests) -> list[float]:
    """Reference scoring of a trainable model: the requests are cut into
    the chunks `log_likelihood_many` cuts, and each chunk runs its own
    prefixes, BOS and words in one forward pass, with nothing shared
    between chunks and every text encoded where it is used."""
    order = length_order([len(tokens) for _, _, tokens in requests])
    out = [0.0] * len(requests)
    for start in range(0, len(order), CHUNK_ROWS):
        rows = order[start:start + CHUNK_ROWS]
        texts = [requests[j][2] for j in rows]
        input_ids, target_ids, pad = padded_ids(
            [model.vocab.encode(tokens, append_eos=False) for tokens in texts])
        logits, _, _ = model._run(
            Tape(grad=False), np.array([requests[j][0] for j in rows]),
            np.array([requests[j][1] for j in rows]),
            np.array([model._aspect_id(tokens) for tokens in texts]), input_ids)
        for j, ll in zip(rows, _sum_target_logprobs(log_softmax(logits.value), target_ids,
                                                    pad)):
            out[j] = ll
    return out


def prefix_bos_ratings(model, requests) -> list[float]:
    """Reference ratings of a trainable model for (user, item, aspect)
    requests: one forward pass over every request's prefix and BOS, and
    the rating head over the head inputs it gives."""
    users, items, aspects = model._prefixes(list(requests), model._decode_aspect_id)
    bos = np.full((len(users), 1), BOS_ID, dtype=np.int64)
    tape = Tape(grad=False)
    _, head_in, _ = model._run(tape, users, items, aspects, bos)
    return [clamp_rating(r) for r in model._rating_head(tape, head_in).value[:, 0].tolist()]


class UniformScorer(ExplainableRecommender):
    """Assigns every token probability 1/V; perplexity is exactly V."""

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValueError("vocab size must be positive")
        self.vocab_size = vocab_size

    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        return [(3.0, [EOS_TOKEN]) for _ in requests]

    def log_likelihood_many(self, requests) -> list[float]:
        log_v = float(np.log(self.vocab_size))
        return [-(len(tokens) + 1) * log_v for _, _, tokens in _nonempty(requests)]


def mrr_random_baseline(k: int) -> float:
    """Expected MRR (x100) of a uniformly random ranker over k+1 texts."""
    return 100.0 * sum(1.0 / r for r in range(1, k + 2)) / (k + 1)


def grad_check(loss_fn: Callable[[], tuple[float, np.ndarray]],
               store: ParamStore, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn rebuilds the forward pass from the current store contents and
    returns (loss, its flat gradient in the store's layout). It must be
    deterministic; a second baseline call is compared bit for bit to
    catch hidden randomness.
    """
    if not (1e-6 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    loss_a, grads = loss_fn()
    loss_b, _ = loss_fn()
    if loss_a != loss_b:
        raise ValueError("loss_fn is not deterministic between calls")
    worst = 0.0
    flat = store.values
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        up, _ = loss_fn()
        flat[i] = orig - epsilon
        down, _ = loss_fn()
        flat[i] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = grads[i]
        denom = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst


def regressor_predict(regressor, tokens) -> float:
    """The text-only regressor's rating of one text."""
    return float(regressor.predict_many([list(tokens)])[0])


def bigram_nll(lm, tokens) -> float:
    """Mean negative log-probability of a text under a `BigramLM` alone,
    the score CNLL gives a text that shares no context with its reference."""
    ids = [lm.vocab.token_to_id(t) for t in tokens]
    total = -math.log(lm.unigram_prob(ids[0]))
    for prev, tid in zip(ids[:-1], ids[1:]):
        total += -math.log(lm.bigram_prob(prev, tid))
    return total / len(ids)


def cosine(table, a: str, b: str) -> float:
    """Cosine between two tokens of an `EmbeddingTable`."""
    ia, ib = table.vocab.token_to_id(a), table.vocab.token_to_id(b)
    return float(table.cosine_matrix([ia], [ib])[0, 0])


def model_from_checkpoint(path, arch, vocab, num_users: int, num_items: int, lexicon=None):
    """A model of the architecture `arch`, built as its kind builds one and
    then given a checkpoint file's values, as the generate and evaluate
    stages do; errors name the file."""
    header, values = load_checkpoint(path)
    model_class = next(kind.model for kind in KINDS.values() if kind.settings[:1] == (type(arch),))
    model = model_class(arch, vocab, num_users, num_items, header["seed"], lexicon)
    load_into(model.store, header, values, path)
    return model

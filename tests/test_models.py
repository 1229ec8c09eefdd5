"""Model contracts: scoring laws, batching, generation, checkpoints."""

import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from rexeval import models
from rexeval.autodiff import Tape, log_softmax
from rexeval.config import ModelSpec
from rexeval.corpus import build_corpus, generate_world, render_review
from rexeval.lexicon import (BOS_ID, EOS_ID, PAD_ID, RESERVED_TOKENS, UNK_ID, Vocab,
                             extract_aspect)
from rexeval.models import (CHUNK_ROWS, EOS_TOKEN, KINDS, OracleModel, RandomScorer,
                            RecurrentArch, RecurrentModel, TransformerArch,
                            TransformerModel, UnigramModel, UnigramSettings,
                            _sum_target_logprobs, clamp_rating, strip_reserved)
from rexeval.nn import (CHECKPOINT_MAGIC, ParamStore, clip_global_norm, load_checkpoint,
                        save_checkpoint)
from rexeval.training import TrainConfig, make_batch, padded_ids, train_model

from testkit import (UniformScorer, build_kind, full_pass_log_likelihoods, generate,
                     log_likelihood, model_from_checkpoint, perplexity, predict_rating,
                     prefix_bos_ratings)


@pytest.fixture(scope="module")
def tiny_corpus(lexicon):
    world = generate_world(10, 8, 3, seed=41, lexicon=lexicon)
    return build_corpus(world, 5, seed=41)


@pytest.fixture(scope="module")
def fresh_transformer(tiny_corpus):
    return TransformerModel(TransformerArch(embed_dim=16, ffn_dim=32, layers=1,
                                            heads=2),
                            tiny_corpus.vocab, 10, 8, seed=7)


@pytest.fixture(scope="module")
def fresh_recurrent(tiny_corpus):
    return RecurrentModel(RecurrentArch(embed_dim=16, hidden_dim=24),
                          tiny_corpus.vocab, 10, 8, seed=7)


# ----------------------------------------------------------------------
# scoring laws


@pytest.mark.parametrize("vocab_size", [2, 50, 1000])
def test_uniform_scorer_perplexity_equals_vocab_size(vocab_size):
    scorer = UniformScorer(vocab_size)
    for tokens in (["a"], ["a"] * 5, ["b"] * 17):
        ppl = perplexity(scorer, 0, 0, tokens)
        assert abs(ppl - vocab_size) <= 1e-9 * vocab_size


def test_uniform_scorer_contract():
    scorer = UniformScorer(10)
    assert predict_rating(scorer, 1, 2) == 3.0
    assert generate(scorer, 1, 2) == [EOS_TOKEN]
    assert log_likelihood(scorer, 0, 0, ["x", "y"]) == pytest.approx(-3 * np.log(10))
    with pytest.raises(ValueError, match="must be positive"):
        UniformScorer(0)


def test_perplexity_is_exp_of_mean_negative_ll():
    scorer = RandomScorer(3, Vocab())
    tokens = ["alpha", "beta", "gamma"]
    ll = log_likelihood(scorer, 4, 5, tokens)
    assert perplexity(scorer, 4, 5, tokens) == float(np.exp(-ll / 4))
    [many] = scorer.perplexity_many([(4, 5, tokens)])
    assert many == perplexity(scorer, 4, 5, tokens)


def test_empty_text_is_rejected_everywhere():
    scorer = RandomScorer(3, Vocab())
    with pytest.raises(ValueError, match="empty"):
        log_likelihood(scorer, 0, 0, [])
    with pytest.raises(ValueError, match="empty"):
        perplexity(scorer, 0, 0, [])
    with pytest.raises(ValueError, match="empty"):
        scorer.perplexity_many([(0, 0, ["ok"]), (0, 0, [])])


def test_random_scorer_is_deterministic_and_uniform():
    scorer = RandomScorer(11, Vocab())
    assert log_likelihood(scorer, 1, 2, ["x"]) == log_likelihood(scorer, 1, 2, ["x"])
    assert log_likelihood(scorer, 1, 2, ["x"]) != log_likelihood(scorer, 1, 3, ["x"])
    # exp(ll) should look uniform on (0, 1): Pearson's chi-square over 20
    # bins stays below 43.820, its upper 1e-3 quantile at 19 degrees of freedom
    draws = np.exp([log_likelihood(scorer, u, i, ["t"])
                    for u in range(100) for i in range(100)])
    counts = np.histogram(draws, bins=20, range=(0, 1))[0]
    expected = counts.sum() / 20
    assert ((counts - expected) ** 2 / expected).sum() < 43.820
    assert draws.min() > 0.0 and draws.max() < 1.0


def test_random_scorer_generation(tiny_corpus):
    scorer = RandomScorer(11, tiny_corpus.vocab)
    out = generate(scorer, 3, 4)
    assert out == generate(scorer, 3, 4)
    assert out[-1] == EOS_TOKEN
    assert 3 <= len(out) - 1 <= 8
    assert all(tiny_corpus.vocab.token_to_id(w) != UNK_ID for w in out[:-1])
    assert 1.0 <= predict_rating(scorer, 3, 4) <= 5.0


# ----------------------------------------------------------------------
# oracle


def test_oracle_reproduces_ground_truth(tiny_corpus):
    oracle = OracleModel(tiny_corpus.world)
    for review in tiny_corpus.test:
        gold = render_review(tiny_corpus.world, review.user, review.item)
        assert predict_rating(oracle, review.user, review.item) == gold.rating
        assert generate(oracle, review.user, review.item) == list(gold.tokens) + [EOS_TOKEN]
        assert log_likelihood(oracle, review.user, review.item, gold.tokens) == 0.0
        assert perplexity(oracle, review.user, review.item, gold.tokens) == 1.0
        other = list(gold.tokens) + ["extra"]
        assert log_likelihood(oracle, review.user, review.item, other) <= -1.0


# ----------------------------------------------------------------------
# unigram


def test_unigram_matches_hand_counts(tiny_corpus):
    model = UnigramModel.fit(tiny_corpus, alpha=0.1)
    vocab = tiny_corpus.vocab
    counts = np.zeros(len(vocab))
    for r in tiny_corpus.train:
        for tid in vocab.encode(r.tokens, append_eos=True):
            counts[tid] += 1
    expect = np.log((counts + 0.1) / (counts.sum() + 0.1 * len(vocab)))
    np.testing.assert_array_equal(model.log_probs, expect)
    tokens = list(tiny_corpus.test[0].tokens)
    ids = vocab.encode(tokens, append_eos=True)
    assert log_likelihood(model, 0, 0, tokens) == float(expect[ids].sum())
    assert predict_rating(model, 0, 0) == clamp_rating(
        float(np.mean([r.rating for r in tiny_corpus.train])))
    gen = generate(model, 0, 0)
    assert len(gen) == 2 and gen[1] == EOS_TOKEN
    best = vocab.token_to_id(gen[0])
    assert counts[best] == max(counts[len(RESERVED_TOKENS):])
    assert gen[0] not in RESERVED_TOKENS


# ----------------------------------------------------------------------
# the batched interface, for every roster kind


def _untrained_roster(corpus, lexicon) -> dict:
    """An untrained model of every kind in KINDS, small where trainable,
    plus an aspect-conditioned transformer."""
    small = {"transformer": {"embed_dim": 16, "ffn_dim": 32, "layers": 1, "heads": 2},
             "recurrent": {"embed_dim": 16, "hidden_dim": 24}}
    roster = {kind: build_kind(kind, corpus, lexicon, 7, **small.get(kind, {}))
              for kind in KINDS}
    roster["transformer use_aspect"] = build_kind("transformer", corpus, lexicon, 7,
                                                  **small["transformer"], use_aspect=True)
    return roster


def test_the_batched_methods_are_the_one_model_interface(tiny_corpus, lexicon, monkeypatch):
    assert models.ExplainableRecommender.__abstractmethods__ == {
        "explain_many", "log_likelihood_many"}
    one_pair = {"predict_rating", "generate", "log_likelihood", "perplexity", "token_log_probs"}
    for cls in vars(models).values():
        if isinstance(cls, type) and cls.__module__ == models.__name__:
            assert not one_pair & set(vars(cls)), cls.__name__
    reviews = tiny_corpus.test + tiny_corpus.validation
    for kind, model in _untrained_roster(tiny_corpus, lexicon).items():
        asked = [(r.user, r.item, r.aspect if model.conditions_on_aspect else None)
                 for r in reviews]
        texts = [(r.user, r.item, r.tokens) for r in reviews]
        for method, requests in ((model.explain_many, asked),
                                 (model.log_likelihood_many, texts)):
            assert method([]) == [], kind
            assert method(requests) == [method([request])[0] for request in requests], kind
        if isinstance(model, models.NeuralRecommender):
            monkeypatch.setattr(model, "_run", None)  # a forward pass would raise TypeError
        for at in (0, len(texts) // 2, len(texts)):
            with pytest.raises(ValueError, match="empty text"):
                model.log_likelihood_many(texts[:at] + [(0, 0, [])] + texts[at:])
        monkeypatch.undo()


# ----------------------------------------------------------------------
# trainable models


def test_batched_scoring_equals_single_scoring(tiny_corpus, fresh_transformer,
                                               fresh_recurrent):
    # A text scores the same bits alone, in any chunk and in any order
    # (the default widths are checked below, at several vocabularies).
    requests = [(r.user, r.item, list(r.tokens))
                for r in tiny_corpus.test + tiny_corpus.validation]
    # long texts pad the short ones in a chunk past 8 keys, where numpy's
    # pairwise summation would regroup a softmax sum over the keys axis
    requests += [(u, i, (t * 3)[:26]) for u, i, t in requests[:4]]
    order = np.random.default_rng(5).permutation(len(requests))
    for model in (fresh_transformer, fresh_recurrent):
        batched = model.log_likelihood_many(requests)
        single = [log_likelihood(model, u, i, t) for u, i, t in requests]
        assert batched == single
        assert scored_in_calls(model, requests, 3) == single
        assert scored_in_calls(model, [requests[j] for j in order], 5) == \
            [single[j] for j in order]


def scored_in_calls(model, requests, size: int) -> list[float]:
    """The log-likelihoods of the requests from separate
    `log_likelihood_many` calls over consecutive sub-lists of `size`."""
    return [ll for lo in range(0, len(requests), size)
            for ll in model.log_likelihood_many(requests[lo:lo + size])]


def default_width_models(corpus, lexicon, width: int):
    """Both transformer variants and the GRU at the default widths over a
    vocabulary of `width` tokens: the corpus's words, then fillers."""
    n = width - len(RESERVED_TOKENS)
    filled = corpus.vocab.tokens() + [f"filler{j}" for j in range(n)]
    vocab = Vocab.from_texts([filled[:n]])
    assert len(vocab) == width
    return (TransformerModel(TransformerArch(), vocab, 10, 8, seed=11),
            TransformerModel(TransformerArch(use_aspect=True), vocab, 10, 8, seed=12,
                             lexicon=lexicon),
            RecurrentModel(RecurrentArch(), vocab, 10, 8, seed=13))


@pytest.mark.parametrize("width", [64, 65, 68, 71, 89, 96])
def test_a_text_scores_the_same_bits_in_any_chunk(tiny_corpus, lexicon, width):
    # At the default model widths and vocabularies of 64 and 96 (multiples
    # of 16) and 65, 68, 71 and 89 (not), every product of scoring runs on
    # two rows or more and at an aligned width (`autodiff.matmul`), so a
    # row's bits do not depend on the rows it is scored with. With products
    # run at their own width, 65, 68 and 71 fail here on OpenBLAS 0.3.31.
    roster = default_width_models(tiny_corpus, lexicon, width)
    rng = np.random.default_rng(width)
    words = roster[0].vocab.tokens()
    requests = [(int(rng.integers(10)), int(rng.integers(8)),
                 tuple(words[j] for j in rng.integers(len(words), size=rng.integers(1, 26))))
                for _ in range(150)]
    requests += requests[:10]  # repeats
    for model in roster:
        alone = [log_likelihood(model, u, i, t) for u, i, t in requests]
        assert model.log_likelihood_many(requests) == alone, type(model).__name__
        for size in (1, 7, 64, len(requests)):
            order = rng.permutation(len(requests))
            assert scored_in_calls(model, [requests[j] for j in order], size) == \
                [alone[j] for j in order], (type(model).__name__, size)


def test_token_log_probs_are_distributions(fresh_transformer, fresh_recurrent):
    for model in (fresh_transformer, fresh_recurrent):
        ids = [model.vocab.token_to_id(t) for t in ["the", "food"]]
        lp = one_pair_pass(model, 1, 2, UNK_ID, ids)[0]
        assert lp.shape == (3, len(model.vocab))  # two words plus EOS slot
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, rtol=1e-9)


def test_log_likelihood_sums_target_positions(fresh_transformer):
    tokens = ["the", "food", "was"]
    words = [fresh_transformer.vocab.token_to_id(t) for t in tokens]
    lp = one_pair_pass(fresh_transformer, 1, 2, UNK_ID, words)[0]
    manual = sum(lp[t, tid] for t, tid in enumerate(words + [EOS_ID]))
    assert log_likelihood(fresh_transformer, 1, 2, tokens) == pytest.approx(manual)


def test_cold_start_ids_are_rejected(fresh_transformer, fresh_recurrent):
    for model in (fresh_transformer, fresh_recurrent):
        with pytest.raises(ValueError, match="cold-start user"):
            predict_rating(model, 10, 0)
        with pytest.raises(ValueError, match="cold-start item"):
            log_likelihood(model, 0, 8, ["x"])
        with pytest.raises(ValueError, match="cold-start user"):
            generate(model, -1, 0)


def test_rating_predictions_are_clamped(fresh_transformer, fresh_recurrent):
    for model in (fresh_transformer, fresh_recurrent):
        for user in range(3):
            assert 1.0 <= predict_rating(model, user, user) <= 5.0
    assert clamp_rating(0.3) == 1.0
    assert clamp_rating(7.2) == 5.0
    assert clamp_rating(3.3) == 3.3


def test_clamp_rating_rejects_a_non_finite_rating():
    """A NaN is no rating, and an infinity no bound: neither is clamped."""
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"non-finite rating {x!r}"):
            clamp_rating(x)
    assert clamp_rating(1e308) == 5.0 and clamp_rating(-1e308) == 1.0


def test_generation_shape_and_stopping(fresh_transformer, fresh_recurrent):
    for model in (fresh_transformer, fresh_recurrent):
        out = generate(model, 2, 3)
        assert out[-1] == EOS_TOKEN
        assert len(out) <= model.arch.max_len
        # an untrained model may emit <unk>, but never padding, BOS, or a
        # mid-sequence EOS
        assert all(t not in ("<pad>", "<bos>", "<eos>") for t in out[:-1])
        short = generate(with_max_len(model, 2), 2, 3)
        assert len(short) <= 2 and short[-1] == EOS_TOKEN


def test_aspect_conditioning_contract(tiny_corpus, lexicon, fresh_transformer,
                                      fresh_recurrent):
    with pytest.raises(ValueError, match="does not condition"):
        generate(fresh_transformer, 0, 0, aspect="food")
    with pytest.raises(ValueError, match="does not condition"):
        generate(fresh_recurrent, 0, 0, aspect="food")
    cond = TransformerModel(
        TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2, use_aspect=True),
        tiny_corpus.vocab, 10, 8, seed=7, lexicon=lexicon)
    assert cond.conditions_on_aspect
    with pytest.raises(ValueError, match="needs a conditioning aspect"):
        generate(cond, 0, 0)
    out = generate(cond, 0, 0, aspect="food")
    assert out[-1] == EOS_TOKEN
    with pytest.raises(ValueError, match="needs a lexicon"):
        TransformerModel(TransformerArch(use_aspect=True), tiny_corpus.vocab,
                         10, 8, seed=7)


def test_conditioning_changes_scores(tiny_corpus, lexicon):
    cond = TransformerModel(
        TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2, use_aspect=True),
        tiny_corpus.vocab, 10, 8, seed=7, lexicon=lexicon)
    # the aspect is read off the text, so texts naming different aspects
    # are scored under different conditioning prefixes
    def token_log_probs(tokens):
        aspect_id = cond._aspect_id(tokens)  # what scoring conditions on
        assert aspect_id == cond.vocab.token_to_id(tokens[-1])
        return one_pair_pass(cond, 1, 1, aspect_id,
                             [cond.vocab.token_to_id(t) for t in tokens])[0]

    a = token_log_probs(["great", "food"])
    b = token_log_probs(["great", "service"])
    assert a[0, 0] != b[0, 0]  # first-step distribution already differs


def _trained_like(model, seed: int):
    """The model with every value replaced by a seeded draw, so a value
    that a load did not copy shows."""
    rng = np.random.default_rng(seed)
    model.store.values[...] = rng.normal(scale=0.3, size=model.store.values.size)
    model.store.step = 5
    return model


def test_checkpoint_round_trip_preserves_behavior(tmp_path, tiny_corpus, lexicon):
    """Build from the roster entry, save, build again and load: every value
    bit, score, rating and text comes back."""
    requests = [(r.user, r.item, r.aspect) for r in tiny_corpus.test[:6]]
    texts = [(r.user, r.item, list(r.tokens)) for r in tiny_corpus.test[:6]]
    for kind, options in (("transformer", dict(embed_dim=16, ffn_dim=32, layers=1, heads=2)),
                          ("transformer", dict(embed_dim=16, ffn_dim=32, layers=1, heads=2,
                                               use_aspect=True)),
                          ("recurrent", dict(embed_dim=16, hidden_dim=24))):
        model = _trained_like(build_kind(kind, tiny_corpus, lexicon, 7, **options), 3)
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(path, model.store, seed=model.seed, config_hash="h")
        back = model_from_checkpoint(path, model.arch, tiny_corpus.vocab, model.num_users,
                                     model.num_items, lexicon)
        assert back.store.step == 5
        assert back.store.layout() == model.store.layout()
        assert back.store.values.dtype == model.store.values.dtype == np.float32
        assert back.store.values.tobytes() == model.store.values.tobytes()
        asked = [(u, i, a if model.conditions_on_aspect else None) for u, i, a in requests]
        assert back.explain_many(asked) == model.explain_many(asked)
        assert back.log_likelihood_many(texts) == model.log_likelihood_many(texts)


def test_a_checkpoint_header_with_a_model_description_loads_bit_exactly(
        tmp_path, tiny_corpus, fresh_transformer):
    """Headers written before the architecture was read from the roster
    entry also hold a `model` description; it is ignored."""
    model = fresh_transformer
    values = np.random.default_rng(4).normal(size=model.store.values.size).astype(np.float32)
    header = {"seed": 7, "step": 9, "config_hash": "h", "parameters": model.store.layout(),
              "model": {"kind": "transformer", "num_users": 10, "num_items": 8,
                        "vocab_size": len(tiny_corpus.vocab),
                        **dataclasses.asdict(model.arch)}}
    path = tmp_path / "parent.ckpt"
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n{json.dumps(header, sort_keys=True)}\n".encode())
        np.lib.format.write_array(fh, values, allow_pickle=False)
    back = model_from_checkpoint(path, model.arch, tiny_corpus.vocab, 10, 8)
    assert back.store.step == 9
    assert back.store.values.tobytes() == values.tobytes()


def test_model_from_checkpoint_validation(tmp_path, tiny_corpus, fresh_transformer):
    """A checkpoint of another vocabulary or width is rejected, naming the
    file and the first parameter that differs."""
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, fresh_transformer.store, seed=1, config_hash="h")
    d, vocab_size = fresh_transformer.arch.embed_dim, len(tiny_corpus.vocab)
    other = Vocab.from_texts([["a"]])
    with pytest.raises(ValueError) as err:
        model_from_checkpoint(path, fresh_transformer.arch, other, 10, 8)
    assert str(err.value) == (f"{path}: parameter 'word.emb' of shape {(vocab_size, d)} where "
                              f"the model has 'word.emb' of shape {(len(other), d)}")
    wider = dataclasses.replace(fresh_transformer.arch, embed_dim=2 * d)
    with pytest.raises(ValueError) as err:
        model_from_checkpoint(path, wider, tiny_corpus.vocab, 10, 8)
    assert str(err.value) == (f"{path}: parameter 'user.emb' of shape {(10, d)} where "
                              f"the model has 'user.emb' of shape {(10, 2 * d)}")


def test_truncated_or_padded_checkpoint_is_rejected(tmp_path, tiny_corpus,
                                                    fresh_transformer):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, fresh_transformer.store, seed=1, config_hash="h")
    header, _ = load_checkpoint(path)
    assert header["parameters"] == fresh_transformer.store.layout()
    names = fresh_transformer.store.names()
    params = {name: fresh_transformer.store[name] for name in names}
    first, second, last = names[0], names[1], names[-1]

    def rejected(changed: dict, message: str, dtype=fresh_transformer.store.dtype) -> None:
        store = ParamStore(dtype)
        for name, values in changed.items():
            store.add(name, values)
        save_checkpoint(path, store, seed=1, config_hash="h")
        with pytest.raises(ValueError, match=message) as err:
            model_from_checkpoint(path, fresh_transformer.arch, tiny_corpus.vocab, 10, 8)
        assert str(path) in str(err.value)

    rejected({name: values for name, values in params.items() if name != last},
             f"missing parameter '{last}'")
    rejected({**params, "extra.w": params[last]}, "unexpected parameter 'extra.w'")
    # the same values under a flattened shape, and two parameters in another order
    name = next(name for name, values in params.items() if values.ndim > 1)
    shape = params[name].shape
    rejected({**params, name: params[name].reshape(-1)},
             re.escape(f"parameter '{name}' of shape {(math.prod(shape),)} where the model "
                       f"has '{name}' of shape {shape}"))
    swapped = {second: params[second], first: params[first]}
    rejected({**swapped, **params}, f"parameter '{second}' .* where the model has '{first}'")
    # the model's layout, in another dtype than the model computes in
    rejected(params, "value array is <f8 but the model computes in <f4", dtype=np.float64)


def test_every_option_a_kind_takes_reaches_the_model(tiny_corpus, lexicon):
    """A kind's settings dataclasses declare its keys: no two share a
    field, each field reaches exactly one built settings object, and the
    objects reach the model or its training."""
    assert KINDS["oracle"].settings == KINDS["random"].settings == ()
    assert {kind for kind, entry in KINDS.items() if entry.model} == {"transformer",
                                                                       "recurrent"}
    for kind, entry in KINDS.items():
        names = [f.name for cls in entry.settings for f in dataclasses.fields(cls)]
        assert len(names) == len(set(names)), kind
        for name in names:
            default = next(getattr(obj, name) for obj in ModelSpec("m", kind).settings
                           if hasattr(obj, name))
            value = not default if type(default) is bool else 2 * default
            spec = ModelSpec("m", kind, ((name, value),))
            carried = [getattr(obj, name, None) == value for obj in spec.settings]
            assert carried.count(True) == 1, (kind, name)
            if entry.model is not None:
                model = entry.build(tiny_corpus, lexicon, 7, *spec.settings)
                assert type(model) is entry.model and model.arch == spec.settings[0]
                # what the train stage hands train_model
                assert type(spec.settings[1]) is TrainConfig
    smoothed = build_kind("unigram", tiny_corpus, lexicon, 7, alpha=5.0)
    plain = build_kind("unigram", tiny_corpus, lexicon, 7)
    assert not np.array_equal(smoothed.log_probs, plain.log_probs)


def test_make_batch_layout(tiny_corpus):
    reviews = tiny_corpus.test[:3]
    batch = make_batch(reviews, tiny_corpus.vocab)
    B = 3
    W = max(len(r.tokens) for r in reviews) + 1
    assert batch.input_ids.shape == batch.target_ids.shape == batch.pad.shape == (B, W)
    for b, r in enumerate(reviews):
        n = len(r.tokens)
        ids = list(tiny_corpus.vocab.encode(r.tokens, append_eos=False))
        assert batch.input_ids[b, 0] == 1  # BOS
        assert list(batch.input_ids[b, 1:n + 1]) == ids
        assert list(batch.target_ids[b, :n + 1]) == ids + [EOS_ID]
        assert not batch.pad[b, :n + 1].any()
        assert batch.pad[b, n + 1:].all()
    assert batch.scored_positions == sum(len(r.tokens) + 1 for r in reviews)
    with pytest.raises(ValueError, match="empty batch"):
        make_batch([], tiny_corpus.vocab)


def test_no_compute_drifts_back_to_float64(tiny_corpus, lexicon, monkeypatch):
    # every node a training step or an inference pass records, and every
    # gradient, stays float32; only the scalar losses are float64. A numpy
    # promotion (a float64 scalar in a float32 product) would show here.
    nodes = []
    record = Tape._record

    def recording(self, value, op, backward):
        nodes.append(record(self, value, op, backward))
        return nodes[-1]

    monkeypatch.setattr(Tape, "_record", recording)
    arch = dict(embed_dim=16, ffn_dim=32, layers=1, heads=2)
    reviews = tiny_corpus.train[:8]
    batch = make_batch(reviews, tiny_corpus.vocab)
    for model in (TransformerModel(TransformerArch(**arch), tiny_corpus.vocab, 10, 8, seed=7),
                  TransformerModel(TransformerArch(**arch, use_aspect=True), tiny_corpus.vocab,
                                   10, 8, seed=7, lexicon=lexicon),
                  RecurrentModel(RecurrentArch(embed_dim=16, hidden_dim=24),
                                 tiny_corpus.vocab, 10, 8, seed=7)):
        nodes.clear()
        tape = Tape()
        nll, mse = model.loss_nodes(tape, batch)
        tape.backward(tape.add(nll, tape.scale(mse, 0.5)))
        grads = tape.param_grads(model.store)
        clip_global_norm(model.store, grads, 5.0)
        model.store.adam_step(grads, 1e-3)
        losses = [n for n in nodes if n.value.shape == ()]
        assert {(n.op, n.value.dtype.name) for n in losses} == {
            (op, "float64") for op in ("softmax_xent", "squared_error", "scale", "add")}
        trained = [n for n in nodes if n.value.shape != ()]
        slots = [n.slot.grad for n in trained if n.slot.grad is not None]
        assert len(slots) > len(model.store.names())
        nodes.clear()
        asked = [(r.user, r.item, r.aspect if model.conditions_on_aspect else None)
                 for r in reviews]
        model.log_likelihood_many([(r.user, r.item, r.tokens) for r in reviews])
        model.explain_many(asked)
        assert {n.op for n in nodes} >= {"affine", "embedding"}
        drift = {(n.op, n.value.dtype.name) for n in trained + nodes
                 if n.value.dtype != np.float32}
        assert drift == set(), type(model).__name__
        assert {g.dtype.name for g in slots} == {"float32"}
        assert {a.dtype.name for a in (grads, model.store.values, *model.store._moments)} \
            == {"float32"}


def test_strip_reserved():
    assert strip_reserved(["<bos>", "nice", "<eos>", "<pad>"]) == ["nice"]


# ----------------------------------------------------------------------
# shared-prefix scoring against the full-pass reference


@pytest.fixture(scope="module")
def wide_models(tiny_corpus, lexicon):
    """Both transformer variants and the GRU at the default width (64) over
    a vocabulary of 68, not a multiple of 8: at that output width a
    product's rows round differently with the number of rows it holds and
    their offset."""
    assert len(tiny_corpus.vocab) == 68
    return (TransformerModel(TransformerArch(), tiny_corpus.vocab, 10, 8, seed=11),
            TransformerModel(TransformerArch(use_aspect=True), tiny_corpus.vocab, 10, 8,
                             seed=12, lexicon=lexicon),
            RecurrentModel(RecurrentArch(), tiny_corpus.vocab, 10, 8, seed=13))


def test_shared_prefix_scoring_equals_full_passes(tiny_corpus, lexicon, wide_models):
    base = [(r.user, r.item, r.tokens) for _, r in tiny_corpus.all_reviews()]
    user, item, _ = base[0]
    # the same texts with their aspect terms dropped name no aspect, so the
    # conditioned model scores them under the UNK prefix
    unnamed = [(u, i, tuple(w for w in t if not lexicon.is_aspect(w))) for u, i, t in base]
    unnamed = [(u, i, t) for u, i, t in unnamed if t]
    cases = {
        "mixed prefixes and repeats": base + unnamed[:30] + base[::3],
        "one prefix over several chunks": [(user, item, t) for _, _, t in base * 3],
        "one-word texts": [(u, i, t[:1]) for u, i, t in base[:20]],
        "one distinct prefix": [(user, item, base[5][2])],
        "a last chunk of one row": (base * 2)[:CHUNK_ROWS + 1],
        "a last chunk of one row, texts naming no aspect":
            (unnamed * 3)[:2 * CHUNK_ROWS + 1],
    }
    assert len(base) < CHUNK_ROWS and len(unnamed) * 3 > 2 * CHUNK_ROWS
    cond = wide_models[1]
    named = {cond._aspect_id(t) for _, _, t in cases["mixed prefixes and repeats"]}
    assert UNK_ID in named and len(named) > 2
    for model in wide_models:
        for label, requests in cases.items():
            assert model.log_likelihood_many(requests) == \
                full_pass_log_likelihoods(model, requests), \
                (type(model).__name__, model.conditions_on_aspect, label)


def test_scoring_validates_before_any_forward_pass(wide_models, monkeypatch):
    users, items = 10, 8
    good = (0, 0, ("the", "food"))
    for model in wide_models:
        bad = [([good, (users, 0, good[2])], "cold-start user"),
               ([good, (0, items, good[2])], "cold-start item"),
               ([good, (0, 0, ())], "cannot score an empty text")]
        if model.word_capacity is not None:
            over = ("the",) * (model.word_capacity + 1)
            bad.append(([good, (0, 0, over)], "33 words exceeds positional capacity"))
            at_capacity = [(0, 0, over[1:])]
            assert model.log_likelihood_many(at_capacity) == full_pass_log_likelihoods(
                model, at_capacity)
        for requests, message in bad:
            # any forward pass would raise something else first
            monkeypatch.setattr(model, "_run", None)
            with pytest.raises(ValueError, match=message):
                model.log_likelihood_many(requests)
            monkeypatch.undo()
        assert model.log_likelihood_many([]) == []
    assert wide_models[2].word_capacity is None


# ----------------------------------------------------------------------
# batched decoding against the full-prefix reference


def one_pair_pass(model, user, item, aspect_id, word_ids):
    """Reference inference: one forward pass of a single (user, item) pair
    over its prefix, BOS and the given words, with the rating head run on
    that one row. Returns (log-probs per position, raw rating)."""
    tape = Tape()
    logits, head_in, _ = model._run(tape, np.array([user]), np.array([item]),
                                    np.array([aspect_id]),
                                    np.array([[BOS_ID] + list(word_ids)], dtype=np.int64))
    store = model.store
    r = tape.nonlin(tape.affine(head_in, tape.param(store, "rate.w1"),
                                tape.param(store, "rate.b1")), "tanh")
    rating = tape.affine(r, tape.param(store, "rate.w2"), tape.param(store, "rate.b2"))
    return log_softmax(logits.value[0]), float(rating.value[0, 0])


def _prefix_aspect_id(model, aspect):
    if model.conditions_on_aspect and aspect is not None:
        return model.vocab.token_to_id(aspect)
    return UNK_ID


def full_prefix_generate(model, user, item, aspect=None):
    """Reference greedy decoder: one forward pass over BOS and every word
    so far for each new word, one pair at a time."""
    aspect_id = _prefix_aspect_id(model, aspect)
    words: list[int] = []
    while len(words) < model.arch.max_len - 1:
        logp, _ = one_pair_pass(model, user, item, aspect_id, words)
        dist = logp[-1].copy()
        dist[PAD_ID] = -np.inf
        dist[BOS_ID] = -np.inf
        nxt = int(np.argmax(dist))
        if nxt == EOS_ID:
            break
        words.append(nxt)
    return [model.vocab.id_to_token(w) for w in words] + [EOS_TOKEN]


def with_max_len(model, max_len: int):
    """A trainable model of the same kind and sizes built with `max_len`,
    holding `model`'s parameters; a transformer's position table keeps the
    rows its smaller capacity has."""
    arch = dataclasses.replace(model.arch, max_len=max_len)
    short = type(model)(arch, model.vocab, model.num_users, model.num_items, model.seed,
                        model.lexicon)
    for name in short.store.names():
        target = short.store[name]
        target[...] = model.store[name][tuple(slice(0, n) for n in target.shape)]
    return short


def texts_of(model, requests) -> list[list[str]]:
    return [tokens for _, tokens in model.explain_many(requests)]


def ratings_of(model, requests) -> list[float]:
    return [rating for rating, _ in model.explain_many(requests)]


@pytest.fixture(scope="module")
def briefly_trained(tiny_corpus):
    """A transformer and a GRU after ten short epochs: each stops its rows at
    mixed lengths, and the GRU's words depend on its carried state."""
    models = (TransformerModel(TransformerArch(embed_dim=16, ffn_dim=32, layers=2,
                                               heads=2),
                               tiny_corpus.vocab, 10, 8, seed=3),
              RecurrentModel(RecurrentArch(embed_dim=16, hidden_dim=24),
                             tiny_corpus.vocab, 10, 8, seed=3))
    for model in models:
        train_model(model, tiny_corpus, TrainConfig(epochs=10, batch_size=8, lr=1e-2,
                                                    patience=10))
    return models


def test_batched_decoding_equals_full_prefix_decoding(
        tiny_corpus, sanity_corpus, fresh_transformer, fresh_recurrent, briefly_trained,
        trained_transformer, trained_conditional):
    tiny = [(r.user, r.item, r.aspect) for r in tiny_corpus.test + tiny_corpus.validation]
    sanity = [(r.user, r.item, r.aspect) for r in sanity_corpus.test[:40]]
    cases = [(fresh_transformer, tiny), (fresh_recurrent, tiny),
             (briefly_trained[0], tiny), (briefly_trained[1], tiny),
             (trained_transformer, sanity), (trained_conditional, sanity)]
    lengths = set()
    for model, requests in cases:
        if not model.conditions_on_aspect:
            requests = [(u, i, None) for u, i, _ in requests]
        for decoder in (with_max_len(model, 1), with_max_len(model, 2), model):
            expect = [full_prefix_generate(decoder, u, i, a) for u, i, a in requests]
            assert texts_of(decoder, requests) == expect
            if decoder is model:
                lengths.update(len(tokens) for tokens in expect)
        u, i, a = requests[0]
        assert generate(model, u, i, aspect=a) == full_prefix_generate(model, u, i, a)
    # some batch had rows stop at different lengths, some at the length cap
    assert len(lengths) > 2 and max(lengths) == 24


def test_a_repeated_prefix_decodes_as_alone(tiny_corpus, sanity_corpus, briefly_trained,
                                            trained_conditional):
    # A call that repeats one prefix decodes each row as the full-prefix
    # reference does, in one call and in shuffled calls of 1, 7 and 64
    # requests.
    rng = np.random.default_rng(24)
    cases = [(briefly_trained[0], tiny_corpus), (trained_conditional, sanity_corpus),
             (briefly_trained[1], tiny_corpus)]
    for model, corpus in cases:
        asked = [(r.user, r.item, r.aspect if model.conditions_on_aspect else None)
                 for r in corpus.test[:16]]
        pool = asked + [asked[0]] * CHUNK_ROWS
        requests = [pool[j] for j in rng.permutation(len(pool))]
        reference = {request: full_prefix_generate(model, *request) for request in asked}
        expect = [reference[request] for request in requests]
        assert texts_of(model, requests) == expect, type(model).__name__
        for size in (1, 7, 64):
            order = rng.permutation(len(requests))
            shuffled = [requests[j] for j in order]
            decoded = [tokens for lo in range(0, len(shuffled), size)
                       for tokens in texts_of(model, shuffled[lo:lo + size])]
            assert decoded == [expect[j] for j in order], (type(model).__name__, size)
    assert len({len(tokens) for tokens in expect}) > 1  # rows stop at mixed lengths


def test_chunked_decoding_equals_one_batch(monkeypatch, tiny_corpus, sanity_corpus,
                                           briefly_trained, trained_transformer):
    tiny = [(r.user, r.item, None) for r in tiny_corpus.test + tiny_corpus.validation]
    tiny = (tiny * (2 * models.CHUNK_ROWS // len(tiny) + 1))[:2 * models.CHUNK_ROWS + 5]
    sanity = [(r.user, r.item, None) for r in sanity_corpus.test[:150]]
    cases = [(briefly_trained[0], tiny), (briefly_trained[1], tiny),
             (trained_transformer, sanity)]
    lengths = set()
    for model, requests in cases:
        assert len(requests) > models.CHUNK_ROWS
        for decoder in (with_max_len(model, 1), with_max_len(model, 2), model):
            chunked = decoder.explain_many(requests)
            with monkeypatch.context() as patch:
                patch.setattr(models, "CHUNK_ROWS", len(requests))
                assert decoder.explain_many(requests) == chunked
            if decoder is model:
                lengths.update(len(tokens) for _, tokens in chunked)
    assert len(lengths) > 2  # rows stopped at mixed lengths


def test_batched_ratings_equal_one_pair_ratings(
        tiny_corpus, sanity_corpus, lexicon, fresh_transformer, fresh_recurrent,
        briefly_trained, trained_transformer, trained_conditional):
    fresh_cond = TransformerModel(
        TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2, use_aspect=True),
        tiny_corpus.vocab, 10, 8, seed=7, lexicon=lexicon)
    tiny = [(r.user, r.item, r.aspect) for r in tiny_corpus.test + tiny_corpus.validation]
    sanity = [(r.user, r.item, r.aspect) for r in sanity_corpus.test[:150]]
    # repeated and reordered pairs, mixed with the rest
    tiny += tiny[::-3]
    cases = [(fresh_transformer, tiny), (fresh_recurrent, tiny), (fresh_cond, tiny),
             (briefly_trained[0], tiny), (briefly_trained[1], tiny),
             (trained_transformer, sanity), (trained_conditional, sanity)]
    for model, requests in cases:
        if not model.conditions_on_aspect:
            requests = [(u, i, None) for u, i, _ in requests]
        expect = [clamp_rating(one_pair_pass(model, u, i, _prefix_aspect_id(model, a), [])[1])
                  for u, i, a in requests]
        assert ratings_of(model, requests) == expect
        assert ratings_of(model, requests[:1]) == expect[:1]
        u, i, a = requests[-1]
        assert predict_rating(model, u, i, aspect=a) == expect[-1]
    with pytest.raises(ValueError, match="cold-start item"):
        fresh_recurrent.explain_many([(0, 0, None), (0, 8, None)])


@pytest.mark.parametrize("width", [68, 96])
def test_prefix_pass_ratings_equal_prefix_and_bos_ratings(tiny_corpus, lexicon, width):
    # the rating head reads the no-word prefix pass, and reads there what
    # one pass over every request's prefix and BOS gives it
    for model in default_width_models(tiny_corpus, lexicon, width):
        aspects = [r.aspect if model.conditions_on_aspect else None
                   for r in tiny_corpus.test + tiny_corpus.validation]
        requests = [(u, i, a) for (u, i), a in zip(itertools.product(range(10), range(8)),
                                                    itertools.cycle(aspects))]
        requests += requests[::-7]  # repeated and reordered pairs
        # the distinct prefixes fill more than one prefix pass
        assert len({(u, i) for u, i, _ in requests}) > CHUNK_ROWS
        assert ratings_of(model, requests) == prefix_bos_ratings(model, requests), \
            (type(model).__name__, model.conditions_on_aspect, width)


def _sum_target_logprobs_reference(lp, word_ids) -> float:
    """One row's target log-probs added by a Python loop over positions."""
    targets = list(word_ids) + [EOS_ID]
    return float(sum(lp[t, tid] for t, tid in enumerate(targets)))


def test_target_gather_equals_the_position_loop():
    rng = np.random.default_rng(12)
    for B, W, V in ((1, 1, 4), (5, 9, 30), (17, 27, 50)):
        lp = log_softmax(rng.normal(size=(B, W, V)) * 4)
        lp[0, 0, 5 % V] = -0.0
        tok_ids = [rng.integers(0, V, size=rng.integers(0, W)).tolist() for _ in range(B)]
        tok_ids[-1] = rng.integers(0, V, size=W - 1).tolist()  # one row fills the width
        _, target_ids, pad = padded_ids(tok_ids)
        got = _sum_target_logprobs(lp, target_ids, pad)
        assert got == [_sum_target_logprobs_reference(lp[b], ids)
                       for b, ids in enumerate(tok_ids)]
        assert all(type(x) is float for x in got)


def test_explain_many_validates_before_any_pass(fresh_transformer, fresh_recurrent,
                                                monkeypatch):
    bad = [(fresh_transformer, [(0, 0, None), (10, 0, None)], "cold-start user"),
           (fresh_recurrent, [(0, 0, None), (0, 8, None)], "cold-start item")]
    for model, requests, message in bad:
        with pytest.raises(ValueError, match=message):
            generate(model, *requests[-1])
        # any forward pass would raise something else first
        monkeypatch.setattr(model, "_run", None)
        with pytest.raises(ValueError, match=message):
            model.explain_many(requests)
        assert model.explain_many([]) == []  # with no forward pass
        monkeypatch.undo()


def test_ratings_take_the_aspects_decoding_takes(tiny_corpus, lexicon, sanity_corpus,
                                                 trained_conditional, fresh_transformer,
                                                 fresh_recurrent, monkeypatch):
    """A request's aspect is checked once, before any forward pass: an
    aspect-conditioned model needs one, any other model takes None. The
    rating and the text of one pair both condition on that aspect."""
    cond = TransformerModel(
        TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2, use_aspect=True),
        tiny_corpus.vocab, 10, 8, seed=7, lexicon=lexicon)
    bad = [(cond, [(0, 0, "food"), (0, 1, None)], "needs a conditioning aspect"),
           (fresh_transformer, [(0, 0, None), (0, 1, "food")], "does not condition"),
           (fresh_recurrent, [(0, 0, None), (0, 1, "food")], "does not condition")]
    for model, requests, message in bad:
        # any forward pass would raise something else first
        monkeypatch.setattr(model, "_run", None)
        with pytest.raises(ValueError, match=message):
            model.explain_many(requests)
        monkeypatch.undo()
    # one (user, item) pair asked under every aspect, twice, in one call
    model = trained_conditional
    requests = [(2, 3, aspect) for aspect in sorted({r.aspect for r in sanity_corpus.train})] * 2
    explained = model.explain_many(requests)
    assert explained == [
        (clamp_rating(one_pair_pass(model, u, i, _prefix_aspect_id(model, a), [])[1]),
         full_prefix_generate(model, u, i, a)) for u, i, a in requests]
    assert len({rating for rating, _ in explained}) > 1


def test_base_predict_rating_many_is_per_pair_predict_rating(tiny_corpus):
    """The ratings explain_many returns for a batch are the per-pair ratings."""
    requests = [(r.user, r.item, None) for r in tiny_corpus.test]
    for model in (OracleModel(tiny_corpus.world), RandomScorer(5, tiny_corpus.vocab),
                  UnigramModel.fit(tiny_corpus, UnigramSettings().alpha), UniformScorer(7)):
        assert [rating for rating, _ in model.explain_many(requests)] == [
            predict_rating(model, u, i) for u, i, _ in requests]
        assert model.explain_many([]) == []


def test_base_generate_many_is_per_pair_generate(tiny_corpus):
    """The texts explain_many returns for a batch are the per-pair texts."""
    requests = [(r.user, r.item, r.aspect) for r in tiny_corpus.test]
    for model in (OracleModel(tiny_corpus.world), RandomScorer(5, tiny_corpus.vocab),
                  UnigramModel.fit(tiny_corpus, UnigramSettings().alpha), UniformScorer(7)):
        assert [tokens for _, tokens in model.explain_many(requests)] == [
            generate(model, u, i, aspect=a) for u, i, a in requests]
        assert model.explain_many([]) == []


# ----------------------------------------------------------------------
# trained behavior (session fixtures)


def test_trained_conditional_echoes_its_aspect(sanity_corpus, lexicon,
                                               trained_conditional):
    test = sanity_corpus.test
    hits = sum(
        extract_aspect(strip_reserved(
            generate(trained_conditional, r.user, r.item, aspect=r.aspect)),
            lexicon) == r.aspect
        for r in test)
    assert hits / len(test) >= 0.8


def test_trained_transformer_prefers_gold_over_shuffled(sanity_corpus,
                                                        trained_transformer):
    rng = np.random.default_rng(5)
    wins = 0
    total = 0
    for r in sanity_corpus.test[:40]:
        shuffled = list(r.tokens)
        rng.shuffle(shuffled)
        if shuffled == list(r.tokens):
            continue
        total += 1
        wins += (perplexity(trained_transformer, r.user, r.item, r.tokens)
                 < perplexity(trained_transformer, r.user, r.item, shuffled))
    assert total > 30
    assert wins / total > 0.9


def test_divergence_error_reports_last_good_epoch(tiny_corpus):
    from rexeval.training import DivergenceError

    model = TransformerModel(TransformerArch(embed_dim=16, ffn_dim=32, layers=1,
                                             heads=2),
                             tiny_corpus.vocab, 10, 8, seed=7)
    model.store["out.b"][:] = np.nan  # first forward pass goes non-finite
    with pytest.raises(DivergenceError, match="epoch 1") as err:
        train_model(model, tiny_corpus, TrainConfig(epochs=3, batch_size=16))
    assert err.value.last_finite_epoch == 0

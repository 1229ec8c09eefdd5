"""Faithfulness and coherence metric behavior against hand oracles."""

import dataclasses
import math
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from rexeval.lexicon import NEGATIVE, RESERVED_TOKENS, UNK_ID, Vocab, classify_polarity
from rexeval.metrics import (BIGRAM_ALPHA, CELLS_BY_KEY, HIGHER, LOWER, AuditWriter,
                             AuxRegressor, BigramLM, EmbeddingTable, MetricResult, _mse,
                             air, cnll_metric, cond_nll_score, entail_metric,
                             entail_proxy, gm_f1_metric, greedy_match_f1,
                             mrr_ae, mrr_ae_eligible, mrr_ae_probes, rmse_metric,
                             tlae, train_aux_regressor,
                             train_cooccurrence_embeddings)
from rexeval.models import (KINDS, OracleModel, RandomScorer, RecurrentArch,
                            RecurrentModel, TransformerArch, TransformerModel)
from rexeval.perturb import sample_distinct, substitute_aspect
from rexeval.training import DivergenceError

from testkit import (UniformScorer, bigram_nll, build_kind, cosine, mrr_random_baseline,
                     regressor_predict)


class _ScriptedScorer:
    """Assigns perplexities via a user-supplied function of the request."""

    def __init__(self, fn):
        self.fn = fn

    def perplexity_many(self, requests):
        return [self.fn(user, item, tokens) for user, item, tokens in requests]


# ----------------------------------------------------------------------
# result container and audit writer


def test_metric_result_validation():
    ok = MetricResult("m", 1.5, count=4, excluded=2, direction=LOWER, config={"k": 3})
    assert ok.attempted == 6
    assert MetricResult.from_dict(ok.to_dict()) == ok
    with pytest.raises(ValueError, match="no evaluated instances"):
        MetricResult("m", 1.0, count=0, excluded=0, direction=LOWER)
    with pytest.raises(ValueError, match="negative excluded"):
        MetricResult("m", 1.0, count=1, excluded=-1, direction=LOWER)
    with pytest.raises(ValueError, match="direction"):
        MetricResult("m", 1.0, count=1, excluded=0, direction="sideways")
    with pytest.raises(ValueError, match="non-finite"):
        MetricResult("m", math.nan, count=1, excluded=0, direction=HIGHER)


def test_audit_writer_formats_rows(tmp_path):
    writer = AuditWriter()
    writer(instance="0:1", flipped=True, score=0.5)
    writer(instance="2:3", flipped=False, score=1.25)
    path = tmp_path / "audit.tsv"
    writer.dump(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["instance\tflipped\tscore", "0:1\t1\t0.5", "2:3\t0\t1.25"]
    empty = tmp_path / "empty.tsv"
    AuditWriter().dump(empty)
    assert empty.read_text(encoding="utf-8") == ""


# ----------------------------------------------------------------------
# sentiment-negation invariance


def test_air_counts_ties_as_invariant(small_corpus, lexicon):
    reviews = small_corpus.test
    result = air(UniformScorer(len(small_corpus.vocab)), reviews, lexicon)
    assert result.value == 100.0
    assert result.direction == HIGHER
    assert result.config == {"min_rating": 4, "source": "ground-truth"}
    assert result.count + result.excluded == sum(r.rating >= 4 for r in reviews)


def test_air_value_matches_flip_count(small_corpus, lexicon):
    reviews = small_corpus.test

    def scripted(user, item, tokens):
        # reward the negated rewrite for even users only
        if classify_polarity(tokens, lexicon) == NEGATIVE and user % 2 == 0:
            return 0.5
        return 2.0

    writer = AuditWriter()
    result = air(_ScriptedScorer(scripted), reviews, lexicon, audit=writer)
    pool = [r for r in reviews if r.rating >= 4]
    flipped = sum(r.user % 2 == 0 for r in pool)
    assert result.value == 100.0 * (1.0 - flipped / len(pool))
    assert result.count == len(pool)
    assert len(writer.rows) == result.count
    assert sum(row["flipped"] for row in writer.rows) == flipped
    assert set(writer.rows[0]) == {"instance", "ppl_original", "ppl_negated", "flipped"}


def test_air_exclusions_and_errors(small_corpus, lexicon):
    reviews = small_corpus.test
    texts = [list(r.tokens) for r in reviews]
    positives = [i for i, r in enumerate(reviews) if r.rating >= 4]
    texts[positives[0]] = []                      # nothing to score
    texts[positives[1]] = ["the", "food"]         # no opinion to negate
    scorer = UniformScorer(len(small_corpus.vocab))
    result = air(scorer, reviews, lexicon, texts=texts, source="generated")
    assert result.excluded == 2
    assert result.count == len(positives) - 2
    assert result.config["source"] == "generated"
    with pytest.raises(ValueError, match="align"):
        air(scorer, reviews, lexicon, texts=texts[:-1])
    with pytest.raises(ValueError, match="empty AIR pool"):
        air(scorer, [r for r in reviews if r.rating < 4], lexicon)


# ----------------------------------------------------------------------
# gold-vs-substituted ranking


def test_mrr_worst_tie_rank_under_uniform_scorer(small_corpus, lexicon):
    reviews = small_corpus.test[:12]
    writer = AuditWriter()
    result = mrr_ae(UniformScorer(len(small_corpus.vocab)),
                    mrr_ae_probes(reviews, lexicon, k=1, seed=0), audit=writer)
    # every candidate ties with the gold, which then takes rank 2
    assert result.value == 50.0
    assert result.count == 12
    assert all(row["rank"] == 2 and row["n_candidates"] == 1 for row in writer.rows)
    assert result.config["k"] == 1


def test_mrr_determinism_and_errors(small_corpus, lexicon):
    reviews = small_corpus.test[:20]
    scorer = RandomScorer(6, small_corpus.vocab)
    a = mrr_ae(scorer, mrr_ae_probes(reviews, lexicon, k=5, seed=2))
    b = mrr_ae(scorer, mrr_ae_probes(reviews, lexicon, k=5, seed=2))
    assert a.value == b.value
    with pytest.raises(ValueError, match="k must be"):
        mrr_ae_probes(reviews, lexicon, k=0, seed=0)
    with pytest.raises(ValueError, match="not enough distinct"):
        mrr_ae_probes(reviews, lexicon, k=len(reviews), seed=0)
    with pytest.raises(ValueError, match="empty review pool"):
        mrr_ae_probes([], lexicon, k=1, seed=0)


def per_gold_mrr_ae(model, reviews, lexicon, *, k, seed):
    """Reference MRR-AE: samples, rewrites and scores one gold at a time.

    Returns the result, one (rank, ppl_gold) pair per gold, and each
    gold's candidate pool indices with their perplexities.
    """
    rr_sum = 0.0
    rows, pools = [], []
    for idx, gold in enumerate(reviews):
        scored = [rewritten(review, gold.aspect, lexicon) for review in reviews]
        eligible = sum(text != gold.tokens for text in scored)
        if eligible == k:
            chosen = [j for j in range(len(reviews)) if scored[j] != gold.tokens]
        else:
            rng = np.random.default_rng([seed, 0x3A3, idx])
            chosen = sample_distinct(rng, len(reviews), k,
                                     lambda j: scored[j] == gold.tokens)
        requests = [(gold.user, gold.item, gold.tokens)]
        requests += [(gold.user, gold.item, scored[j]) for j in chosen]
        ppls = model.perplexity_many(requests)
        ppl_gold = ppls[0]
        rank = 1 + sum(p < ppl_gold for p in ppls[1:]) + sum(p == ppl_gold for p in ppls[1:])
        rr_sum += 1.0 / rank
        rows.append((rank, ppl_gold))
        pools.append(list(zip(chosen, ppls[1:])))
    result = MetricResult("mrr_ae", 100.0 * (rr_sum / len(reviews)), len(reviews), 0,
                          HIGHER, {"k": k, "seed": seed,
                                   "candidate_exclusion": "rewrites-equal-to-gold"})
    return result, rows, pools


def rewritten(review, aspect, lexicon) -> tuple:
    """The text MRR-AE scores for a candidate review under a gold of `aspect`."""
    pair = substitute_aspect(review.tokens, aspect, lexicon)
    return pair.perturbed if pair is not None else review.tokens


def test_mrr_ae_excludes_a_candidate_whose_rewrite_is_the_gold_text(small_corpus, lexicon):
    pool = small_corpus.validation
    # two reviews of the pool differ only in their aspect term: each one's
    # rewrite into the other's aspect is the other's text
    collisions = [(g, j) for g, gold in enumerate(pool) for j, other in enumerate(pool)
                  if other.tokens != gold.tokens
                  and rewritten(other, gold.aspect, lexicon) == gold.tokens]
    assert len(collisions) == 2 and len({r.text for r in pool}) == len(pool)
    k = len(pool) - 2  # the colliding golds have just k candidates left
    probes = mrr_ae_probes(pool, lexicon, k=k, seed=0)
    for g, j in collisions:
        assert j not in probes.pools[g]
        assert len(probes.pools[g]) == k
    assert mrr_ae(OracleModel(small_corpus.world), probes).value == 100.0
    expect = [len(pool) - 2 if any(g == idx for g, _ in collisions) else len(pool) - 1
              for idx in range(len(pool))]
    assert mrr_ae_eligible(pool, lexicon, k) == expect
    # k + 1 candidates exist for the colliding golds only with their collision
    with pytest.raises(ValueError, match=f"not enough distinct candidates: {k} < k={k + 1}"):
        mrr_ae_eligible(pool, lexicon, k + 1)


@pytest.fixture(scope="module")
def pool_with_duplicate(small_corpus):
    """13 reviews, two of which share one text from different (user, item)
    pairs: with k = 11 those two golds take the eligible == k branch and
    the other eleven are sampled."""
    reviews = list(small_corpus.test[:12])
    twin = dataclasses.replace(reviews[3], user=reviews[0].user, item=reviews[5].item)
    return reviews + [twin]


def test_batched_mrr_ae_equals_per_gold_reference(small_corpus, lexicon,
                                                  pool_with_duplicate):
    vocab = small_corpus.vocab
    users, items = small_corpus.world.num_users, small_corpus.world.num_items
    models = (TransformerModel(TransformerArch(embed_dim=16, ffn_dim=32, layers=1, heads=2),
                               vocab, users, items, seed=5),
              RecurrentModel(RecurrentArch(embed_dim=16, hidden_dim=24),
                             vocab, users, items, seed=5))
    cases = [(pool_with_duplicate, 11), (small_corpus.test[:30], 20)]
    for model in models:
        for reviews, k in cases:
            expect, rows, _ = per_gold_mrr_ae(model, reviews, lexicon, k=k, seed=4)
            writer = AuditWriter()
            probes = mrr_ae_probes(reviews, lexicon, k=k, seed=4)
            assert mrr_ae(model, probes, audit=writer) == expect
            assert [(r["rank"], r["ppl_gold"]) for r in writer.rows] == rows
            assert [r["instance"] for r in writer.rows] == [f"{g.user}:{g.item}"
                                                            for g in reviews]
    assert [r["n_candidates"] for r in writer.rows] == [20] * 30


def test_mrr_audit_names_the_lowest_perplexity_impostor(small_corpus, lexicon,
                                                        pool_with_duplicate):
    def scripted(user, item, tokens):
        # distinct pseudo-random perplexities; gold texts win for even users
        text = " ".join(tokens)
        score = 2.0 + zlib.crc32(f"{user}:{item}:{text}".encode()) % 1000 / 1000.0
        return 1.0 if user % 2 == 0 and text in golds else score

    for reviews, k in ((pool_with_duplicate, 11), (small_corpus.test[:30], 20)):
        golds = {r.text for r in reviews}
        scorer = _ScriptedScorer(scripted)
        writer = AuditWriter()
        mrr_ae(scorer, mrr_ae_probes(reviews, lexicon, k=k, seed=1), audit=writer)
        _, rows, pools = per_gold_mrr_ae(scorer, reviews, lexicon, k=k, seed=1)
        for row, (rank, ppl_gold), pool in zip(writer.rows, rows, pools):
            lowest = min(ppl for _, ppl in pool)
            assert row["ppl_best_impostor"] == lowest
            assert row["best_impostor"] == next(j for j, ppl in pool if ppl == lowest)
            assert (rank == 1) == (lowest > ppl_gold)
        assert {row["rank"] for row in writer.rows} != {1}


def test_mrr_ae_from_shared_probes_equals_its_own(small_corpus, lexicon):
    reviews = small_corpus.test[:30]
    probes = mrr_ae_probes(reviews, lexicon, k=12, seed=3)
    kinds = [(name, {}) for name in KINDS] + [("transformer", {"use_aspect": True})]
    for name, options in kinds:
        model = build_kind(name, small_corpus, lexicon, 5, **options)
        own, shared = AuditWriter(), AuditWriter()
        expect = mrr_ae(model, mrr_ae_probes(reviews, lexicon, k=12, seed=3), audit=own)
        assert mrr_ae(model, probes, audit=shared) == expect, name
        assert shared.rows == own.rows, name
    # scoring leaves the shared set as it was built
    assert probes == mrr_ae_probes(reviews, lexicon, k=12, seed=3)


def test_mrr_random_baseline_values():
    assert mrr_random_baseline(1) == pytest.approx(75.0)
    # 100/(k+1) * H(k+1) for k=100
    h = sum(1.0 / r for r in range(1, 102))
    assert mrr_random_baseline(100) == pytest.approx(100.0 * h / 101.0)


# ----------------------------------------------------------------------
# text-only rating regressor and TLAE


def test_regressor_predicts_from_text_alone(small_corpus):
    reg = AuxRegressor(small_corpus.vocab, embed_dim=16, seed=3)
    tokens = list(small_corpus.test[0].tokens)
    single = regressor_predict(reg, tokens)
    assert 1.0 <= single <= 5.0
    many = reg.predict_many([tokens, tokens + ["<eos>"]])
    assert many[0] == single      # reserved tokens are stripped before scoring
    assert many[1] == single
    with pytest.raises(ValueError, match="empty text"):
        regressor_predict(reg, ["<eos>"])


def test_a_text_reads_the_same_bits_alone_and_among_others(small_corpus):
    # the pooling query's softmax adds the keys one after another whatever
    # the padding, neither attention product takes BLAS's gemv path, and
    # the head runs at aligned widths, so a reading does not depend on the
    # texts it is read with; texts of 1 to 40 words pad each other
    reg = train_aux_regressor(small_corpus, embed_dim=32, seed=5)
    texts = [list(r.tokens) for _, r in small_corpus.all_reviews()]
    texts += [(t * 3)[:n] for n, t in enumerate(texts[:40], start=1)]
    alone = [regressor_predict(reg, t) for t in texts]
    assert reg.predict_many(texts).tolist() == alone
    order = np.random.default_rng(5).permutation(len(texts))
    assert reg.predict_many([texts[j] for j in order]).tolist() == [alone[j] for j in order]


def test_regressor_training_learns_the_rating_signal(small_corpus):
    lines = []
    reg = train_aux_regressor(small_corpus, embed_dim=16, seed=5, log=lines.append)
    val_ratings = [float(r.rating) for r in small_corpus.validation]
    mean_train = float(np.mean([r.rating for r in small_corpus.train]))
    baseline = float(np.mean([(v - mean_train) ** 2 for v in val_ratings]))
    assert reg.validation_mse is not None
    assert reg.validation_mse < baseline
    assert lines and lines[0].startswith("regressor epoch 1:")

    # permuting the labels removes the signal the regressor just found
    rng = np.random.default_rng(8)
    permuted = rng.permutation([r.rating for r in small_corpus.train]).tolist()
    shuffled = dataclasses.replace(small_corpus, train=[
        dataclasses.replace(r, rating=rating) for r, rating in zip(small_corpus.train, permuted)])
    control = train_aux_regressor(shuffled, embed_dim=16, seed=5)
    assert control.validation_mse > reg.validation_mse


def test_regressor_training_input_validation(small_corpus):
    with pytest.raises(ValueError, match="empty train split"):
        train_aux_regressor(dataclasses.replace(small_corpus, train=[]), embed_dim=16, seed=0)


def test_regressor_training_raises_on_a_non_finite_validation_mse(small_corpus, monkeypatch):
    # NaN passes np.clip, so a diverged regressor reads NaN on validation
    monkeypatch.setattr(AuxRegressor, "_predict_ids",
                        lambda self, ids: np.full(len(ids), np.nan))
    with pytest.raises(DivergenceError, match="regressor diverged in epoch 1: "
                                              "non-finite validation loss") as err:
        train_aux_regressor(small_corpus, embed_dim=8, seed=0)
    assert err.value.last_finite_epoch == 0


def test_tlae_matches_external_recomputation(small_corpus):
    reg = AuxRegressor(small_corpus.vocab, embed_dim=16, seed=3)
    gens = [(r.user, r.item, list(r.tokens) + ["<eos>"], float(r.rating))
            for r in small_corpus.test[:8]]
    gens.append((0, 0, ["<eos>"], 3.0))  # empty after stripping
    writer = AuditWriter()
    result = tlae(reg, gens, audit=writer)
    preds = reg.predict_many([g[2][:-1] for g in gens[:8]])
    expected = 0.0
    for j, (_, _, _, target) in enumerate(gens[:8]):
        d = float(preds[j]) - target
        expected += d * d
    assert result.value == expected / 8
    assert (result.count, result.excluded) == (8, 1)
    assert result.direction == LOWER
    assert len(writer.rows) == 8
    with pytest.raises(ValueError, match="no generations"):
        tlae(reg, [])
    with pytest.raises(ValueError, match="all generations empty"):
        tlae(reg, [(0, 0, ["<eos>"], 3.0)])


# ----------------------------------------------------------------------
# entailment proxy


def test_entail_proxy_truth_table(lexicon):
    ref = ["the", "food", "was", "great"]
    assert entail_proxy(["great", "food"], ref, lexicon)
    assert not entail_proxy(["great", "service"], ref, lexicon)   # wrong aspect
    assert not entail_proxy(["terrible", "food"], ref, lexicon)   # wrong polarity
    assert not entail_proxy(["simply", "great"], ref, lexicon)    # no aspect named
    assert entail_proxy(["food", "okay"], ["the", "food", "was", "okay"], lexicon)


def test_entail_metric_counts(lexicon):
    ref = ["the", "food", "was", "great"]
    instances = [
        (0, 0, ["great", "food", "<eos>"], ref),
        (0, 1, ["terrible", "food"], ref),
        (1, 0, ["<eos>"], ref),
    ]
    result = entail_metric(instances, lexicon)
    assert result.value == 50.0
    assert (result.count, result.excluded) == (2, 1)
    with pytest.raises(ValueError, match="no instances"):
        entail_metric([], lexicon)
    with pytest.raises(ValueError, match="all generations empty"):
        entail_metric([(0, 0, ["<eos>"], ref)], lexicon)


# ----------------------------------------------------------------------
# greedy embedding matching


def _one_hot_table():
    vocab = Vocab.from_texts([["a", "b", "c"]])
    return EmbeddingTable(vocab, np.eye(len(vocab)))


def test_embedding_table_cosine():
    table = _one_hot_table()
    assert cosine(table, "a", "a") == 1.0
    assert cosine(table, "a", "b") == 0.0
    assert cosine(table, "a", "b") == cosine(table, "b", "a")
    # two distinct pairs computed: (a, a) fills one cell, (a, b) both of its cells
    filled = ~np.isnan(table._table)
    assert filled.sum() == 3 and (filled == filled.T).all()
    vocab = table.vocab
    vectors = np.eye(len(vocab))
    vectors[vocab.token_to_id("c")] = 0.0
    zeroed = EmbeddingTable(vocab, vectors)
    assert cosine(zeroed, "c", "a") == 0.0
    assert cosine(zeroed, "c", "c") == 0.0
    with pytest.raises(ValueError, match="cover the vocabulary"):
        EmbeddingTable(vocab, np.eye(len(vocab) - 1))


def test_greedy_match_f1_hand_case():
    table = _one_hot_table()
    assert greedy_match_f1(["a", "b"], ["a", "c"], table) == (0.5, 0.5, 0.5)
    assert greedy_match_f1(["a"], ["a"], table) == (1.0, 1.0, 1.0)
    assert greedy_match_f1(["b"], ["c"], table) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="empty"):
        greedy_match_f1([], ["a"], table)
    with pytest.raises(ValueError, match="empty"):
        greedy_match_f1(["a"], [], table)


def test_gm_f1_metric_aggregates():
    table = _one_hot_table()
    instances = [
        (0, 0, ["a", "b"], ["a", "c"]),
        (0, 1, ["a"], ["a"]),
        (1, 1, ["<eos>"], ["a"]),
    ]
    writer = AuditWriter()
    result = gm_f1_metric(instances, table, audit=writer)
    assert result.value == (0.5 + 1.0) / 2
    assert (result.count, result.excluded) == (2, 1)
    assert writer.rows[0] == {"instance": "0:0", "precision": 0.5,
                              "recall": 0.5, "f1": 0.5}


def _greedy_match_reference(generated, reference, vectors, vocab):
    """GM-F1 of one pair by per-token cosines, each computed from the
    vectors by the scalar expression (zero-norm rows give 0.0)."""
    norms = np.sqrt((vectors * vectors).sum(axis=1))

    def cosine(a, b):
        lo, hi = sorted((vocab.token_to_id(a), vocab.token_to_id(b)))
        na, nb = norms[lo], norms[hi]
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(vectors[lo] @ vectors[hi] / (na * nb))

    p_total = 0.0
    for g in generated:
        p_total += max(cosine(g, r) for r in reference)
    r_total = 0.0
    for r in reference:
        r_total += max(cosine(r, g) for g in generated)
    precision = p_total / len(generated)
    recall = r_total / len(reference)
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def test_gm_f1_on_token_ids_equals_per_token_cosines(small_corpus):
    table = train_cooccurrence_embeddings(small_corpus, dim=16)
    vocab = table.vocab
    vectors = table.vectors.copy()
    # a zero-norm word and an unseen word in the texts
    vectors[vocab.token_to_id("service")] = 0.0
    table = EmbeddingTable(vocab, vectors)
    rng = np.random.default_rng(8)
    words = vocab.tokens() + ["zzzz"]
    instances = []
    for j, review in enumerate(small_corpus.test[:60]):
        generated = [words[k] for k in rng.integers(0, len(words), size=rng.integers(1, 12))]
        generated += ["service", "<eos>"] if j % 3 == 0 else ["<eos>"]
        instances.append((review.user, review.item, generated, list(review.tokens)))
    instances.append((0, 0, ["<eos>"], ["food"]))  # excluded: no words
    writer = AuditWriter()
    result = gm_f1_metric(instances, table, audit=writer)
    expect = [_greedy_match_reference([t for t in gen if t not in RESERVED_TOKENS], ref,
                                      vectors, vocab)
              for _, _, gen, ref in instances[:-1]]
    assert [(r["precision"], r["recall"], r["f1"]) for r in writer.rows] == expect
    total = 0.0
    for _, _, f1 in expect:
        total += f1
    assert result.value == total / len(expect)
    assert (result.count, result.excluded) == (len(expect), 1) and len(expect) > 30
    for gen, ref in (("food", "service"), ("zzzz", "food"), ("service", "service")):
        assert cosine(table, gen, ref) == _greedy_match_reference([gen], [ref], vectors,
                                                                 vocab)[0]
        assert greedy_match_f1([gen], [ref], table) == _greedy_match_reference(
            [gen], [ref], vectors, vocab)


def test_cooccurrence_embeddings(small_corpus):
    table = train_cooccurrence_embeddings(small_corpus, dim=16)
    assert cosine(table, "food", "food") == pytest.approx(1.0)
    # unseen tokens share the constant unknown-word vector
    assert table.vocab.token_to_id("zzzz") == UNK_ID
    assert cosine(table, "zzzz", "qqqq") == pytest.approx(1.0)
    assert np.linalg.norm(table.vectors[table.vocab.token_to_id("food")]) > 0.0
    bare = SimpleNamespace(vocab=small_corpus.vocab, train=[])
    with pytest.raises(ValueError, match="no co-occurrences"):
        train_cooccurrence_embeddings(bare, dim=16)


# ----------------------------------------------------------------------
# reference-conditioned bigram NLL


def _toy_lm():
    vocab = Vocab.from_texts([["a", "b"]])
    train = [SimpleNamespace(tokens=("a", "b", "a"))]
    return BigramLM.fit(SimpleNamespace(vocab=vocab, train=train))


def test_bigram_lm_hand_counts():
    lm = _toy_lm()
    V = lm.vocab_size
    a = lm.vocab.token_to_id("a")
    b = lm.vocab.token_to_id("b")
    alpha = BIGRAM_ALPHA
    assert lm.unigram_prob(a) == (2 + alpha) / (3 + alpha * V)
    assert lm.unigram_prob(b) == (1 + alpha) / (3 + alpha * V)
    assert lm.bigram_prob(a, b) == (1 + alpha) / (1 + alpha * V)
    assert lm.bigram_prob(b, b) == alpha / (1 + alpha * V)
    expected = -(math.log(lm.unigram_prob(a)) + math.log(lm.bigram_prob(a, b))) / 2
    assert bigram_nll(lm, ["a", "b"]) == pytest.approx(expected, rel=1e-15)


def test_cond_nll_interpolates_with_the_reference():
    lm = _toy_lm()
    # full overlap: the reference transition a->b gets probability one
    hand = -(math.log(lm.unigram_prob(lm.vocab.token_to_id("a")))
             + math.log(0.5 * 1.0 + 0.5 * lm.bigram_prob(
                 lm.vocab.token_to_id("a"), lm.vocab.token_to_id("b")))) / 2
    assert cond_nll_score(["a", "b"], ["a", "b"], lm, 0.5) == pytest.approx(hand, rel=1e-15)
    # no shared context token: identical to the corpus model, bitwise
    assert cond_nll_score(["a", "a"], ["b", "b"], lm, 0.5) == bigram_nll(lm, ["a", "a"])
    assert cond_nll_score(["a", "b"], ["a", "b"], lm, weight=0.0) == bigram_nll(lm, ["a", "b"])
    with pytest.raises(ValueError, match="weight"):
        cond_nll_score(["a"], ["a"], lm, weight=1.5)
    with pytest.raises(ValueError, match="generated"):
        cond_nll_score([], ["a"], lm, 0.5)
    with pytest.raises(ValueError, match="reference"):
        cond_nll_score(["a"], [], lm, 0.5)


def test_cnll_metric_aggregates():
    lm = _toy_lm()
    instances = [
        (0, 0, ["a", "b"], ["a", "b"]),
        (0, 1, ["<eos>"], ["a"]),
        (1, 0, ["b", "a"], ["a", "b"]),
    ]
    result = cnll_metric(instances, lm, weight=0.25)
    expected = (cond_nll_score(["a", "b"], ["a", "b"], lm, 0.25)
                + cond_nll_score(["b", "a"], ["a", "b"], lm, 0.25)) / 2
    assert result.value == expected
    assert (result.count, result.excluded) == (2, 1)
    assert result.direction == LOWER
    assert result.config == {"weight": 0.25}


# ----------------------------------------------------------------------
# rating error


def test_rmse_hand_values():
    assert rmse_metric([(0, 0, 1.0, 2.0), (0, 1, 3.0, 5.0)]).value == math.sqrt((1.0 + 4.0) / 2)
    assert rmse_metric([(0, 0, 2.5, 2.5)]).value == 0.0
    with pytest.raises(ValueError, match="length mismatch"):
        _mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        _mse([], [])
    with pytest.raises(ValueError, match="no instances"):
        rmse_metric([])


def test_cell_reductions_add_in_row_order_from_zero():
    # a compensated sum (math.fsum, or `sum` from Python 3.12 on) keeps
    # the 1.0 and gives 1/3; in-order float additions lose it
    rows = [{column: x for column in ("squared_error", "f1", "score")}
            for x in (1e16, 1.0, -1e16)]
    for key in ("tlae", "tlae_gold", "gm_f1", "cnll"):
        assert CELLS_BY_KEY[key].reduce(rows) == 0.0, key


def test_rmse_metric_clamps_predictions():
    writer = AuditWriter()
    result = rmse_metric([(0, 0, 7.2, 5.0), (0, 1, 0.0, 2.0)], audit=writer)
    assert result.value == math.sqrt((0.0 + 1.0) / 2)
    assert result.count == 2
    assert writer.rows[0]["predicted"] == 5.0
    assert writer.rows[1]["squared_error"] == 1.0
    with pytest.raises(ValueError, match="no instances"):
        rmse_metric([])

"""Acceptance gate: nine end-to-end checks, one pass/fail line each.

Each check prints a verdict on the real stdout (visible even under
pytest's capture) and then asserts it, so a full run always shows nine
lines regardless of which ones hold.
"""

import math
import time

import numpy as np

from rexeval.cli import main
from rexeval.config import ModelSpec, RunConfig
from rexeval.lexicon import NEGATIVE, Vocab, classify_polarity
from rexeval.metrics import (AuditWriter, EmbeddingTable, air, entail_metric,
                             greedy_match_f1, mrr_ae, mrr_ae_probes, rmse, rmse_metric)
from rexeval.models import RandomScorer, UnigramModel, UnigramSettings
from rexeval.perturb import negate_sentiment, substitute_aspect
from rexeval.pipeline import run_pipeline

from test_autodiff import GRAD_CASES, max_grad_error
from test_harness import MICRO_INI
from testkit import (UniformScorer, generate, mrr_random_baseline, perplexity,
                     predict_rating)


def _verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_gradients_match_finite_differences(capsys):
    started = time.perf_counter()
    worst = 0.0
    for _, builder in GRAD_CASES:
        for seed in range(5):
            worst = max(worst, max_grad_error(builder, seed))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(capsys, 1, "autodiff gradients vs central differences", ok,
             f"max rel err {worst:.3e} over {len(GRAD_CASES)} graphs x 5 seeds "
             f"in {elapsed:.1f}s (budget 60s)")


def test_criterion_2_uniform_scorer_perplexity_law(capsys):
    worst = 0.0
    for vocab_size in (2, 50, 1000):
        scorer = UniformScorer(vocab_size)
        for tokens in (["w"], ["w"] * 7, ["a", "b", "c"]):
            ppl = perplexity(scorer, 0, 0, tokens)
            worst = max(worst, abs(ppl - vocab_size) / vocab_size)
    ok = worst <= 1e-9
    _verdict(capsys, 2, "uniform scorer perplexity equals vocabulary size", ok,
             f"max rel err {worst:.2e} for sizes 2, 50, 1000 (tolerance 1e-9)")


def test_criterion_3_random_scorer_sits_at_chance(big_corpus, lexicon, capsys):
    scorer = RandomScorer(55, big_corpus.vocab)
    invariance = air(scorer, big_corpus.test, lexicon)
    ranking = mrr_ae(scorer, mrr_ae_probes(big_corpus.test[:10000], lexicon, k=100, seed=99))
    baseline = mrr_random_baseline(100)
    ok = (invariance.count >= 5000 and abs(invariance.value - 50.0) <= 2.0
          and ranking.count >= 10000 and abs(ranking.value - baseline) <= 0.5)
    _verdict(capsys, 3, "random scorer matches chance calibration", ok,
             f"AIR {invariance.value:.3f} (n={invariance.count}) in 50+-2; "
             f"MRR-AE {ranking.value:.4f} vs baseline {baseline:.4f} "
             f"(n={ranking.count}) within +-0.5")


def test_criterion_4_oracle_sweeps_the_default_pipeline(tmp_path, capsys):
    config = RunConfig(models=(ModelSpec("oracle", "oracle"),),
                       out_dir=str(tmp_path / "run"))
    report = run_pipeline(config)
    cells = report.rows[0].cells
    tlae_bound = 0.05 + report.regressor_validation_mse
    checks = {
        "AIR>=99": cells["air"].value >= 99.0,
        "MRR-AE>=99": cells["mrr_ae"].value >= 99.0,
        "Entail>=99": cells["entail"].value >= 99.0,
        "RMSE<=0.1": cells["rmse"].value <= 0.1,
        "TLAE<=bound": cells["tlae"].value <= tlae_bound,
        "wall<600s": report.wall_time_seconds < 600.0,
    }
    ok = all(checks.values())
    failing = "" if ok else " failing: " + ", ".join(k for k, v in checks.items() if not v)
    _verdict(capsys, 4, "oracle model on the default pipeline", ok,
             f"AIR {cells['air'].value:.2f} MRR-AE {cells['mrr_ae'].value:.2f} "
             f"Entail {cells['entail'].value:.2f} RMSE {cells['rmse'].value:.3f} "
             f"TLAE {cells['tlae'].value:.4f} (bound {tlae_bound:.4f}) "
             f"wall {report.wall_time_seconds:.1f}s{failing}")


def test_criterion_5_trained_models_beat_their_baselines(
        sanity_corpus, trained_transformer, trained_conditional, lexicon, capsys):
    test = sanity_corpus.test
    golds = [float(r.rating) for r in test]
    model_rmse = rmse([predict_rating(trained_transformer, r.user, r.item)
                       for r in test], golds)
    mean_rating = float(np.mean([r.rating for r in sanity_corpus.train]))
    mean_rmse = rmse([mean_rating] * len(test), golds)

    requests = [(r.user, r.item, r.tokens) for r in test]
    model_ppl = float(np.mean(trained_transformer.perplexity_many(requests)))
    unigram_ppl = float(np.mean(
        UnigramModel.fit(sanity_corpus, UnigramSettings().alpha).perplexity_many(requests)))

    conditioned = entail_metric(
        [(r.user, r.item, generate(trained_conditional, r.user, r.item, aspect=r.aspect),
          r.tokens) for r in test], lexicon).value
    unconditioned = entail_metric(
        [(r.user, r.item, generate(trained_transformer, r.user, r.item), r.tokens)
         for r in test], lexicon).value

    ok = (model_rmse < mean_rmse and model_ppl < unigram_ppl
          and conditioned > unconditioned)
    _verdict(capsys, 5, "trained models beat trivial baselines", ok,
             f"RMSE {model_rmse:.3f} < mean-rating {mean_rmse:.3f}; "
             f"perplexity {model_ppl:.2f} < unigram {unigram_ppl:.2f}; "
             f"conditioned Entail {conditioned:.2f} > plain {unconditioned:.2f}")


def test_criterion_6_metrics_match_brute_force_exactly(small_corpus, lexicon, capsys):
    scorer = RandomScorer(13, small_corpus.vocab)

    positives = [r for r in small_corpus.test if r.rating >= 4
                 and negate_sentiment(list(r.tokens), lexicon) is not None][:10]
    assert len(positives) == 10
    flipped = 0
    for review in positives:
        pair = negate_sentiment(list(review.tokens), lexicon)
        ppl_orig = perplexity(scorer, review.user, review.item, pair.original)
        ppl_neg = perplexity(scorer, review.user, review.item, pair.perturbed)
        flipped += ppl_neg < ppl_orig
    air_ok = air(scorer, positives, lexicon).value \
        == 100.0 * (1.0 - flipped / len(positives))

    seen: set = set()
    fixture = [r for r in small_corpus.test
               if r.text not in seen and not seen.add(r.text)][:10]
    assert len(fixture) == 10
    # ten all-distinct texts with k=9 pit every gold against the other nine
    rr_sum = 0.0
    for gold in fixture:
        ppl_gold = perplexity(scorer, gold.user, gold.item, gold.tokens)
        ppls = []
        for other in fixture:
            if other.text == gold.text:
                continue
            pair = substitute_aspect(other.tokens, gold.aspect, lexicon)
            tokens = pair.perturbed if pair is not None else other.tokens
            ppls.append(perplexity(scorer, gold.user, gold.item, tokens))
        rank = 1 + sum(p < ppl_gold for p in ppls) + sum(p == ppl_gold for p in ppls)
        rr_sum += 1.0 / rank
    mrr_ok = mrr_ae(scorer, mrr_ae_probes(fixture, lexicon, k=9, seed=0)).value \
        == 100.0 * (rr_sum / len(fixture))

    vocab = Vocab.from_texts([["ink", "oak", "fig", "ash", "elm"]])
    table = EmbeddingTable(vocab, np.eye(len(vocab)))
    pairs = [
        (["ink"], ["ink"]), (["ink"], ["oak"]), (["ink", "oak"], ["ink", "fig"]),
        (["ink", "oak", "fig"], ["fig"]), (["ash"], ["ash", "elm", "ink"]),
        (["elm", "elm"], ["elm"]), (["oak", "fig"], ["ash", "elm"]),
        (["ink", "ash"], ["ash", "ink"]), (["fig", "oak"], ["oak"]),
        (["elm", "ink", "oak"], ["oak", "fig", "elm"]),
    ]
    gm_ok = True
    for generated, reference in pairs:
        # token identity is the whole truth for one-hot vectors
        precision = sum(1.0 if g in reference else 0.0
                        for g in generated) / len(generated)
        recall = sum(1.0 if r in generated else 0.0
                     for r in reference) / len(reference)
        f1 = 0.0 if precision + recall == 0.0 \
            else 2.0 * precision * recall / (precision + recall)
        gm_ok = gm_ok and greedy_match_f1(generated, reference, table) \
            == (precision, recall, f1)

    instances = [(j, j, 0.75 + 0.5 * j, float(1 + (2 * j) % 5)) for j in range(10)]
    total = 0.0
    for _, _, predicted, gold in instances:
        delta = min(5.0, max(1.0, float(predicted))) - float(gold)
        total += delta * delta
    rmse_ok = rmse_metric(instances).value == math.sqrt(total / len(instances))

    ok = air_ok and mrr_ok and gm_ok and rmse_ok
    _verdict(capsys, 6, "metric values equal brute-force recomputation", ok,
             f"10-instance fixtures bitwise-equal: AIR {air_ok}, MRR-AE {mrr_ok}, "
             f"GM-F1 {gm_ok} (10 text pairs), RMSE {rmse_ok}")


class _SquaredPerplexity:
    """Order-preserving rescale: every probability p becomes p^2."""

    def __init__(self, inner):
        self._inner = inner

    def perplexity_many(self, requests):
        return [p * p for p in self._inner.perplexity_many(requests)]


def test_criterion_7_squaring_probabilities_changes_nothing(sanity_corpus, lexicon, capsys):
    base = RandomScorer(77, sanity_corpus.vocab)
    squared = _SquaredPerplexity(base)

    audit_base, audit_sq = AuditWriter(), AuditWriter()
    air_base = air(base, sanity_corpus.train, lexicon, audit=audit_base)
    air_sq = air(squared, sanity_corpus.train, lexicon, audit=audit_sq)
    flips_equal = [row["flipped"] for row in audit_base.rows] \
        == [row["flipped"] for row in audit_sq.rows]

    reviews = sanity_corpus.train[:120]
    rank_base, rank_sq = AuditWriter(), AuditWriter()
    probes = mrr_ae_probes(reviews, lexicon, k=50, seed=5)
    mrr_base = mrr_ae(base, probes, audit=rank_base)
    mrr_sq = mrr_ae(squared, probes, audit=rank_sq)
    ranks_equal = [row["rank"] for row in rank_base.rows] \
        == [row["rank"] for row in rank_sq.rows]

    ok = (air_base.count >= 100 and mrr_base.count >= 100
          and air_base.value == air_sq.value and flips_equal
          and mrr_base.value == mrr_sq.value and ranks_equal)
    _verdict(capsys, 7, "probability squaring leaves rank metrics untouched", ok,
             f"AIR {air_base.value:.3f} == {air_sq.value:.3f} over "
             f"{air_base.count} instances; MRR-AE {mrr_base.value:.4f} == "
             f"{mrr_sq.value:.4f} over {mrr_base.count} instances")


def test_criterion_8_reruns_are_byte_identical(tmp_path, capsys):
    ini = tmp_path / "micro.ini"
    ini.write_text(MICRO_INI, encoding="utf-8")
    trees = []
    codes = []
    for run in ("one", "two"):
        out = tmp_path / run
        codes.append(main(["run-all", "--config", str(ini),
                           "--out", str(out), "--quiet"]))
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*"))
                      if p.is_file() and p.name != "timing.txt"})
    capsys.readouterr()
    names = set(trees[0])
    ok = (codes == [0, 0] and trees[0] == trees[1]
          and "corpus.tsv" in names and "checkpoints/tiny.ckpt" in names
          and "report.txt" in names)
    _verdict(capsys, 8, "two full runs produce identical bytes", ok,
             f"{len(names)} artifacts (corpus, checkpoints, generations, "
             f"reports, audit logs) compare equal across runs")


def test_criterion_9_negation_always_flips_positive_reviews(default_corpus, lexicon, capsys):
    positives = [r for r in default_corpus.test if r.rating >= 4]
    unperturbable = 0
    flipped = 0
    failures = 0
    for review in positives:
        pair = negate_sentiment(list(review.tokens), lexicon)
        if pair is None:
            unperturbable += 1
        elif classify_polarity(pair.perturbed, lexicon) == NEGATIVE:
            flipped += 1
        else:
            failures += 1
    ok = failures == 0 and flipped > 0
    _verdict(capsys, 9, "sentiment negation flips every perturbable positive", ok,
             f"{flipped}/{flipped + failures} perturbable positives classify "
             f"negative after negation; {unperturbable} unperturbable "
             f"(no opinion words)")

"""Faithfulness and coherence metrics over explanation-generating models.

Faithfulness ranks texts by model perplexity: sentiment-negation
invariance (AIR), mean reciprocal rank of the gold review against
aspect-substituted alternatives (MRR-AE), and agreement between a
text-only rating regressor and the model's own rating (TLAE).
Coherence compares generated text against the gold review: an
aspect+polarity entailment proxy, greedy embedding matching, and a
reference-conditioned bigram NLL. Every metric builds one audit row per
evaluated instance, and `_result` reduces the rows to the cell's value
with its `CELLS` entry's `reduce`, the reduction the audit check applies
to the same rows read back from disk. Reductions add in instance order
from 0.0 with plain float sums, so results do not depend on any worker
scheduling. `CELLS`, at the end, is the one list of report cells, with
their directions, that config, evaluation, report and audit read.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import Tape
from .lexicon import UNK_ID, Lexicon, Vocab, classify_polarity, extract_aspect
from .models import clamp_rating, strip_reserved
from .nn import ParamStore
from .perturb import negate_sentiment, sample_distinct, substitute_aspect
from .training import CHUNK_ROWS, TrainConfig, optimize, padded_ids

HIGHER = "higher"
LOWER = "lower"
AIR_MIN_RATING = 4
# the TLAE regressor's hidden width and training
REGRESSOR_HIDDEN = 32
REGRESSOR_TRAINING = TrainConfig(epochs=12, batch_size=64, lr=3e-3, clip_norm=5.0, patience=3)
EMBEDDING_WINDOW = 2
BIGRAM_ALPHA = 0.1


@dataclass(frozen=True)
class MetricResult:
    """One aggregate number plus the bookkeeping needed to audit it."""

    name: str
    value: float
    count: int
    excluded: int
    direction: str
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"{self.name}: no evaluated instances")
        if self.excluded < 0:
            raise ValueError(f"{self.name}: negative excluded count")
        if self.direction not in (HIGHER, LOWER):
            raise ValueError(f"{self.name}: direction must be higher or lower")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.name}: non-finite value")

    @property
    def attempted(self) -> int:
        return self.count + self.excluded

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "count": self.count,
                "excluded": self.excluded, "direction": self.direction,
                "config": dict(self.config)}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricResult":
        return cls(d["name"], d["value"], d["count"], d["excluded"],
                   d["direction"], dict(d.get("config", {})))


def _result(name: str, rows: list[dict], excluded: int, config: dict, audit) -> MetricResult:
    """Cell `name`'s result: its reduction of the audit rows, which go to
    `audit`, when one is given, in order."""
    cell = CELLS_BY_KEY[name]
    if audit is not None:
        for row in rows:
            audit(**row)
    return MetricResult(name, cell.reduce(rows), len(rows), excluded, cell.direction, config)


class AuditWriter:
    """Collects one row per evaluated instance and writes them as TSV."""

    def __init__(self):
        self.rows: list[dict] = []

    def __call__(self, **fields) -> None:
        self.rows.append(fields)

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if not self.rows:
                return
            columns = list(self.rows[0])
            fh.write("\t".join(columns) + "\n")
            for row in self.rows:
                fh.write("\t".join(self._format(row[c]) for c in columns) + "\n")


# ----------------------------------------------------------------------
# faithfulness: sentiment-negation invariance


def air(model, reviews, lexicon: Lexicon, *, texts=None, source: str = "ground-truth",
        name: str = "air", audit=None) -> MetricResult:
    """Percentage of positive reviews (rated AIR_MIN_RATING or more) whose
    sentiment-negated rewrite does NOT receive strictly lower perplexity;
    ties count as invariant."""
    if texts is not None and len(texts) != len(reviews):
        raise ValueError("texts must align with reviews")
    pool = []
    excluded = 0
    for idx, review in enumerate(reviews):
        if review.rating < AIR_MIN_RATING:
            continue
        tokens = list(texts[idx]) if texts is not None else list(review.tokens)
        if not tokens:
            excluded += 1
            continue
        pair = negate_sentiment(tokens, lexicon)
        if pair is None:
            excluded += 1
            continue
        pool.append((review, pair))
    if not pool:
        raise ValueError("empty AIR pool")
    requests = [(review.user, review.item, text) for review, pair in pool
                for text in (pair.original, pair.perturbed)]
    ppls = model.perplexity_many(requests)
    rows = [{"instance": f"{review.user}:{review.item}", "ppl_original": ppls[2 * j],
             "ppl_negated": ppls[2 * j + 1], "flipped": ppls[2 * j + 1] < ppls[2 * j]}
            for j, (review, _) in enumerate(pool)]
    return _result(name, rows, excluded, {"min_rating": AIR_MIN_RATING, "source": source},
                   audit)


# ----------------------------------------------------------------------
# faithfulness: gold-vs-substituted-candidates ranking


class MrrProbes(NamedTuple):
    """What MRR-AE scores, whatever the model: each gold's candidate pool
    indices, and the (user, item, tokens) requests, each gold followed by
    its candidates rewritten to the gold aspect."""

    k: int
    seed: int
    pools: list[list[int]]
    requests: list[tuple]


def _exclusions(reviews, lexicon: Lexicon, k: int) -> tuple[list, list, list[int]]:
    """(candidate keys, gold keys, eligible counts) of an MRR-AE pool. A
    candidate key is the text with its aspect terms blanked (None); a gold
    key is that, or None if the text names an aspect not its own. Aspect
    rewrites replace every aspect term, so a candidate scores as exactly
    the gold text when its key is the gold key."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not reviews:
        raise ValueError("empty review pool")
    blanked = [tuple(None if lexicon.is_aspect(t) else t for t in r.tokens) for r in reviews]
    golds = [key if all(t == r.aspect for t, b in zip(r.tokens, key) if b is None) else None
             for r, key in zip(reviews, blanked)]
    counts = Counter(blanked)
    eligible = [len(reviews) - counts[key] for key in golds]
    for count in eligible:
        if count < k:
            raise ValueError(f"not enough distinct candidates: {count} < k={k}")
    return blanked, golds, eligible


def mrr_ae_eligible(reviews, lexicon: Lexicon, k: int) -> list[int]:
    """Each gold's number of eligible candidates: the pool less those whose
    rewrite into the gold's aspect (themselves, if they name none) is the
    gold text. Raises ValueError unless every gold has at least k."""
    return _exclusions(reviews, lexicon, k)[2]


def mrr_ae_probes(reviews, lexicon: Lexicon, *, k: int, seed: int) -> MrrProbes:
    """Every gold's candidates and the texts MRR-AE scores for them.

    Candidates are drawn from the review pool, with one seeded generator
    per gold, less those `mrr_ae_eligible` excludes. Candidates without
    any aspect term are used unchanged, and each (candidate, aspect)
    rewrite is computed once.
    """
    blanked, golds, eligible = _exclusions(reviews, lexicon, k)
    rewrites: dict[tuple[int, str], tuple[str, ...]] = {}
    pools = []
    requests = []
    for idx, gold in enumerate(reviews):
        if eligible[idx] == k:
            chosen = [j for j in range(len(reviews)) if blanked[j] != golds[idx]]
        else:
            rng = np.random.default_rng([seed, 0x3A3, idx])
            chosen = sample_distinct(rng, len(reviews), k,
                                     lambda j: blanked[j] == golds[idx])
        pools.append(chosen)
        requests.append((gold.user, gold.item, gold.tokens))
        for j in chosen:
            text = rewrites.get((j, gold.aspect))
            if text is None:
                pair = substitute_aspect(reviews[j].tokens, gold.aspect, lexicon)
                text = pair.perturbed if pair is not None else reviews[j].tokens
                rewrites[j, gold.aspect] = text
            requests.append((gold.user, gold.item, text))
    return MrrProbes(k, seed, pools, requests)


def mrr_ae(model, probes: MrrProbes, *, audit=None) -> MetricResult:
    """Mean reciprocal rank (x100) of each gold review ranked by perplexity
    against the k candidates carrying its aspect that `mrr_ae_probes` drew.

    The gold takes the worst rank among ties. Audit rows name the best
    impostor: the pool index of the lowest-perplexity candidate (the
    first drawn among equals) and its perplexity. All texts are scored in
    one `perplexity_many` call, so several models can share one probe set.
    """
    ppls = model.perplexity_many(probes.requests)
    rows = []
    start = 0
    for chosen in probes.pools:
        user, item, _ = probes.requests[start]
        ppl_gold = ppls[start]
        others = ppls[start + 1:start + 1 + len(chosen)]
        start += 1 + len(chosen)
        rank = 1 + sum(p <= ppl_gold for p in others)
        best = min(range(len(others)), key=others.__getitem__)
        rows.append({"instance": f"{user}:{item}", "rank": rank,
                     "reciprocal_rank": 1.0 / rank, "ppl_gold": ppl_gold,
                     "n_candidates": len(chosen), "best_impostor": chosen[best],
                     "ppl_best_impostor": others[best]})
    return _result("mrr_ae", rows, 0, {"k": probes.k, "seed": probes.seed,
                                       "candidate_exclusion": "rewrites-equal-to-gold"}, audit)


# ----------------------------------------------------------------------
# faithfulness: text-label agreement


class AuxRegressor:
    """Attention-pooled text-only rating regressor.

    Word embeddings are pooled by a learned attention query and fed to
    a small feed-forward head; the input is text alone, so predictions
    cannot depend on who wrote the review or about what item.
    """

    def __init__(self, vocab: Vocab, embed_dim: int, seed: int):
        self.vocab = vocab
        self.embed_dim = embed_dim
        rng = np.random.default_rng([seed, 0xA0C])
        store = ParamStore()
        store.add_uniform("word.emb", (len(vocab), embed_dim), rng)
        store.add_uniform("query", (embed_dim,), rng)
        store.add_uniform("head.w1", (embed_dim, REGRESSOR_HIDDEN), rng)
        store.add_zeros("head.b1", (REGRESSOR_HIDDEN,))
        store.add_uniform("head.w2", (REGRESSOR_HIDDEN, 1), rng)
        store.add_zeros("head.b2", (1,))
        self.store = store
        self.validation_mse: float | None = None

    def _run(self, tape: Tape, ids):
        """The unclamped readings of rows of word ids that `_encode` gives."""
        input_ids, _, pad = padded_ids(ids)
        input_ids, pad = input_ids[:, 1:], pad[:, 1:]  # without the BOS column
        store = self.store
        emb = tape.embedding(tape.param(store, "word.emb"), input_ids)
        query = tape.broadcast(tape.param(store, "query"),
                               (input_ids.shape[0], 1, self.embed_dim))
        mask = (~pad)[:, None, :]
        pooled = tape.index(tape.attention(query, emb, emb, mask, 1), np.s_[:, 0])
        h = tape.nonlin(tape.affine(pooled, tape.param(store, "head.w1"),
                                    tape.param(store, "head.b1")), "tanh")
        return tape.affine(h, tape.param(store, "head.w2"), tape.param(store, "head.b2"))

    def _encode(self, texts) -> list:
        """Word ids of texts without their reserved tokens."""
        ids = [self.vocab.encode(strip_reserved(tokens), append_eos=False) for tokens in texts]
        if not all(len(row) for row in ids):
            raise ValueError("cannot score empty text")
        return ids

    def predict_many(self, texts) -> np.ndarray:
        """Readings in [1, 5], CHUNK_ROWS texts a pass; a text reads the same
        bits alone or among any others (`autodiff.attention_forward`)."""
        return self._predict_ids(self._encode(texts))

    def _predict_ids(self, ids) -> np.ndarray:
        out = np.empty(len(ids), dtype=np.float64)
        for start in range(0, len(ids), CHUNK_ROWS):
            chunk = ids[start:start + CHUNK_ROWS]
            raw = self._run(Tape(grad=False), chunk).value[:, 0]
            out[start:start + len(chunk)] = np.clip(raw, 1.0, 5.0)
        return out


def train_aux_regressor(corpus, *, embed_dim: int, seed: int, log=None) -> AuxRegressor:
    """Fit the text-only regressor on the train split through the models'
    optimiser loop (`training.optimize`) with REGRESSOR_TRAINING, selecting
    the epoch with the best validation MSE."""
    if not corpus.train:
        raise ValueError("empty train split")
    reg = AuxRegressor(corpus.vocab, embed_dim, seed)
    train_ids = reg._encode([r.tokens for r in corpus.train])
    train_targets = np.array([r.rating for r in corpus.train], dtype=np.float64)
    val_ids = reg._encode([r.tokens for r in corpus.validation])
    val_targets = [float(r.rating) for r in corpus.validation]
    # center the head at the mean target so the [1, 5] clamp is not
    # saturated at init and validation selection sees progress immediately
    reg.store["head.b2"][:] = float(train_targets.mean())
    rng = np.random.default_rng([seed, 0xA0C, 1])

    def batches():
        order = rng.permutation(len(train_ids))
        for start in range(0, len(train_ids), REGRESSOR_TRAINING.batch_size):
            rows = order[start:start + REGRESSOR_TRAINING.batch_size]
            yield [train_ids[j] for j in rows], train_targets[rows].reshape(-1, 1)

    def loss(tape, batch):
        ids, targets = batch
        return tape.squared_error(reg._run(tape, ids), targets)

    def validate(epoch):
        val_mse = _mse(reg._predict_ids(val_ids), val_targets)
        if log is not None:
            log(f"regressor epoch {epoch}: val mse {val_mse:.4f}")
        return val_mse, val_mse

    _, reg.validation_mse = optimize(reg.store, REGRESSOR_TRAINING, batches, loss, validate,
                                     "regressor")
    return reg


def _mse(predicted, gold) -> float:
    """Mean squared error, the squares added in input order."""
    predicted = [float(x) for x in predicted]
    gold = [float(x) for x in gold]
    if len(predicted) != len(gold):
        raise ValueError(f"length mismatch: {len(predicted)} vs {len(gold)}")
    if not predicted:
        raise ValueError("mse of empty input")
    total = 0.0
    for p, g in zip(predicted, gold):
        d = p - g
        total += d * d
    return total / len(predicted)


def per_generation(instances, rows_of) -> tuple[list[dict], int]:
    """The audit rows of (user, item, generated, other) instances.

    Reserved tokens are dropped from each generated text, and a text left
    empty is excluded and counted. `rows_of(kept)` gives the audit fields
    of each kept (words, other) pair, in order; each row is its instance
    followed by those fields. Returns (rows, excluded).
    """
    kept = []
    excluded = 0
    for user, item, generated, other in instances:
        words = strip_reserved(generated)
        if words:
            kept.append((f"{user}:{item}", words, other))
        else:
            excluded += 1
    if not kept:
        raise ValueError("all generations empty")
    fields = rows_of([(words, other) for _, words, other in kept])
    return [{"instance": key, **f} for (key, _, _), f in zip(kept, fields)], excluded


def tlae(regressor: AuxRegressor, generations, *, target: str = "model-rating",
         name: str = "tlae", audit=None) -> MetricResult:
    """MSE between the regressor's reading of each generated text and the
    target rating; empty generations are excluded and counted."""
    if not generations:
        raise ValueError("no generations to score")

    def rows_of(kept):
        preds = regressor.predict_many([words for words, _ in kept])
        for pred, (_, rating) in zip(preds.tolist(), kept):
            d = pred - float(rating)
            yield {"regressor_rating": pred, "target_rating": float(rating),
                   "squared_error": d * d}

    rows, excluded = per_generation(generations, rows_of)
    return _result(name, rows, excluded, {"target": target}, audit)


# ----------------------------------------------------------------------
# coherence: aspect+polarity entailment proxy


def entail_proxy(generated, reference, lexicon: Lexicon) -> bool:
    """True iff both texts name the same aspect and carry the same polarity."""
    gen_aspect = extract_aspect(generated, lexicon)
    if gen_aspect is None or gen_aspect != extract_aspect(reference, lexicon):
        return False
    return classify_polarity(generated, lexicon) == classify_polarity(reference, lexicon)


def entail_metric(instances, lexicon: Lexicon, audit=None) -> MetricResult:
    """Percentage of (user, item, generated, reference) instances entailed;
    empty generations are excluded and counted."""
    if not instances:
        raise ValueError("no instances to score")
    rows, excluded = per_generation(instances, lambda kept: (
        {"entailed": entail_proxy(words, list(reference), lexicon)}
        for words, reference in kept))
    return _result("entail", rows, excluded, {}, audit)


# ----------------------------------------------------------------------
# coherence: greedy embedding matching


class EmbeddingTable:
    """Token vectors with cached pairwise cosine similarity.

    Cosines live in a dense (V, V) table indexed by token id, filled
    lazily: each distinct pair is computed once, by one scalar expression,
    and written to both of its cells.
    """

    def __init__(self, vocab: Vocab, vectors: np.ndarray):
        if vectors.shape[0] != len(vocab):
            raise ValueError("vectors must cover the vocabulary")
        self.vocab = vocab
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self._norms = np.sqrt((self.vectors * self.vectors).sum(axis=1))
        self._table: np.ndarray | None = None  # NaN marks a pair not computed yet

    def _fill(self, ia: int, ib: int) -> None:
        lo, hi = (ia, ib) if ia <= ib else (ib, ia)
        na = self._norms[lo]
        nb = self._norms[hi]
        if na == 0.0 or nb == 0.0:
            value = 0.0
        else:
            value = float(self.vectors[lo] @ self.vectors[hi] / (na * nb))
        self._table[lo, hi] = self._table[hi, lo] = value

    def cosine_matrix(self, a_ids, b_ids) -> np.ndarray:
        """(len(a_ids), len(b_ids)) cosines between two token-id sequences."""
        if self._table is None:
            self._table = np.full((len(self.vocab), len(self.vocab)), np.nan)
        a_ids = np.asarray(a_ids, dtype=np.intp)
        b_ids = np.asarray(b_ids, dtype=np.intp)
        block = self._table[np.ix_(a_ids, b_ids)]
        missing = np.isnan(block)
        if missing.any():
            rows, cols = np.nonzero(missing)
            for ia, ib in zip(a_ids[rows].tolist(), b_ids[cols].tolist()):
                if math.isnan(self._table[ia, ib]):  # not filled by an earlier pair
                    self._fill(ia, ib)
            block = self._table[np.ix_(a_ids, b_ids)]
        return block


def train_cooccurrence_embeddings(corpus, dim: int) -> EmbeddingTable:
    """PPMI co-occurrence factorization over the train split.

    Counts are collected in a +-EMBEDDING_WINDOW window around each token,
    the positive PMI matrix is factorized by SVD, and each component is
    sign-normalized so the decomposition is reproducible. The UNK row
    is a constant vector so unseen tokens still have a direction.
    """
    vocab = corpus.vocab
    V = len(vocab)
    counts = np.zeros((V, V), dtype=np.float64)
    for review in corpus.train:
        ids = vocab.encode(review.tokens, append_eos=False)
        for pos, tid in enumerate(ids):
            lo = max(0, pos - EMBEDDING_WINDOW)
            for ctx in ids[lo:pos]:
                counts[tid, ctx] += 1
                counts[ctx, tid] += 1
    total = counts.sum()
    if total == 0:
        raise ValueError("no co-occurrences in the train split")
    row = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(counts * total / np.outer(row, row))
    pmi[~np.isfinite(pmi)] = 0.0
    ppmi = np.maximum(pmi, 0.0)
    u, s, _ = np.linalg.svd(ppmi)
    dim = min(dim, len(s))
    vectors = u[:, :dim] * np.sqrt(s[:dim])
    for col in range(dim):
        anchor = int(np.argmax(np.abs(vectors[:, col])))
        if vectors[anchor, col] < 0:
            vectors[:, col] = -vectors[:, col]
    vectors[UNK_ID] = 1.0 / math.sqrt(dim)
    return EmbeddingTable(vocab, vectors)


def greedy_match_f1(generated, reference, table: EmbeddingTable) -> tuple[float, float, float]:
    """Greedy token matching by cosine: precision over generated tokens,
    recall over reference tokens, and their harmonic mean."""
    gen_ids = table.vocab.encode(generated, append_eos=False)
    ref_ids = table.vocab.encode(reference, append_eos=False)
    if not len(gen_ids) or not len(ref_ids):
        raise ValueError("cannot match empty text")
    cos = table.cosine_matrix(gen_ids, ref_ids)
    # the best matches are added one at a time, in token order
    p_total = 0.0
    for best in cos.max(axis=1).tolist():
        p_total += best
    r_total = 0.0
    for best in cos.max(axis=0).tolist():
        r_total += best
    precision = p_total / len(gen_ids)
    recall = r_total / len(ref_ids)
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def gm_f1_metric(instances, table: EmbeddingTable, audit=None) -> MetricResult:
    """Mean greedy-match F1 over (user, item, generated, reference) instances."""
    if not instances:
        raise ValueError("no instances to score")
    rows, excluded = per_generation(instances, lambda kept: (
        dict(zip(("precision", "recall", "f1"), greedy_match_f1(words, reference, table)))
        for words, reference in kept))
    return _result("gm_f1", rows, excluded, {}, audit)


# ----------------------------------------------------------------------
# coherence: reference-conditioned NLL


class BigramLM:
    """Add-BIGRAM_ALPHA bigram language model over the corpus vocabulary."""

    def __init__(self, vocab: Vocab, counts: np.ndarray, unigram: np.ndarray):
        self.vocab = vocab
        self._bigram = counts
        self._context = counts.sum(axis=1)
        self._unigram = unigram
        self._uni_total = float(unigram.sum())
        self._alpha_mass = BIGRAM_ALPHA * self.vocab_size  # what smoothing adds to a total

    @classmethod
    def fit(cls, corpus) -> "BigramLM":
        vocab = corpus.vocab
        V = len(vocab)
        counts = np.zeros((V, V), dtype=np.float64)
        unigram = np.zeros(V, dtype=np.float64)
        for review in corpus.train:
            ids = vocab.encode(review.tokens, append_eos=False)
            for tid in ids:
                unigram[tid] += 1
            for prev, nxt in zip(ids[:-1], ids[1:]):
                counts[prev, nxt] += 1
        return cls(vocab, counts, unigram)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def unigram_prob(self, tid: int) -> float:
        return (self._unigram[tid] + BIGRAM_ALPHA) / (self._uni_total + self._alpha_mass)

    def bigram_prob(self, prev: int, tid: int) -> float:
        return (self._bigram[prev, tid] + BIGRAM_ALPHA) / (self._context[prev] + self._alpha_mass)


def cond_nll_score(generated, reference, lm: BigramLM, weight: float) -> float:
    """Mean NLL of the generated text under the corpus bigram model
    interpolated with the reference's own bigram statistics.

    The reference model only contributes where the current context token
    actually occurs as a context in the reference, so a generation
    sharing no token with the reference scores exactly the corpus NLL.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be in [0, 1]")
    generated = list(generated)
    reference = list(reference)
    if not generated:
        raise ValueError("cannot score empty generated text")
    if not reference:
        raise ValueError("cannot score empty reference text")
    ref_ids = lm.vocab.encode(reference, append_eos=False).tolist()
    ref_counts: dict[int, Counter] = {}
    for prev, nxt in zip(ref_ids[:-1], ref_ids[1:]):
        ref_counts.setdefault(prev, Counter())[nxt] += 1
    ids = lm.vocab.encode(generated, append_eos=False).tolist()
    total = -math.log(lm.unigram_prob(ids[0]))
    for prev, tid in zip(ids[:-1], ids[1:]):
        p = lm.bigram_prob(prev, tid)
        transitions = ref_counts.get(prev)
        if transitions is not None:
            ref_p = transitions[tid] / sum(transitions.values())
            p = weight * ref_p + (1.0 - weight) * p
        total += -math.log(p)
    return total / len(ids)


def cnll_metric(instances, lm: BigramLM, weight: float, audit=None) -> MetricResult:
    """Mean conditioned NLL over (user, item, generated, reference) instances."""
    if not instances:
        raise ValueError("no instances to score")
    rows, excluded = per_generation(instances, lambda kept: (
        {"score": cond_nll_score(words, list(reference), lm, weight)}
        for words, reference in kept))
    return _result("cnll", rows, excluded, {"weight": weight}, audit)


# ----------------------------------------------------------------------
# recommendation error


def rmse_metric(instances, audit=None) -> MetricResult:
    """RMSE over (user, item, predicted, gold) rating instances, the
    predictions clamped to [1, 5]."""
    if not instances:
        raise ValueError("no instances to score")
    rows = []
    for user, item, predicted, gold in instances:
        predicted, gold = clamp_rating(predicted), float(gold)
        d = predicted - gold
        rows.append({"instance": f"{user}:{item}", "predicted": predicted, "gold": gold,
                     "squared_error": d * d})
    return _result("rmse", rows, 0, {}, audit)


# ----------------------------------------------------------------------
# the metric cells


class CellInputs(NamedTuple):
    """What cells compute from. `model` is set only when a selected cell
    scores with it, `gens` (the model's (user, item, rating, tokens) rows,
    aligned with the pool) only when one reads them."""

    pool: list
    lexicon: Lexicon
    settings: object  # config.MetricSettings
    seed: int
    helpers: dict
    model: object = None
    gens: list | None = None


def _beside_gold(c: CellInputs, column: int, gold: str) -> list:
    """(user, item, generation column, gold review attribute) per pool row;
    column 2 of a generation row is the model's rating, column 3 its tokens."""
    return [(row[0], row[1], row[column], getattr(review, gold))
            for row, review in zip(c.gens, c.pool)]


def _mean(rows: list[dict], column: str) -> float:
    """One column's mean, added in row order from 0.0; not with `sum`,
    which compensates its float additions from Python 3.12 on."""
    total = 0.0
    for r in rows:
        total += float(r[column])
    return total / len(rows)


# what cells share within one evaluation, built once, in this order, when a
# selected cell names it: (corpus, CellInputs without helpers, log) -> helper
HELPERS = {
    "regressor": lambda corpus, c, log: train_aux_regressor(
        corpus, embed_dim=c.settings.embed_dim, seed=c.seed, log=log),
    "embeddings": lambda corpus, c, log: train_cooccurrence_embeddings(
        corpus, dim=c.settings.embed_dim),
    "bigram": lambda corpus, c, log: BigramLM.fit(corpus),
    "mrr_probes": lambda corpus, c, log: mrr_ae_probes(c.pool, c.lexicon, k=c.settings.k,
                                                       seed=c.seed),
}


class Cell(NamedTuple):
    """One report column: what selects it, what it reads, how it is
    computed and shown, and which way is better. `reduce` is the cell's
    one reduction: `_result` applies it to the audit rows the metric
    builds to give the reported value, and the audit check applies it to
    the same rows read back from disk."""

    key: str  # results and audit key
    metric: str  # config metric name that selects it
    # (CellInputs, audit) -> MetricResult, calling the metric through its
    # module-level name so that a rebinding of the name is seen
    compute: Callable
    header: str  # the report adds the direction's arrow
    direction: str  # HIGHER or LOWER
    fmt: str
    reduce: Callable[[list[dict]], float]  # audit rows -> value
    modes: tuple[str, tuple[str, ...]] | None = None  # (setting, values that turn it on)
    scores_model: bool = False
    reads_gens: bool = False
    helper: str | None = None  # key of HELPERS


# every metric cell, in report column order
CELLS = (
    Cell("air", "air",
         lambda c, a: air(c.model, c.pool, c.lexicon, source="ground-truth", audit=a),
         "AIR", HIGHER, "{:.2f}", lambda rows: 100.0 * (1.0 - _mean(rows, "flipped")),
         modes=("air_mode", ("ground-truth", "both")), scores_model=True),
    Cell("air_generated", "air",
         lambda c, a: air(c.model, c.pool, c.lexicon, source="generated", audit=a,
                          texts=[strip_reserved(t) for _, _, _, t in c.gens],
                          name="air_generated"),
         "AIR-gen", HIGHER, "{:.2f}", lambda rows: 100.0 * (1.0 - _mean(rows, "flipped")),
         modes=("air_mode", ("generated", "both")), scores_model=True, reads_gens=True),
    Cell("mrr_ae", "mrr_ae",
         lambda c, a: mrr_ae(c.model, c.helpers["mrr_probes"], audit=a),
         "MRR-AE", HIGHER, "{:.2f}", lambda rows: 100.0 * _mean(rows, "reciprocal_rank"),
         scores_model=True, helper="mrr_probes"),
    Cell("tlae", "tlae",
         lambda c, a: tlae(c.helpers["regressor"], [(u, i, t, r) for u, i, r, t in c.gens],
                           target="model-rating", audit=a),
         "TLAE", LOWER, "{:.3f}", lambda rows: _mean(rows, "squared_error"),
         modes=("tlae_mode", ("model-rating", "both")), reads_gens=True, helper="regressor"),
    Cell("tlae_gold", "tlae",
         lambda c, a: tlae(c.helpers["regressor"], _beside_gold(c, 3, "rating"),
                           target="gold-rating", name="tlae_gold", audit=a),
         "TLAE-gold", LOWER, "{:.3f}", lambda rows: _mean(rows, "squared_error"),
         modes=("tlae_mode", ("gold-rating", "both")), reads_gens=True, helper="regressor"),
    Cell("entail", "entail",
         lambda c, a: entail_metric(_beside_gold(c, 3, "tokens"), c.lexicon, audit=a),
         "Entail", HIGHER, "{:.2f}",
         lambda rows: 100.0 * sum(int(r["entailed"]) for r in rows) / len(rows),
         reads_gens=True),
    Cell("gm_f1", "gm_f1",
         lambda c, a: gm_f1_metric(_beside_gold(c, 3, "tokens"), c.helpers["embeddings"],
                                   audit=a),
         "GM-F1", HIGHER, "{:.3f}", lambda rows: _mean(rows, "f1"),
         reads_gens=True, helper="embeddings"),
    Cell("cnll", "cnll",
         lambda c, a: cnll_metric(_beside_gold(c, 3, "tokens"), c.helpers["bigram"],
                                  weight=c.settings.cnll_weight, audit=a),
         "CNLL", LOWER, "{:.3f}", lambda rows: _mean(rows, "score"),
         reads_gens=True, helper="bigram"),
    Cell("rmse", "rmse",
         lambda c, a: rmse_metric(_beside_gold(c, 2, "rating"), audit=a),
         "RMSE", LOWER, "{:.3f}", lambda rows: math.sqrt(_mean(rows, "squared_error")),
         reads_gens=True),
)
CELLS_BY_KEY = {cell.key: cell for cell in CELLS}
METRIC_NAMES = tuple(dict.fromkeys(cell.metric for cell in CELLS))  # in column order


def selected_cells(settings) -> list[Cell]:
    """The cells the settings turn on, in column order."""
    return [cell for cell in CELLS if cell.metric in settings.metrics
            and (cell.modes is None or getattr(settings, cell.modes[0]) in cell.modes[1])]

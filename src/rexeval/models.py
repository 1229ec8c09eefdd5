"""Joint review-rating models sharing one batched interface.

Every model answers two questions, each over a list of requests and in
request order: the rating it predicts for each (user, item, aspect)
together with the explanation it writes for it, and how likely each
(user, item, text) is under it. Perplexity is derived from the second
and is the only quantity the ranking metrics consume, so any object
implementing the interface can be evaluated.

Trainable models are composed purely from the tape primitives in
`autodiff` and compute in float32 (`NeuralRecommender.dtype`). What
leaves them is float64: log-likelihoods are sums of float64
log-probabilities, and ratings are float64 copies of the rating head's
output. Training records each batch on a tape that backward
consumes; inference (scoring, ratings, decoding) runs the same ops on a
fresh inference tape per pass (`Tape(grad=False)`), which records no
steps, so a pass keeps no intermediate it no longer reads and
concurrent reads share no mutable state. A trained model is built from
its roster entry (`KINDS`) as an untrained one is; its checkpoint
supplies only the values (`nn.load_into`).
"""

from __future__ import annotations

import abc
import dataclasses
import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .autodiff import Tape, log_softmax
from .lexicon import BOS_ID, EOS_ID, PAD_ID, UNK_ID, RESERVED_TOKENS, Vocab, extract_aspect
from .nn import ParamStore
from .training import CHUNK_ROWS, Batch, TrainConfig, length_order, padded_ids

EOS_TOKEN = RESERVED_TOKENS[EOS_ID]


def strip_reserved(tokens) -> list[str]:
    return [t for t in tokens if t not in RESERVED_TOKENS]


def clamp_rating(x: float) -> float:
    """x clamped to [1, 5]; a NaN or an infinity is an error, not a bound."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite rating {x!r}")
    return float(min(5.0, max(1.0, x)))


def _unit(*parts) -> float:
    """Deterministic hash of the parts mapped into the open interval (0, 1)."""
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(), digest_size=8)
    return (int.from_bytes(digest.digest(), "big") + 0.5) / 2.0 ** 64


def _nonempty(requests) -> list:
    """The (user, item, tokens) requests as a list, once no text is empty:
    every model's scoring rejects an empty text here, before it scores any.
    The texts themselves are not copied."""
    requests = list(requests)
    for _, _, tokens in requests:
        if not tokens:
            raise ValueError("cannot score an empty text")
    return requests


class ExplainableRecommender(abc.ABC):
    """Explanation (a rating with the text written for it) and text
    scoring, each answered for a list of requests, in request order."""

    conditions_on_aspect = False

    @abc.abstractmethod
    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        """(rating, explanation tokens) per (user, item, aspect) request:
        the rating in [1, 5], the tokens ending with the EOS marker. The
        aspect is None for models that do not condition on one."""

    @abc.abstractmethod
    def log_likelihood_many(self, requests) -> list[float]:
        """Sum of per-token log-probabilities, EOS included, per (user, item,
        tokens) request; always <= 0. An empty text anywhere in the list
        raises ValueError before any text is scored."""

    def perplexity_many(self, requests) -> list[float]:
        """exp(-log_likelihood / T) per (user, item, tokens) request, with T
        counting scored positions (words + EOS). Each text is read where
        it is, as a list or tuple of tokens, and not copied."""
        requests = list(requests)
        lls = self.log_likelihood_many(requests)
        return [float(np.exp(-ll / (len(tokens) + 1)))
                for (_, _, tokens), ll in zip(requests, lls)]


def _sum_target_logprobs(lp: np.ndarray, target_ids, pad) -> list[float]:
    """Per row b, the sum of lp[b, t, target_ids[b, t]] over its unpadded t.

    lp is (B, W, V); the targets and the pad mask are (B, W), as
    `padded_ids` builds them. The targets are read with one gather, and
    each row is added left to right from 0.0, as a Python loop over the
    positions would: `np.cumsum` adds sequentially, where `np.sum` would
    add pairwise. Padded positions are zeroed and come last, so they leave
    the sum unchanged.
    """
    B, W = target_ids.shape
    picked = np.zeros((B, W + 1))  # column 0 is the 0.0 each sum starts from
    picked[:, 1:] = np.where(pad, 0.0, lp[np.arange(B)[:, None], np.arange(W), target_ids])
    return np.cumsum(picked, axis=1)[:, -1].tolist()


# ----------------------------------------------------------------------
# trainable models


class NeuralRecommender(ExplainableRecommender):
    """Inference shared by the trainable models.

    Each architecture supplies its parameters and `_run(tape, users,
    items, aspect_ids, input_ids, past=None)`, which returns (logits,
    head input, state). Without `past` it runs the (user, item[, aspect])
    prefix and then `input_ids`, and the head input is the node the rating
    head reads. With `past`, the state of an earlier call, it continues
    that sequence and the head input is None. A state is a tuple of arrays
    with one row per request (a transformer's keys and values per layer,
    a GRU's hidden state), so this class gathers, drops and concatenates
    its rows itself. Inference starts from `_shared_prefixes`, one no-word
    pass over each distinct prefix of a call: ratings read its head
    inputs, and scoring and decoding continue from its state.
    """

    word_capacity: int | None = None  # most words a scored text may hold; None: no limit
    dtype = np.dtype(np.float32)  # of the parameter store, hence of all compute

    def __init__(self, arch, vocab: Vocab, num_users: int, num_items: int, seed: int,
                 lexicon=None):
        self.arch = arch
        self.vocab = vocab
        self.num_users = num_users
        self.num_items = num_items
        self.seed = seed
        self.lexicon = lexicon

    @abc.abstractmethod
    def _run(self, tape: Tape, users, items, aspect_ids, input_ids, past=None):
        """(logits (B, W, V), head input or None, state tuple). Outside
        training only `_shared_prefixes` calls it without `past`; every
        other inference pass continues from the state that one gives."""

    def _rating_head(self, tape: Tape, h):
        """Raw (B, 1) rating from the head input rows."""
        store = self.store
        r = tape.nonlin(tape.affine(h, tape.param(store, "rate.w1"),
                                    tape.param(store, "rate.b1")), "tanh")
        return tape.affine(r, tape.param(store, "rate.w2"), tape.param(store, "rate.b2"))

    def loss_nodes(self, tape: Tape, batch: Batch):
        logits, head_in, _ = self._run(tape, batch.users, batch.items,
                                       batch.aspect_ids, batch.input_ids)
        rating = self._rating_head(tape, head_in)
        nll = tape.softmax_xent(logits, batch.target_ids, batch.pad)
        mse = tape.squared_error(rating, batch.ratings.reshape(-1, 1))
        return nll, mse

    def _aspect_id(self, tokens) -> int:
        """Aspect id the prefix of a scored text conditions on: the first
        aspect the text names, else UNK; always UNK for unconditioned
        models."""
        if not self.conditions_on_aspect:
            return UNK_ID
        aspect = extract_aspect(tokens, self.lexicon)
        return self.vocab.token_to_id(aspect) if aspect is not None else UNK_ID

    def _decode_aspect_id(self, aspect: str | None) -> int:
        """Aspect id of a (user, item, aspect) request: its aspect for an
        aspect-conditioned model, which needs one, and UNK for a model
        that does not condition on aspects, which takes None."""
        if self.conditions_on_aspect:
            if aspect is None:
                raise ValueError("aspect-conditioned model needs a conditioning aspect")
            return self.vocab.token_to_id(aspect)
        if aspect is not None:
            raise ValueError("model does not condition on aspects")
        return UNK_ID

    def _prefixes(self, requests, aspect_id) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """User, item and aspect-id arrays of (user, item, x) requests, the
        aspect id being `aspect_id(x)`; all validated before any forward
        pass."""
        users = np.empty(len(requests), dtype=np.int64)
        items = np.empty(len(requests), dtype=np.int64)
        aspects = np.empty(len(requests), dtype=np.int64)
        for b, (user, item, x) in enumerate(requests):
            if not 0 <= user < self.num_users:
                raise ValueError(f"cold-start user id {user}")
            if not 0 <= item < self.num_items:
                raise ValueError(f"cold-start item id {item}")
            users[b], items[b], aspects[b] = user, item, aspect_id(x)
        return users, items, aspects

    def _shared_prefixes(self, users, items, aspects):
        """Runs each distinct (user, item, aspect id) prefix once through
        `_run`, with no words and CHUNK_ROWS prefixes at a time so the
        working set stays bounded. Returns (which, head inputs, state):
        request row j has the prefix of row `which[j]` of the other two."""
        distinct, which = np.unique(np.stack([users, items, aspects], axis=1), axis=0,
                                    return_inverse=True)
        heads, states = [], []
        for lo in range(0, len(distinct), CHUNK_ROWS):
            p = distinct[lo:lo + CHUNK_ROWS]
            _, head_in, state = self._run(Tape(grad=False), p[:, 0], p[:, 1], p[:, 2],
                                          np.empty((len(p), 0), dtype=np.int64))
            heads.append(head_in.value)
            states.append(state)
        return (which.reshape(-1), np.concatenate(heads),
                tuple(np.concatenate(rows) for rows in zip(*states)))

    def log_likelihood_many(self, requests) -> list[float]:
        """Batched scoring in request order.

        Every request is checked first, and each distinct text is encoded,
        and the aspect it names read, once per call. `_shared_prefixes`
        then runs the prefixes of the whole call, and requests are chunked
        in `length_order` of token count, so a chunk holds texts of similar
        length and pads little; each chunk continues from its rows'
        gathered prefix state. Right-padding never reaches a scored
        position. Every product runs by `autodiff.matmul`'s rule, on two
        rows or more and at an aligned width, so on the measured BLAS a
        text scores the same bits in any chunk;
        the chunks are a pure function of the request list in any case.
        """
        requests = _nonempty(requests)
        if not requests:
            return []
        encoded: dict[tuple, tuple[np.ndarray, int]] = {}  # text -> (word ids, aspect id)

        def text(tokens) -> tuple[np.ndarray, int]:
            key = tokens if type(tokens) is tuple else tuple(tokens)  # a tuple is not copied
            found = encoded.get(key)
            if found is None:
                found = encoded[key] = (self.vocab.encode(key, append_eos=False),
                                        self._aspect_id(key))
            return found

        users, items, aspects = self._prefixes(requests, lambda tokens: text(tokens)[1])
        lengths = [len(tokens) for _, _, tokens in requests]
        longest = max(lengths)
        if self.word_capacity is not None and longest > self.word_capacity:
            raise ValueError(f"text of {longest} words exceeds positional capacity")
        which, _, state = self._shared_prefixes(users, items, aspects)
        order = length_order(lengths)
        out = np.empty(len(requests))
        for start in range(0, len(order), CHUNK_ROWS):
            rows = order[start:start + CHUNK_ROWS]
            input_ids, target_ids, pad = padded_ids([text(requests[j][2])[0] for j in rows])
            out[rows] = self._ll_chunk(input_ids, target_ids, pad,
                                       tuple(a[which[rows]] for a in state))
        return out.tolist()

    def _ll_chunk(self, input_ids, target_ids, pad, past) -> list[float]:
        # a method of its own, so one chunk's logits are freed before the next
        # chunk's are built
        logits, _, _ = self._run(Tape(grad=False), None, None, None, input_ids, past=past)
        return _sum_target_logprobs(log_softmax(logits.value), target_ids, pad)

    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        """Ratings and greedy explanations in request order. All requests
        are validated before any forward pass, and `_shared_prefixes` runs
        the prefixes of the whole call once. The rating head runs once
        over every request, on that pass's head inputs, and each
        CHUNK_ROWS chunk of requests decodes from its rows' gathered
        prefix state, so neither a row's rating nor its tokens depend on
        the other rows (see `log_likelihood_many`)."""
        users, items, aspects = self._prefixes(list(requests), self._decode_aspect_id)
        if not len(users):
            return []
        which, heads, state = self._shared_prefixes(users, items, aspects)
        tape = Tape(grad=False)
        rating = self._rating_head(tape, tape.leaf(heads[which]))
        if self.arch.max_len < 2:
            texts = [[EOS_TOKEN] for _ in users]
        else:
            texts = []
            for lo in range(0, len(users), CHUNK_ROWS):
                texts += self._decode_chunk(tuple(a[which[lo:lo + CHUNK_ROWS]] for a in state))
        return [(clamp_rating(r), tokens) for r, tokens in zip(rating.value[:, 0].tolist(), texts)]

    def _decode_chunk(self, past) -> list[list[str]]:
        """Greedy explanations for the rows of one chunk's prefix state,
        decoded side by side.

        Each pass feeds one token per row still decoding, BOS first, and
        continues from the state without the rows that stopped. A row
        stops at EOS or after max_len - 1 words; either way its tokens end
        with the EOS marker.
        """
        n = len(past[0])
        words: list[list[int]] = [[] for _ in range(n)]
        alive = np.arange(n)
        nxt = np.full(n, BOS_ID, dtype=np.int64)
        while True:
            logits, _, past = self._run(Tape(grad=False), None, None, None, nxt[:, None],
                                        past=past)
            dist = log_softmax(logits.value[:, -1])
            dist[:, PAD_ID] = -np.inf
            dist[:, BOS_ID] = -np.inf
            nxt = np.argmax(dist, axis=1)
            going = nxt != EOS_ID
            alive, nxt = alive[going], nxt[going]
            for row, wid in zip(alive.tolist(), nxt.tolist()):
                words[row].append(wid)
            if not alive.size or len(words[alive[0]]) >= self.arch.max_len - 1:
                return [[self.vocab.id_to_token(w) for w in ids] + [EOS_TOKEN] for ids in words]
            if not going.all():
                past = tuple(a[going] for a in past)


def _check_sizes(arch) -> None:
    """Every int field of an architecture is a size: at least 1."""
    for field in dataclasses.fields(arch):
        value = getattr(arch, field.name)
        if type(value) is int and value < 1:
            raise ValueError(f"{field.name} must be >= 1")


@dataclass(frozen=True)
class TransformerArch:
    embed_dim: int = 64
    ffn_dim: int = 256
    layers: int = 2
    heads: int = 4
    max_len: int = 24
    rating_hidden: int = 64
    use_aspect: bool = False

    def __post_init__(self):
        _check_sizes(self)
        if self.embed_dim % self.heads:
            raise ValueError(f"heads ({self.heads}) must divide embed_dim ({self.embed_dim})")


class TransformerModel(NeuralRecommender):
    """Decoder with a fully visible (user, item[, aspect]) prefix.

    Word positions attend causally; every position sees the whole
    prefix. The rating head reads the final representation at the item
    position, which by the mask can only depend on the prefix, so rating
    predictions are independent of any decoded words.
    """

    def __init__(self, arch: TransformerArch, vocab: Vocab, num_users: int,
                 num_items: int, seed: int, lexicon=None):
        if arch.use_aspect and lexicon is None:
            raise ValueError("aspect-conditioned model needs a lexicon")
        super().__init__(arch, vocab, num_users, num_items, seed, lexicon)
        self.conditions_on_aspect = arch.use_aspect
        self.prefix_len = 3 if arch.use_aspect else 2
        self.word_capacity = arch.max_len + 8
        self._masks: dict[int, np.ndarray] = {}

        d = arch.embed_dim
        rng = np.random.default_rng([seed, 0x7F0])
        store = ParamStore(self.dtype)
        store.add_uniform("user.emb", (num_users, d), rng)
        store.add_uniform("item.emb", (num_items, d), rng)
        store.add_uniform("word.emb", (len(vocab), d), rng)
        store.add_uniform("pos.emb", (self.prefix_len + 1 + self.word_capacity, d), rng)
        for layer in range(arch.layers):
            p = f"l{layer}."
            store.add_ones(p + "ln1.gain", (d,))
            store.add_zeros(p + "ln1.bias", (d,))
            for proj in ("wq", "wk", "wv", "wo"):
                store.add_uniform(p + proj, (d, d), rng)
                store.add_zeros(p + proj.replace("w", "b"), (d,))
            store.add_ones(p + "ln2.gain", (d,))
            store.add_zeros(p + "ln2.bias", (d,))
            store.add_uniform(p + "ffn.w1", (d, arch.ffn_dim), rng)
            store.add_zeros(p + "ffn.b1", (arch.ffn_dim,))
            store.add_uniform(p + "ffn.w2", (arch.ffn_dim, d), rng)
            store.add_zeros(p + "ffn.b2", (d,))
        store.add_ones("final.gain", (d,))
        store.add_zeros("final.bias", (d,))
        store.add_uniform("out.w", (d, len(vocab)), rng)
        store.add_zeros("out.b", (len(vocab),))
        store.add_uniform("rate.w1", (d, arch.rating_hidden), rng)
        store.add_zeros("rate.b1", (arch.rating_hidden,))
        store.add_uniform("rate.w2", (arch.rating_hidden, 1), rng)
        store.add_zeros("rate.b2", (1,))
        self.store = store

    def _mask(self, L: int) -> np.ndarray:
        mask = self._masks.get(L)
        if mask is None:
            q = np.arange(L)[:, None]
            k = np.arange(L)[None, :]
            mask = ((k < self.prefix_len) | (k <= q))[None, :, :]
            self._masks[L] = mask
        return mask

    def _run(self, tape: Tape, users, items, aspect_ids, input_ids, past=None):
        """Forward pass; returns (logits, item representation, kv).

        `kv` holds the keys and then the values of each layer, (B, L, D)
        each, for every position run so far. Without `past` the positions
        are the prefix then `input_ids`. With `past`, the `kv` of an
        earlier call, only `input_ids` are run: they continue that sequence
        and attend over the cached keys and values. The rating head reads
        the final representation at the item position, so it is None then.
        """
        B, W = input_ids.shape
        start = 0 if past is None else past[0].shape[1]
        L = (self.prefix_len if past is None else start) + W
        if L - self.prefix_len - 1 > self.word_capacity:
            raise ValueError(f"text of {L - self.prefix_len - 1} words exceeds "
                             "positional capacity")
        store = self.store
        word_table = tape.param(store, "word.emb")
        pieces = []
        if past is None:
            pieces.append(tape.embedding(tape.param(store, "user.emb"), users[:, None]))
            pieces.append(tape.embedding(tape.param(store, "item.emb"), items[:, None]))
            if self.arch.use_aspect:
                pieces.append(tape.embedding(word_table, aspect_ids[:, None]))
        pieces.append(tape.embedding(word_table, input_ids))
        x = tape.concat(pieces, axis=1) if past is None else pieces[0]
        pos = tape.embedding(tape.param(store, "pos.emb"), np.arange(start, L))
        x = tape.add(x, tape.broadcast(pos, (B, L - start, self.arch.embed_dim)))
        mask = self._mask(L)[:, start:]
        kv = ()
        for layer in range(self.arch.layers):
            p = f"l{layer}."
            a_in = tape.layer_norm(x, tape.param(store, p + "ln1.gain"),
                                   tape.param(store, p + "ln1.bias"))
            q = tape.affine(a_in, tape.param(store, p + "wq"), tape.param(store, p + "bq"))
            k = tape.affine(a_in, tape.param(store, p + "wk"), tape.param(store, p + "bk"))
            v = tape.affine(a_in, tape.param(store, p + "wv"), tape.param(store, p + "bv"))
            if past is not None:
                k = tape.concat([tape.leaf(past[2 * layer]), k], axis=1)
                v = tape.concat([tape.leaf(past[2 * layer + 1]), v], axis=1)
            kv += (k.value, v.value)
            att = tape.attention(q, k, v, mask, self.arch.heads)
            x = tape.add(x, tape.affine(att, tape.param(store, p + "wo"),
                                        tape.param(store, p + "bo")))
            f_in = tape.layer_norm(x, tape.param(store, p + "ln2.gain"),
                                   tape.param(store, p + "ln2.bias"))
            h = tape.nonlin(tape.affine(f_in, tape.param(store, p + "ffn.w1"),
                                        tape.param(store, p + "ffn.b1")), "relu")
            x = tape.add(x, tape.affine(h, tape.param(store, p + "ffn.w2"),
                                        tape.param(store, p + "ffn.b2")))
        xf = tape.layer_norm(x, tape.param(store, "final.gain"), tape.param(store, "final.bias"))
        out_w, out_b = tape.param(store, "out.w"), tape.param(store, "out.b")
        if past is not None:
            return tape.affine(xf, out_w, out_b), None, kv
        words = tape.index(xf, np.s_[:, self.prefix_len:L])
        return tape.affine(words, out_w, out_b), tape.index(xf, np.s_[:, 1]), kv


@dataclass(frozen=True)
class RecurrentArch:
    embed_dim: int = 64
    hidden_dim: int = 128
    max_len: int = 24
    rating_hidden: int = 64

    def __post_init__(self):
        _check_sizes(self)


class RecurrentModel(NeuralRecommender):
    """GRU decoder whose initial state is derived from [user; item].

    The rating head is a feed-forward network on the same [user; item]
    concatenation, so ratings do not depend on decoded words.
    """

    def __init__(self, arch: RecurrentArch, vocab: Vocab, num_users: int,
                 num_items: int, seed: int, lexicon=None):
        super().__init__(arch, vocab, num_users, num_items, seed, lexicon)
        d, H = arch.embed_dim, arch.hidden_dim
        rng = np.random.default_rng([seed, 0x6F0])
        store = ParamStore(self.dtype)
        store.add_uniform("user.emb", (num_users, d), rng)
        store.add_uniform("item.emb", (num_items, d), rng)
        store.add_uniform("word.emb", (len(vocab), d), rng)
        store.add_uniform("init.w", (2 * d, H), rng)
        store.add_zeros("init.b", (H,))
        for gate in ("wz", "wr", "wn"):
            store.add_uniform(f"gru.{gate}", (d + H, H), rng)
            store.add_zeros(f"gru.{gate.replace('w', 'b')}", (H,))
        store.add_uniform("out.w", (H, len(vocab)), rng)
        store.add_zeros("out.b", (len(vocab),))
        store.add_uniform("rate.w1", (2 * d, arch.rating_hidden), rng)
        store.add_zeros("rate.b1", (arch.rating_hidden,))
        store.add_uniform("rate.w2", (arch.rating_hidden, 1), rng)
        store.add_zeros("rate.b2", (1,))
        self.store = store

    def _run(self, tape: Tape, users, items, aspect_ids, input_ids, past=None):
        """Forward pass; returns (logits, [user; item], (last hidden state,)).

        Without `past` the recurrence starts from the [user; item] state,
        which the rating head also reads; given no words, the logits are
        None and that initial state is the one returned. With `past`, the
        state of an earlier call, it continues that sequence, and the head
        input is None. The GRU does not condition on aspects.
        """
        store = self.store
        if past is None:
            u_e = tape.embedding(tape.param(store, "user.emb"), users)
            i_e = tape.embedding(tape.param(store, "item.emb"), items)
            ui = tape.concat([u_e, i_e], axis=1)
            h = tape.nonlin(tape.affine(ui, tape.param(store, "init.w"),
                                        tape.param(store, "init.b")), "tanh")
        else:
            ui = None
            h = tape.leaf(past[0])
        emb = tape.embedding(tape.param(store, "word.emb"), input_ids)
        gate_params = [tape.param(store, n) for n in
                       ("gru.wz", "gru.bz", "gru.wr", "gru.br", "gru.wn", "gru.bn")]
        states = []
        for t in range(input_ids.shape[1]):
            x_t = tape.index(emb, np.s_[:, t])
            h = tape.gru_cell(x_t, h, *gate_params)
            states.append(h)
        if not states:
            return None, ui, (h.value,)
        hseq = tape.stack(states, axis=1)
        logits = tape.affine(hseq, tape.param(store, "out.w"), tape.param(store, "out.b"))
        return logits, ui, (h.value,)


# ----------------------------------------------------------------------
# reference scorers


class OracleModel(ExplainableRecommender):
    """Regenerates ground truth from the synthetic world.

    Its own text scores log-likelihood zero (perplexity one); any other
    text gets a strictly negative, hash-determined score, so ranking
    metrics should saturate on it.
    """

    def __init__(self, world):
        from .corpus import render_review  # local import to avoid a cycle
        if world is None:
            raise ValueError("the oracle needs a generated corpus with a saved world")
        self._render = render_review
        self.world = world
        self._cache: dict[tuple[int, int], object] = {}

    def _gold(self, user: int, item: int):
        key = (user, item)
        review = self._cache.get(key)
        if review is None:
            review = self._render(self.world, user, item)
            self._cache[key] = review
        return review

    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        return [(float(gold.rating), list(gold.tokens) + [EOS_TOKEN])
                for gold in (self._gold(user, item) for user, item, _ in requests)]

    def log_likelihood_many(self, requests) -> list[float]:
        out = []
        for user, item, tokens in _nonempty(requests):
            gold = self._gold(user, item).tokens
            if len(tokens) == len(gold) and all(map(operator.eq, tokens, gold)):
                out.append(0.0)
            else:
                out.append(-1.0 - _unit(self.world.seed, "oracle", user, item, " ".join(tokens)))
        return out


class RandomScorer(ExplainableRecommender):
    """Seeded i.i.d. scores per (user, item, text); pure, hence memoized."""

    def __init__(self, seed: int, vocab: Vocab):
        self.seed = seed
        self.vocab = vocab

    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        words = self.vocab.tokens()
        out = []
        for user, item, _ in requests:
            rng = np.random.default_rng([self.seed, user, item])
            n = int(rng.integers(3, 9))
            out.append((1.0 + 4.0 * _unit(self.seed, "rating", user, item),
                        [words[int(rng.integers(len(words)))] for _ in range(n)] + [EOS_TOKEN]))
        return out

    def log_likelihood_many(self, requests) -> list[float]:
        return [float(np.log(_unit(self.seed, "ll", user, item, " ".join(tokens))))
                for user, item, tokens in _nonempty(requests)]


@dataclass(frozen=True)
class UnigramSettings:
    alpha: float = 0.1  # add-alpha smoothing of the token counts

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


class UnigramModel(ExplainableRecommender):
    """Add-alpha unigram baseline fit on the training split."""

    def __init__(self, log_probs: np.ndarray, mean_rating: float, vocab: Vocab):
        self.log_probs = log_probs
        self.mean_rating = mean_rating
        self.vocab = vocab

    @classmethod
    def fit(cls, corpus, alpha: float) -> "UnigramModel":
        vocab = corpus.vocab
        counts = np.zeros(len(vocab), dtype=np.float64)
        for review in corpus.train:
            for tid in vocab.encode(review.tokens, append_eos=True):
                counts[tid] += 1
        log_probs = np.log((counts + alpha) / (counts.sum() + alpha * len(vocab)))
        mean_rating = float(np.mean([r.rating for r in corpus.train]))
        return cls(log_probs, mean_rating, vocab)

    def explain_many(self, requests) -> list[tuple[float, list[str]]]:
        """The mean training rating, and the most probable word that is not
        reserved, then EOS."""
        ranked = np.argsort(-self.log_probs)
        best = [self.vocab.id_to_token(int(tid))
                for tid in ranked[ranked >= len(RESERVED_TOKENS)][:1]]
        return [(clamp_rating(self.mean_rating), best + [EOS_TOKEN]) for _ in requests]

    def log_likelihood_many(self, requests) -> list[float]:
        return [float(self.log_probs[self.vocab.encode(tokens, append_eos=True)].sum())
                for _, _, tokens in _nonempty(requests)]


# ----------------------------------------------------------------------
# the roster kinds


def _id_bounds(corpus) -> tuple[int, int]:
    """(users, items) a model of the corpus needs embeddings for."""
    if corpus.world is not None:
        return corpus.world.num_users, corpus.world.num_items
    users = items = 0
    for _, review in corpus.all_reviews():
        users = max(users, review.user + 1)
        items = max(items, review.item + 1)
    return users, items


class Kind(NamedTuple):
    """One roster kind: the frozen settings dataclasses whose fields are the
    keys its [model:*] section takes, with their types, defaults and checks;
    how an untrained model is built from instances of them; and, for a
    trainable kind, its model class, whose settings are its architecture
    and then TrainConfig. `build` is the one way a model is made: the
    train stage trains what it builds, and generate and evaluate build
    the same model and copy its trained values in from its checkpoint."""

    settings: tuple[type, ...]
    build: Callable  # (corpus, lexicon, seed, *settings) -> untrained model
    model: type | None = None  # NeuralRecommender subclass, for a trainable kind
    privileged: Callable[..., bool] = lambda *settings: False  # reads the answer key


def _trainable(model: type, arch: type, **kwargs) -> Kind:
    def build(corpus, lexicon, seed, arch, train):
        return model(arch, corpus.vocab, *_id_bounds(corpus), seed, lexicon)
    return Kind((arch, TrainConfig), build, model, **kwargs)


# every roster kind, by the name a [model:*] section gives as its `kind`
KINDS = {
    "oracle": Kind((), lambda corpus, lexicon, seed: OracleModel(corpus.world),
                   privileged=lambda: True),
    "random": Kind((), lambda corpus, lexicon, seed: RandomScorer(seed, corpus.vocab)),
    "unigram": Kind((UnigramSettings,), lambda corpus, lexicon, seed, unigram:
                    UnigramModel.fit(corpus, unigram.alpha)),
    "transformer": _trainable(TransformerModel, TransformerArch,
                              privileged=lambda arch, train: arch.use_aspect),
    "recurrent": _trainable(RecurrentModel, RecurrentArch),
}

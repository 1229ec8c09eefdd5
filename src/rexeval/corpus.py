"""Synthetic review corpus with known ground truth.

Users carry preference vectors and items quality vectors over a shared
set of aspects, both i.i.d. uniform on [0, 1]. The affinity of a pair is
the mean per-aspect product; a calibrated gain maps it onto the 1..5
rating scale so all three polarity bands actually occur (the raw mean of
products concentrates near 0.25, which would leave the positive band
empty). Review text comes from small templates whose opinion term is
drawn from the rating band, so lexicon polarity classification agrees
with the rating by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .lexicon import (
    Lexicon,
    NEGATIVE,
    NEUTRAL,
    POLARITIES,
    POSITIVE,
    Vocab,
    load_lexicon,
)

DEFAULT_AFFINITY_GAIN = 2.4
DEFAULT_OFFTOPIC_RATE = 0.25
SPLIT_NAMES = ("train", "validation", "test")

# Template slots. Multi-word entries are token sequences; none of these
# words may collide with lexicon aspect/opinion/negator entries.
OPENERS = ("", "honestly", "overall", "frankly", "in short", "to sum up",
           "all in all", "for what it is worth", "in my experience",
           "after several visits")
ADJ_TEMPLATES = ("the {a} was {adv} {o}", "it has {adv} {o} {a}",
                 "the {a} is {adv} {o}", "i found the {a} {adv} {o}",
                 "{adv} {o} {a} all around")
VERB_TEMPLATES = ("i {adv} {o} the {a}", "we {adv} {o} the {a}")
ADJ_ADVERBS = ("", "really", "very", "quite", "truly", "pretty", "fairly", "rather")
VERB_ADVERBS = ("", "really", "truly", "absolutely", "just", "simply")
CLOSERS = ("", "no doubt", "without question", "plain and simple", "believe me",
           "every single time", "through and through", "say no more")
# Opinion verbs usable in the verb templates; everything else is treated
# as an adjective. Filtered against the active lexicon at render time.
VERB_OPINIONS = ("love", "enjoy", "adore", "appreciate")


@dataclass(frozen=True)
class Review:
    user: int
    item: int
    rating: int
    tokens: tuple[str, ...]
    aspect: str
    polarity: str

    def __post_init__(self):
        if not 1 <= self.rating <= 5:
            raise ValueError(f"rating {self.rating} outside 1..5")
        if not self.tokens:
            raise ValueError("empty review text")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown polarity '{self.polarity}'")
        if self.aspect not in self.tokens:
            raise ValueError(f"aspect '{self.aspect}' missing from text")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class SyntheticWorld:
    preferences: np.ndarray  # (U, A)
    qualities: np.ndarray    # (I, A)
    active_aspects: tuple[str, ...]
    lexicon: Lexicon
    seed: int
    affinity_gain: float = DEFAULT_AFFINITY_GAIN
    offtopic_rate: float = DEFAULT_OFFTOPIC_RATE
    dominant: np.ndarray = field(init=False)

    def __post_init__(self):
        # argmax breaks quality ties toward the lowest aspect index
        self.dominant = np.argmax(self.qualities, axis=1)

    @property
    def num_users(self) -> int:
        return self.preferences.shape[0]

    @property
    def num_items(self) -> int:
        return self.qualities.shape[0]


@dataclass
class Corpus:
    train: list[Review]
    validation: list[Review]
    test: list[Review]
    vocab: Vocab
    world: SyntheticWorld | None = None

    def split(self, name: str) -> list[Review]:
        if name not in SPLIT_NAMES:
            raise KeyError(name)
        return getattr(self, "validation" if name == "validation" else name)

    def all_reviews(self):
        for name in SPLIT_NAMES:
            for review in self.split(name):
                yield name, review


def generate_world(num_users: int, num_items: int, num_aspects: int, seed: int,
                   lexicon: Lexicon | None = None,
                   affinity_gain: float = DEFAULT_AFFINITY_GAIN,
                   offtopic_rate: float = DEFAULT_OFFTOPIC_RATE) -> SyntheticWorld:
    if num_users < 1 or num_items < 1 or num_aspects < 1:
        raise ValueError("world dimensions must be positive")
    lexicon = lexicon or load_lexicon()
    if num_aspects > len(lexicon.aspects):
        raise ValueError(
            f"{num_aspects} aspects requested but lexicon lists {len(lexicon.aspects)}")
    if not 0.0 <= offtopic_rate < 1.0:
        raise ValueError("offtopic_rate must be in [0, 1)")
    rng = np.random.default_rng([seed, 0xC0FFEE])
    preferences = rng.uniform(0.0, 1.0, size=(num_users, num_aspects))
    qualities = rng.uniform(0.0, 1.0, size=(num_items, num_aspects))
    return SyntheticWorld(preferences=preferences, qualities=qualities,
                          active_aspects=tuple(lexicon.aspects[:num_aspects]),
                          lexicon=lexicon, seed=seed,
                          affinity_gain=affinity_gain, offtopic_rate=offtopic_rate)


def affinity(world: SyntheticWorld, user: int, item: int) -> float:
    """Mean per-aspect preference*quality product, in [0, 1]."""
    return float(np.dot(world.preferences[user], world.qualities[item])
                 / world.preferences.shape[1])


def rating_for(world: SyntheticWorld, user: int, item: int) -> int:
    """1 + round(4 * calibrated affinity), rounding half up."""
    a = min(1.0, world.affinity_gain * affinity(world, user, item))
    return 1 + int(np.floor(4.0 * a + 0.5))


def polarity_for(rating: int) -> str:
    if rating >= 4:
        return POSITIVE
    if rating <= 2:
        return NEGATIVE
    return NEUTRAL


def _pick(rng: np.random.Generator, options) -> str:
    return options[int(rng.integers(len(options)))]


def render_review(world: SyntheticWorld, user: int, item: int) -> Review:
    """Deterministic template text for one (user, item) pair.

    The noise seed is derived from the world seed and the pair, so a
    review is reproducible from the world alone; this is what lets the
    oracle model regenerate corpus text exactly.
    """
    if not 0 <= user < world.num_users:
        raise ValueError(f"unknown user id {user}")
    if not 0 <= item < world.num_items:
        raise ValueError(f"unknown item id {item}")
    lex = world.lexicon
    rng = np.random.default_rng([world.seed, 0x5EED, user, item])
    rating = rating_for(world, user, item)
    polarity = polarity_for(rating)

    aspect = world.active_aspects[int(world.dominant[item])]
    if len(world.active_aspects) > 1 and float(rng.random()) < world.offtopic_rate:
        others = [a for a in world.active_aspects if a != aspect]
        aspect = _pick(rng, others)

    verb_pos = [v for v in VERB_OPINIONS if v in lex.positive]
    adj_pos = [p for p in lex.positive if p not in VERB_OPINIONS]
    templates = list(ADJ_TEMPLATES)
    if polarity != NEUTRAL and verb_pos:
        templates += list(VERB_TEMPLATES)
    template = _pick(rng, templates)
    is_verb = template in VERB_TEMPLATES

    if polarity == NEUTRAL:
        opinion = lex.neutral_token
    else:
        pool = verb_pos if is_verb else (adj_pos or list(lex.positive))
        opinion = _pick(rng, pool)
        if polarity == NEGATIVE:
            opinion = lex.antonym(opinion)

    opener = _pick(rng, OPENERS)
    adverb = _pick(rng, VERB_ADVERBS if is_verb else ADJ_ADVERBS)
    closer = _pick(rng, CLOSERS)
    body = template.format(a=aspect, adv=adverb, o=opinion)
    tokens = tuple(f"{opener} {body} {closer}".split())
    return Review(user=user, item=item, rating=rating, tokens=tokens,
                  aspect=aspect, polarity=polarity)


def _split_counts(n: int, ratios, user: int) -> tuple[int, int, int]:
    n_val = max(1, int(np.floor(ratios[1] * n + 0.5)))
    n_test = max(1, int(np.floor(ratios[2] * n + 0.5)))
    n_train = n - n_val - n_test
    if n_train < 1:
        raise ValueError(
            f"user {user} has {n} review(s), too few to cover {len(ratios)} splits")
    return n_train, n_val, n_test


def build_corpus(world: SyntheticWorld, reviews_per_user: int,
                 split_ratios=(0.8, 0.1, 0.1), seed: int = 0) -> Corpus:
    """Render reviews.  Each user rates distinct items; splits are
    stratified per user and repaired so train covers every item."""
    ratios = tuple(float(r) for r in split_ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios sum to {sum(ratios)}, expected 1")
    if reviews_per_user < 1:
        raise ValueError("reviews_per_user must be positive")
    if reviews_per_user > world.num_items:
        raise ValueError(
            f"reviews_per_user {reviews_per_user} exceeds item count {world.num_items}")

    rng = np.random.default_rng([seed, 0x5917])
    splits: dict[str, list[Review]] = {name: [] for name in SPLIT_NAMES}
    for user in range(world.num_users):
        items = rng.choice(world.num_items, size=reviews_per_user, replace=False)
        reviews = [render_review(world, user, int(it)) for it in items]
        order = rng.permutation(reviews_per_user)
        n_train, n_val, _ = _split_counts(reviews_per_user, ratios, user)
        for pos, idx in enumerate(order):
            if pos < n_train:
                name = "train"
            elif pos < n_train + n_val:
                name = "validation"
            else:
                name = "test"
            splits[name].append(reviews[int(idx)])

    _repair_item_coverage(splits)
    vocab = Vocab.from_texts(r.tokens for r in splits["train"])
    return Corpus(train=splits["train"], validation=splits["validation"],
                  test=splits["test"], vocab=vocab, world=world)


def _repair_item_coverage(splits: dict[str, list[Review]]) -> None:
    """Swap reviews between splits until every held-out item is in train."""
    train_items: dict[int, int] = {}
    for r in splits["train"]:
        train_items[r.item] = train_items.get(r.item, 0) + 1
    for name in ("validation", "test"):
        held = splits[name]
        for i, review in enumerate(held):
            if review.item in train_items:
                continue
            swapped = False
            for j, candidate in enumerate(splits["train"]):
                if candidate.user == review.user and train_items.get(candidate.item, 0) > 1:
                    splits["train"][j] = review
                    held[i] = candidate
                    train_items[review.item] = 1
                    train_items[candidate.item] -= 1
                    swapped = True
                    break
            if not swapped:
                raise ValueError(
                    f"item {review.item} appears only outside train and no swap exists")


def save_corpus(corpus: Corpus, path) -> None:
    """TSV: user, item, rating, aspect, polarity, split, text."""
    lines = []
    for split, r in corpus.all_reviews():
        lines.append("\t".join(
            [str(r.user), str(r.item), str(r.rating), r.aspect, r.polarity, split, r.text]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_corpus(path, lexicon: Lexicon | None = None) -> Corpus:
    """Parse and validate a corpus TSV; the synthetic world is not recoverable."""
    lexicon = lexicon or load_lexicon()
    splits: dict[str, list[Review]] = {name: [] for name in SPLIT_NAMES}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 7:
                raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(fields)}")
            user_s, item_s, rating_s, aspect, polarity, split, text = fields
            try:
                user, item, rating = int(user_s), int(item_s), int(rating_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer id or rating") from exc
            if not 1 <= rating <= 5:
                raise ValueError(f"{path}:{lineno}: rating {rating} outside 1..5")
            if split not in SPLIT_NAMES:
                raise ValueError(f"{path}:{lineno}: unknown split '{split}'")
            if polarity != polarity_for(rating):
                raise ValueError(
                    f"{path}:{lineno}: polarity '{polarity}' conflicts with rating {rating}")
            tokens = tuple(text.split())
            try:
                review = Review(user=user, item=item, rating=rating, tokens=tokens,
                                aspect=aspect, polarity=polarity)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            splits[split].append(review)
    if not splits["train"]:
        raise ValueError(f"{path}: no training reviews")
    held_users = {r.user for r in splits["validation"] + splits["test"]}
    held_items = {r.item for r in splits["validation"] + splits["test"]}
    train_users = {r.user for r in splits["train"]}
    train_items = {r.item for r in splits["train"]}
    if not held_users <= train_users:
        raise ValueError(f"{path}: users {sorted(held_users - train_users)} never in train")
    if not held_items <= train_items:
        raise ValueError(f"{path}: items {sorted(held_items - train_items)} never in train")
    vocab = Vocab.from_texts(r.tokens for r in splits["train"])
    return Corpus(train=splits["train"], validation=splits["validation"],
                  test=splits["test"], vocab=vocab, world=None)


def save_world(world: SyntheticWorld, path) -> None:
    """Bit-exact world dump (vectors as hex floats) for audit and reload."""
    payload = {
        "seed": world.seed,
        "affinity_gain": world.affinity_gain,
        "offtopic_rate": world.offtopic_rate,
        "active_aspects": list(world.active_aspects),
        "preferences": [[float(x).hex() for x in row] for row in world.preferences],
        "qualities": [[float(x).hex() for x in row] for row in world.qualities],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_world(path, lexicon: Lexicon | None = None) -> SyntheticWorld:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    prefs = np.array([[float.fromhex(x) for x in row] for row in payload["preferences"]])
    quals = np.array([[float.fromhex(x) for x in row] for row in payload["qualities"]])
    return SyntheticWorld(preferences=prefs, qualities=quals,
                          active_aspects=tuple(payload["active_aspects"]),
                          lexicon=lexicon or load_lexicon(),
                          seed=int(payload["seed"]),
                          affinity_gain=float(payload["affinity_gain"]),
                          offtopic_rate=float(payload["offtopic_rate"]))

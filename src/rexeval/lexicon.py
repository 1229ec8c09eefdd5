"""Sentiment lexicon and vocabulary types.

The lexicon is the single source of truth for aspect terms, opinion
antonym pairs, the negator, and the neutral token. Polarity
classification and aspect extraction live here because both the corpus
generator and the perturbation engines depend on them agreeing exactly.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field

import numpy as np

RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"
POLARITIES = (POSITIVE, NEGATIVE, NEUTRAL)


@dataclass(frozen=True)
class Lexicon:
    aspects: tuple[str, ...]
    positive: tuple[str, ...]
    negative: tuple[str, ...]
    negator: str = "not"
    neutral_token: str = "okay"
    antonyms: dict[str, str] = field(default_factory=dict)
    _aspect_set: frozenset = field(init=False, repr=False, compare=False)
    _positive_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.positive) != len(self.negative):
            raise ValueError("positive and negative opinion lists differ in length")
        antonyms = {}
        for pos, neg in zip(self.positive, self.negative):
            if pos in antonyms or neg in antonyms:
                raise ValueError(f"opinion term reused across pairs: {pos}/{neg}")
            antonyms[pos] = neg
            antonyms[neg] = pos
        object.__setattr__(self, "antonyms", antonyms)
        aspect_set = frozenset(self.aspects)
        object.__setattr__(self, "_aspect_set", aspect_set)
        object.__setattr__(self, "_positive_set", frozenset(self.positive))
        if len(aspect_set) != len(self.aspects):
            raise ValueError("duplicate aspect terms")
        overlap = aspect_set & set(antonyms)
        if overlap:
            raise ValueError(f"terms listed as both aspect and opinion: {sorted(overlap)}")
        for tok in (self.negator, self.neutral_token):
            if tok in aspect_set or tok in antonyms:
                raise ValueError(f"reserved lexicon token '{tok}' collides with an entry")

    def is_aspect(self, token: str) -> bool:
        return token in self._aspect_set

    def is_opinion(self, token: str) -> bool:
        return token in self.antonyms

    def is_positive(self, token: str) -> bool:
        return token in self._positive_set

    def antonym(self, token: str) -> str:
        return self.antonyms[token]


def load_lexicon(path=None) -> Lexicon:
    """Parse a lexicon file; None loads the packaged default."""
    if path is None:
        source = importlib.resources.files("rexeval.data").joinpath("default_lexicon.txt")
        text = source.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    aspects: list[str] = []
    positive: list[str] = []
    negative: list[str] = []
    negator = "not"
    neutral = "okay"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "aspect" and len(parts) == 2:
            aspects.append(parts[1])
        elif kind == "opinion" and len(parts) == 3:
            positive.append(parts[1])
            negative.append(parts[2])
        elif kind == "negator" and len(parts) == 2:
            negator = parts[1]
        elif kind == "neutral" and len(parts) == 2:
            neutral = parts[1]
        else:
            raise ValueError(f"lexicon line {lineno}: cannot parse '{raw}'")
    return Lexicon(aspects=tuple(aspects), positive=tuple(positive),
                   negative=tuple(negative), negator=negator, neutral_token=neutral)


def extract_aspect(tokens, lexicon: Lexicon) -> str | None:
    """First lexicon aspect term in the text, or None."""
    for tok in tokens:
        if lexicon.is_aspect(tok):
            return tok
    return None


def classify_polarity(tokens, lexicon: Lexicon) -> str:
    """Count opinion terms; a negator immediately before one flips its class."""
    tokens = list(tokens)
    pos = neg = 0
    for i, tok in enumerate(tokens):
        if not lexicon.is_opinion(tok):
            continue
        flipped = i > 0 and tokens[i - 1] == lexicon.negator
        positive = lexicon.is_positive(tok) ^ flipped
        if positive:
            pos += 1
        else:
            neg += 1
    if pos > neg:
        return POSITIVE
    if neg > pos:
        return NEGATIVE
    return NEUTRAL


class Vocab:
    """Token/id bijection with the four reserved ids first."""

    def __init__(self):
        self._id_to_token: list[str] = list(RESERVED_TOKENS)
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        """Build from token streams in first-occurrence order (deterministic)."""
        vocab = cls()
        for tokens in texts:
            for tok in tokens:
                vocab.add(tok)
        return vocab

    def add(self, token: str) -> int:
        tid = self._token_to_id.get(token)
        if tid is None:
            tid = len(self._id_to_token)
            self._token_to_id[token] = tid
            self._id_to_token.append(token)
        return tid

    def __len__(self) -> int:
        return len(self._id_to_token)

    def token_to_id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def id_to_token(self, tid: int) -> str:
        return self._id_to_token[tid]

    def tokens(self) -> list[str]:
        """Non-reserved tokens in id order."""
        return self._id_to_token[len(RESERVED_TOKENS):]

    def encode(self, tokens, append_eos: bool = True) -> np.ndarray:
        ids = [self._token_to_id.get(t, UNK_ID) for t in tokens]
        if append_eos:
            ids.append(EOS_ID)
        return np.asarray(ids, dtype=np.int64)

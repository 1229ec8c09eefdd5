"""Adversarial rewrites that the ranking metrics score against.

Two rewrite families: sentiment negation (opinion terms swapped with
their antonyms, with a negator-dropping rule) and aspect substitution
(every aspect term replaced by a target aspect). Both are pure
functions of the tokens and the lexicon; candidate sampling is a pure
function of its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lexicon import Lexicon


@dataclass(frozen=True)
class PerturbedPair:
    original: tuple[str, ...]
    perturbed: tuple[str, ...]


def negate_sentiment(tokens, lexicon: Lexicon) -> PerturbedPair | None:
    """Flip the sentiment class of a lexicon-covered text.

    Every opinion term is replaced by its antonym, except that an
    opinion immediately preceded by the negator keeps its surface form
    and loses the negator ("not great" -> "great"). Texts with no
    opinion term are unperturbable (None). Applying the rewrite twice
    returns to the original polarity class, though not necessarily to
    the original tokens.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("cannot perturb empty text")
    out: list[str] = []
    found = False
    for tok in tokens:
        if lexicon.is_opinion(tok):
            found = True
            if out and out[-1] == lexicon.negator:
                out.pop()
                out.append(tok)
            else:
                out.append(lexicon.antonym(tok))
        else:
            out.append(tok)
    if not found:
        return None
    return PerturbedPair(tuple(tokens), tuple(out))


def substitute_aspect(tokens, target_aspect: str, lexicon: Lexicon) -> PerturbedPair | None:
    """Replace every aspect term with the target aspect.

    Unperturbable (None) when the text mentions no aspect at all. A
    text already about the target aspect is a fixed point: returned
    unchanged.
    """
    if not lexicon.is_aspect(target_aspect):
        raise ValueError(f"'{target_aspect}' is not in the aspect lexicon")
    tokens = list(tokens)
    if not tokens:
        raise ValueError("cannot perturb empty text")
    out: list[str] = []
    found = False
    for tok in tokens:
        if lexicon.is_aspect(tok):
            found = True
            out.append(target_aspect)
        else:
            out.append(tok)
    if not found:
        return None
    return PerturbedPair(tuple(tokens), tuple(out))


def sample_distinct(rng: np.random.Generator, n: int, k: int, excluded) -> list[int]:
    """k distinct indices from range(n) skipping `excluded`, by rejection.

    The caller must guarantee more than k eligible indices; expected
    work is O(k) when the eligible set dominates the range.
    """
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < k:
        j = int(rng.integers(n))
        if j in seen or excluded(j):
            continue
        seen.add(j)
        chosen.append(j)
    return chosen

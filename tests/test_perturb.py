"""Sentiment negation, aspect substitution, and candidate sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rexeval.lexicon import NEGATIVE, NEUTRAL, POSITIVE, classify_polarity
from rexeval.perturb import negate_sentiment, sample_distinct, substitute_aspect


def test_negate_swaps_antonyms(lexicon):
    pair = negate_sentiment(["the", "food", "was", "great"], lexicon)
    assert pair.perturbed == ("the", "food", "was", "terrible")
    assert pair.original == ("the", "food", "was", "great")


def test_negate_drops_negator_instead_of_double_negating(lexicon):
    pair = negate_sentiment(["not", "great", "service"], lexicon)
    assert pair.perturbed == ("great", "service")


def test_negate_touches_every_opinion(lexicon):
    pair = negate_sentiment(["great", "food", "terrible", "staff"], lexicon)
    assert pair.perturbed == ("terrible", "food", "great", "staff")


def test_negate_unperturbable_and_empty(lexicon):
    assert negate_sentiment(["the", "food", "arrived"], lexicon) is None
    with pytest.raises(ValueError, match="empty"):
        negate_sentiment([], lexicon)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_negation_flips_the_polarity_class(lexicon, data):
    words = st.sampled_from(lexicon.aspects + lexicon.positive + lexicon.negative
                            + (lexicon.negator, "the", "was", "okay"))
    tokens = data.draw(st.lists(words, min_size=1, max_size=8))
    # a dropped negator that uncovers another negator creates a new negation
    # context; that corner is out of scope (the corpus never emits negators)
    assume(not any(a == b == lexicon.negator for a, b in zip(tokens, tokens[1:])))
    pair = negate_sentiment(tokens, lexicon)
    if pair is None:
        assert not any(lexicon.is_opinion(t) for t in tokens)
        return
    flip = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE, NEUTRAL: NEUTRAL}
    assert classify_polarity(pair.perturbed, lexicon) == \
        flip[classify_polarity(tokens, lexicon)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_negation_is_a_class_involution_without_negators(lexicon, data):
    words = st.sampled_from(lexicon.aspects + lexicon.positive + lexicon.negative
                            + ("the", "was"))
    tokens = data.draw(st.lists(words, min_size=1, max_size=8))
    pair = negate_sentiment(tokens, lexicon)
    assume(pair is not None)
    back = negate_sentiment(pair.perturbed, lexicon)
    assert back.perturbed == tuple(tokens)  # antonym swap is an involution


def test_substitute_replaces_every_aspect(lexicon):
    pair = substitute_aspect(["good", "food", "bad", "service"], "price", lexicon)
    assert pair.perturbed == ("good", "price", "bad", "price")


def test_substitute_fixed_point_and_unperturbable(lexicon):
    pair = substitute_aspect(["great", "food"], "food", lexicon)
    assert pair.perturbed == pair.original == ("great", "food")
    assert substitute_aspect(["simply", "great"], "food", lexicon) is None
    with pytest.raises(ValueError, match="not in the aspect lexicon"):
        substitute_aspect(["great", "food"], "sausage", lexicon)
    with pytest.raises(ValueError, match="empty"):
        substitute_aspect([], "food", lexicon)


def test_sample_distinct_skips_excluded():
    rng = np.random.default_rng(0)
    picks = sample_distinct(rng, 10, 4, lambda j: j % 2 == 0)
    assert len(picks) == len(set(picks)) == 4
    assert all(j % 2 == 1 for j in picks)

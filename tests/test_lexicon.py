"""Lexicon parsing, polarity classification, and the vocab bijection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rexeval.lexicon import (BOS_ID, EOS_ID, NEGATIVE, NEUTRAL, PAD_ID,
                             POSITIVE, RESERVED_TOKENS, UNK_ID, Lexicon, Vocab,
                             classify_polarity, extract_aspect, load_lexicon)


def test_default_lexicon_shape(lexicon):
    assert len(lexicon.aspects) == 16
    assert len(lexicon.positive) == len(lexicon.negative) == 16
    assert lexicon.negator == "not"
    assert lexicon.neutral_token == "okay"
    assert lexicon.is_aspect("service")
    assert lexicon.is_positive("great") and not lexicon.is_positive("terrible")
    assert lexicon.is_opinion("terrible") and not lexicon.is_opinion("service")


def test_antonym_is_an_involution(lexicon):
    for word in lexicon.positive + lexicon.negative:
        other = lexicon.antonym(word)
        assert other != word
        assert lexicon.antonym(other) == word
        assert lexicon.is_positive(word) != lexicon.is_positive(other)


def test_lexicon_identity_ignores_its_lookup_sets(lexicon):
    same = load_lexicon()
    assert same == lexicon and same is not lexicon
    assert Lexicon(("a",), ("x",), ("y",)) != Lexicon(("b",), ("x",), ("y",))
    assert "_aspect_set" not in repr(lexicon) and "_positive_set" not in repr(lexicon)
    with pytest.raises(TypeError, match="unhashable"):
        hash(lexicon)  # the antonym dict is a compared field


@pytest.mark.parametrize("kwargs,message", [
    (dict(aspects=("a",), positive=("x", "y"), negative=("z",)), "differ in length"),
    (dict(aspects=("a", "a"), positive=(), negative=()), "duplicate aspect"),
    (dict(aspects=("a",), positive=("x", "x"), negative=("y", "z")), "reused across pairs"),
    (dict(aspects=("x",), positive=("x",), negative=("y",)), "both aspect and opinion"),
    (dict(aspects=("not",), positive=(), negative=()), "collides"),
])
def test_lexicon_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Lexicon(**kwargs)


def test_load_lexicon_from_file(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\n\naspect wheels\nopinion shiny dull\n"
                    "negator never\nneutral meh\n")
    lex = load_lexicon(path)
    assert lex.aspects == ("wheels",)
    assert lex.antonym("shiny") == "dull"
    assert lex.negator == "never"
    assert lex.neutral_token == "meh"


def test_load_lexicon_reports_bad_line(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("aspect ok\nopinion only-two\n")
    with pytest.raises(ValueError, match="line 2"):
        load_lexicon(path)


def test_extract_aspect_takes_first_mention(lexicon):
    assert extract_aspect(["the", "food", "and", "service"], lexicon) == "food"
    assert extract_aspect(["nothing", "relevant"], lexicon) is None


def test_classify_polarity_counts_and_flips(lexicon):
    assert classify_polarity(["the", "food", "was", "great"], lexicon) == POSITIVE
    assert classify_polarity(["terrible", "service"], lexicon) == NEGATIVE
    assert classify_polarity(["not", "great"], lexicon) == NEGATIVE
    assert classify_polarity(["not", "terrible"], lexicon) == POSITIVE
    assert classify_polarity(["great", "but", "terrible"], lexicon) == NEUTRAL
    assert classify_polarity(["just", "okay"], lexicon) == NEUTRAL
    assert classify_polarity([], lexicon) == NEUTRAL
    # majority wins across several mentions
    assert classify_polarity("great good terrible".split(), lexicon) == POSITIVE


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_negating_every_opinion_flips_the_class(lexicon, data):
    # alphabet deliberately excludes the negator: a bare antonym swap only
    # flips the class when no opinion term is negated
    words = st.sampled_from(lexicon.aspects + lexicon.positive + lexicon.negative
                            + ("the", "was", "okay"))
    tokens = data.draw(st.lists(words, min_size=1, max_size=8))
    label = classify_polarity(tokens, lexicon)
    flipped = [lexicon.antonym(t) if lexicon.is_opinion(t) else t for t in tokens]
    expect = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE, NEUTRAL: NEUTRAL}[label]
    assert classify_polarity(flipped, lexicon) == expect


def test_vocab_reserved_layout():
    vocab = Vocab()
    assert len(vocab) == 4
    assert [vocab.id_to_token(i) for i in range(4)] == list(RESERVED_TOKENS)
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
    assert vocab.tokens() == []


def test_vocab_add_and_lookup():
    vocab = Vocab()
    assert (vocab.add("b"), vocab.add("a")) == (4, 5)
    assert vocab.add("b") == vocab.token_to_id("b") == 4
    assert vocab.token_to_id("a") == 5
    assert vocab.token_to_id("missing") == UNK_ID
    assert vocab.tokens() == ["b", "a"]


def test_vocab_from_texts_keeps_first_occurrence_order():
    vocab = Vocab.from_texts([["z", "y"], ["y", "x"]])
    assert vocab.tokens() == ["z", "y", "x"]


def test_encode_decode_round_trip():
    vocab = Vocab.from_texts([["hello", "world"]])
    ids = vocab.encode(["hello", "world", "unknown"])
    assert list(ids) == [4, 5, UNK_ID, EOS_ID]
    assert [vocab.id_to_token(i) for i in ids] == ["hello", "world", "<unk>", "<eos>"]
    assert list(vocab.encode(["hello"], append_eos=False)) == [4]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), max_size=10))
def test_encode_decode_identity_for_known_tokens(tokens):
    vocab = Vocab.from_texts([tokens])
    assert [vocab.id_to_token(i) for i in vocab.encode(tokens, append_eos=False)] == tokens

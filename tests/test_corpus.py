"""Synthetic world and corpus generation: determinism, splits, round trips."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rexeval.corpus import (Review, affinity, build_corpus, generate_world,
                            load_corpus, load_world, polarity_for, rating_for,
                            render_review, save_corpus, save_world)
from rexeval.lexicon import NEGATIVE, NEUTRAL, POSITIVE, UNK_ID


def test_generate_world_validation(lexicon):
    with pytest.raises(ValueError, match="must be positive"):
        generate_world(0, 5, 2, seed=1)
    with pytest.raises(ValueError, match="lexicon lists"):
        generate_world(5, 5, len(lexicon.aspects) + 1, seed=1)
    with pytest.raises(ValueError, match="offtopic_rate"):
        generate_world(5, 5, 2, seed=1, offtopic_rate=1.0)


def test_world_is_seed_deterministic(lexicon):
    w1 = generate_world(10, 8, 3, seed=5, lexicon=lexicon)
    w2 = generate_world(10, 8, 3, seed=5, lexicon=lexicon)
    np.testing.assert_array_equal(w1.preferences, w2.preferences)
    np.testing.assert_array_equal(w1.qualities, w2.qualities)
    w3 = generate_world(10, 8, 3, seed=6, lexicon=lexicon)
    assert not np.array_equal(w1.preferences, w3.preferences)


def test_rating_formula(lexicon):
    world = generate_world(10, 8, 3, seed=5, lexicon=lexicon)
    for user, item in [(0, 0), (3, 7), (9, 2)]:
        a = min(1.0, world.affinity_gain * affinity(world, user, item))
        assert rating_for(world, user, item) == 1 + int(np.floor(4 * a + 0.5))
    ratings = {rating_for(world, u, i) for u in range(10) for i in range(8)}
    assert ratings <= set(range(1, 6))


def test_polarity_bands():
    assert polarity_for(5) == polarity_for(4) == POSITIVE
    assert polarity_for(3) == NEUTRAL
    assert polarity_for(2) == polarity_for(1) == NEGATIVE


def test_render_review_is_deterministic_and_consistent(lexicon):
    world = generate_world(12, 9, 4, seed=21, lexicon=lexicon)
    for user, item in [(0, 0), (5, 8), (11, 3)]:
        r1 = render_review(world, user, item)
        r2 = render_review(world, user, item)
        assert r1 == r2
        assert r1.aspect in r1.tokens
        assert r1.polarity == polarity_for(r1.rating)
        assert r1.rating == rating_for(world, user, item)
    with pytest.raises(ValueError, match="unknown user"):
        render_review(world, 12, 0)
    with pytest.raises(ValueError, match="unknown item"):
        render_review(world, 0, 9)


def test_review_text_encodes_its_own_labels(lexicon):
    """The generator's labels agree with the classifiers reading the text."""
    from rexeval.lexicon import classify_polarity, extract_aspect

    world = generate_world(15, 10, 5, seed=33, lexicon=lexicon)
    for user in range(15):
        for item in range(10):
            r = render_review(world, user, item)
            assert extract_aspect(r.tokens, lexicon) == r.aspect
            assert classify_polarity(r.tokens, lexicon) == r.polarity


def test_review_validation():
    ok = dict(user=0, item=0, rating=4, tokens=("good", "food"),
              aspect="food", polarity=POSITIVE)
    Review(**ok)
    with pytest.raises(ValueError, match="outside 1..5"):
        Review(**{**ok, "rating": 6})
    with pytest.raises(ValueError, match="empty review"):
        Review(**{**ok, "tokens": ()})
    with pytest.raises(ValueError, match="missing from text"):
        Review(**{**ok, "aspect": "service"})
    with pytest.raises(ValueError, match="unknown polarity"):
        Review(**{**ok, "polarity": "mixed"})


def test_build_corpus_split_sizes(small_corpus):
    # 40 users x 12 reviews with (0.8, 0.1, 0.1): 10/1/1 per user
    assert len(small_corpus.train) == 400
    assert len(small_corpus.validation) == 40
    assert len(small_corpus.test) == 40


def test_each_user_rates_distinct_items(small_corpus):
    seen = set()
    for _, r in small_corpus.all_reviews():
        assert (r.user, r.item) not in seen
        seen.add((r.user, r.item))


def test_held_out_users_and_items_appear_in_train(small_corpus):
    train_users = {r.user for r in small_corpus.train}
    train_items = {r.item for r in small_corpus.train}
    for r in small_corpus.validation + small_corpus.test:
        assert r.user in train_users
        assert r.item in train_items


def test_vocab_covers_train_split(small_corpus):
    for r in small_corpus.train:
        for tok in r.tokens:
            assert small_corpus.vocab.token_to_id(tok) != UNK_ID


def test_build_corpus_is_deterministic(lexicon):
    world = generate_world(8, 10, 3, seed=77, lexicon=lexicon)
    c1 = build_corpus(world, 6, seed=77)
    c2 = build_corpus(generate_world(8, 10, 3, seed=77, lexicon=lexicon), 6, seed=77)
    assert c1.train == c2.train
    assert c1.validation == c2.validation
    assert c1.test == c2.test


def test_build_corpus_validation(lexicon):
    world = generate_world(4, 5, 2, seed=1, lexicon=lexicon)
    with pytest.raises(ValueError, match="three positive"):
        build_corpus(world, 4, split_ratios=(0.5, 0.5))
    with pytest.raises(ValueError, match="sum to"):
        build_corpus(world, 4, split_ratios=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError, match="exceeds item count"):
        build_corpus(world, 6)
    with pytest.raises(ValueError, match="too few to cover"):
        build_corpus(world, 2)  # 2 reviews cannot fill train+val+test


def test_offtopic_rate_is_respected(lexicon):
    on_topic = generate_world(20, 20, 5, seed=9, lexicon=lexicon, offtopic_rate=0.0)
    drift = generate_world(20, 20, 5, seed=9, lexicon=lexicon, offtopic_rate=0.25)
    off = 0
    for user in range(20):
        for item in range(20):
            strict = render_review(on_topic, user, item)
            assert strict.aspect == on_topic.active_aspects[int(on_topic.dominant[item])]
            loose = render_review(drift, user, item)
            off += loose.aspect != drift.active_aspects[int(drift.dominant[item])]
    assert 0.15 < off / 400 < 0.35


@settings(max_examples=30, deadline=None)
@given(users=st.integers(2, 6), items=st.integers(4, 8), seed=st.integers(0, 10_000))
def test_corpus_invariants_hold_across_seeds(lexicon, users, items, seed):
    world = generate_world(users, items, 3, seed=seed, lexicon=lexicon)
    try:
        corpus = build_corpus(world, 4, seed=seed)
    except ValueError as exc:
        # tiny draws can be genuinely unrepairable; that refusal is the contract
        assume("appears only outside train" not in str(exc))
        raise
    assert len(corpus.train) + len(corpus.validation) + len(corpus.test) == users * 4
    train_items = {r.item for r in corpus.train}
    for r in corpus.validation + corpus.test:
        assert r.item in train_items
        assert r.polarity == polarity_for(r.rating)


def test_corpus_tsv_round_trip(tmp_path, small_corpus, lexicon):
    path = tmp_path / "corpus.tsv"
    save_corpus(small_corpus, path)
    loaded = load_corpus(path, lexicon)
    assert loaded.world is None
    assert loaded.train == small_corpus.train
    assert loaded.validation == small_corpus.validation
    assert loaded.test == small_corpus.test
    assert loaded.vocab.tokens() == small_corpus.vocab.tokens()


def _tsv_lines(corpus):
    lines = []
    for split, r in corpus.all_reviews():
        lines.append("\t".join([str(r.user), str(r.item), str(r.rating),
                                r.aspect, r.polarity, split, r.text]))
    return lines


def test_load_corpus_rejects_tampered_rows(tmp_path, small_corpus, lexicon):
    lines = _tsv_lines(small_corpus)
    fields = lines[0].split("\t")
    fields[4] = NEGATIVE if fields[4] != NEGATIVE else POSITIVE
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join([("\t".join(fields))] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="conflicts with rating"):
        load_corpus(bad, lexicon)


def test_load_corpus_rejects_uncovered_split(tmp_path, lexicon):
    row = "0\t0\t4\tfood\tpositive\ttest\tgood food"
    path = tmp_path / "orphan.tsv"
    path.write_text(row + "\n" + "1\t1\t4\tfood\tpositive\ttrain\tgood food\n")
    with pytest.raises(ValueError, match="never in train"):
        load_corpus(path, lexicon)


def test_load_corpus_rejects_malformed_lines(tmp_path, lexicon):
    path = tmp_path / "short.tsv"
    path.write_text("1\t2\t3\n")
    with pytest.raises(ValueError, match="expected 7 fields"):
        load_corpus(path, lexicon)
    path.write_text("x\t0\t4\tfood\tpositive\ttrain\tgood food\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_corpus(path, lexicon)


def test_world_round_trip_preserves_reviews(tmp_path, lexicon):
    world = generate_world(6, 7, 3, seed=13, lexicon=lexicon)
    path = tmp_path / "world.json"
    save_world(world, path)
    back = load_world(path, lexicon)
    np.testing.assert_array_equal(back.preferences, world.preferences)
    np.testing.assert_array_equal(back.qualities, world.qualities)
    assert back.active_aspects == world.active_aspects
    for user in range(6):
        for item in range(7):
            assert render_review(back, user, item) == render_review(world, user, item)


def test_corpus_split_accessor(small_corpus):
    assert small_corpus.split("train") is small_corpus.train
    assert small_corpus.split("validation") is small_corpus.validation
    with pytest.raises(KeyError):
        small_corpus.split("dev")
    names = {name for name, _ in small_corpus.all_reviews()}
    assert names == {"train", "validation", "test"}

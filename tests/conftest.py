"""Shared fixtures: one lexicon, corpora at three scales, trained models.

Everything expensive is session-scoped because corpus generation and
model training dominate the suite's runtime. Tests must treat fixture
objects as read-only; anything that mutates state builds its own copy.
"""

import pytest

from rexeval.corpus import build_corpus, generate_world
from rexeval.lexicon import load_lexicon
from rexeval.models import TransformerArch, TransformerModel
from rexeval.training import TrainConfig, train_model

# architecture and schedule shared by the trained-model fixtures; small
# enough to train in seconds, big enough to beat the unigram baseline
SANITY_ARCH = dict(embed_dim=32, ffn_dim=64, layers=1, heads=2, max_len=24,
                   rating_hidden=32)
SANITY_EPOCHS = 6


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def small_corpus(lexicon):
    """480 reviews over 40 users x 25 items; enough for metric unit tests."""
    world = generate_world(40, 25, 6, seed=101, lexicon=lexicon)
    return build_corpus(world, 12, seed=101)


@pytest.fixture(scope="session")
def sanity_corpus(lexicon):
    """1200 reviews over 60 users x 40 items; what the trained models see."""
    world = generate_world(60, 40, 6, seed=303, lexicon=lexicon)
    return build_corpus(world, 20, seed=303)


def _train_transformer(corpus, seed, lexicon=None, **arch_overrides):
    arch = TransformerArch(**{**SANITY_ARCH, **arch_overrides})
    model = TransformerModel(arch, corpus.vocab, corpus.world.num_users,
                             corpus.world.num_items, seed=seed, lexicon=lexicon)
    train_model(model, corpus, TrainConfig(epochs=SANITY_EPOCHS, batch_size=32,
                                           lr=3e-3))
    return model


@pytest.fixture(scope="session")
def trained_transformer(sanity_corpus):
    return _train_transformer(sanity_corpus, seed=2001)


@pytest.fixture(scope="session")
def trained_conditional(sanity_corpus, lexicon):
    return _train_transformer(sanity_corpus, seed=2002, lexicon=lexicon,
                              use_aspect=True)


@pytest.fixture(scope="session")
def big_corpus(lexicon):
    """24000 reviews with a 13200-review test split, for baseline statistics."""
    world = generate_world(200, 120, 8, seed=707, lexicon=lexicon)
    return build_corpus(world, 120, split_ratios=(0.4, 0.05, 0.55), seed=707)


@pytest.fixture(scope="session")
def default_corpus(lexicon):
    """The corpus the default configuration generates: 200 x 100, 8k reviews."""
    world = generate_world(200, 100, 8, seed=11, lexicon=lexicon)
    return build_corpus(world, 40, seed=11)

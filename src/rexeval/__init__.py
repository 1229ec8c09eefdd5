"""Evaluation harness for explanation-generating recommender models.

Builds a synthetic review corpus with known ground truth, trains small
joint review-rating models on it, and scores every model on
perplexity-ranking faithfulness metrics and text-coherence metrics,
emitting one table-style report per run.
"""

__version__ = "0.1.0"

"""Evaluation harness for explanation-generating recommender models.

Builds a synthetic review corpus with known ground truth, trains small
joint review-rating models on it, and scores every model on
perplexity-ranking faithfulness metrics and text-coherence metrics,
emitting one table-style report per run.
"""

from .config import (
    CorpusSpec,
    MetricSettings,
    ModelSpec,
    RunConfig,
    Seeds,
    apply_overrides,
    lineage_hash,
    load_config,
)
from .corpus import Corpus, Review, SyntheticWorld, build_corpus, generate_world
from .lexicon import Lexicon, Vocab, classify_polarity, extract_aspect, load_lexicon
from .metrics import (
    AuxRegressor,
    BigramLM,
    EmbeddingTable,
    MetricResult,
    air,
    cnll_metric,
    cond_nll_score,
    entail_metric,
    entail_proxy,
    gm_f1_metric,
    greedy_match_f1,
    mrr_ae,
    mrr_random_baseline,
    rmse,
    rmse_metric,
    tlae,
    train_aux_regressor,
    train_cooccurrence_embeddings,
)
from .models import (
    ExplainableRecommender,
    OracleModel,
    RandomScorer,
    RecurrentArch,
    RecurrentModel,
    TransformerArch,
    TransformerModel,
    UniformScorer,
    UnigramModel,
)
from .perturb import PerturbedPair, negate_sentiment, substitute_aspect
from .pipeline import (
    StageError,
    run_pipeline,
    stage_evaluate,
    stage_gen_corpus,
    stage_generate,
    stage_report,
    stage_train,
)
from .report import EvaluationReport, ModelRow, format_table, verify_against_audit
from .training import DivergenceError, TrainConfig, joint_loss, train_model

__version__ = "0.1.0"

"""The benchmark's workloads and the INI each one hands to rexeval.

A workload fixes the corpus size, the model roster, the metric cells and
the stages to run; the seed picks the corpus, model and evaluation
streams. `render_ini` is a pure function of (workload, seed): the
program under test receives nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("gen-corpus", "train", "generate", "evaluate", "report")
# metric cells whose computation reads the generate stage's output
_NEEDS_GENERATIONS = {"tlae", "tlae_gold", "entail", "gm_f1", "cnll", "rmse"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: tuple[tuple[str, object], ...]
    metrics: tuple[tuple[str, object], ...]
    # (name, kind, options); trained models get a fixed epoch count
    models: tuple[tuple[str, str, tuple[tuple[str, object], ...]], ...]
    cells: tuple[str, ...]

    @property
    def stages(self) -> tuple[str, ...]:
        """The run-all stages this workload's cells need, in run-all order."""
        if _NEEDS_GENERATIONS & set(self.cells):
            return STAGES
        return tuple(s for s in STAGES if s != "generate")

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.models)

    @property
    def operations(self) -> tuple[tuple[str, str], ...]:
        """Report cells of one run: the unit `attempted` and `failed` count."""
        return tuple((m, c) for m in self.model_names for c in self.cells)


def _epochs(n: int) -> tuple[tuple[str, object], ...]:
    # patience = epochs disables early stopping, so every seed trains
    # for exactly n epochs and the work per run is fixed
    return (("epochs", n), ("patience", n))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fit",
            why="training-dominated: autodiff backward, Adam and the training "
                "loop do most of the work; decoding and ranking are nearly bypassed",
            corpus=(("users", 40), ("items", 24), ("aspects", 6),
                    ("reviews_per_user", 20)),
            metrics=(("metrics", "entail cnll rmse"), ("n_explanations", 24)),
            models=(("oracle", "oracle", ()),
                    ("transformer", "transformer", _epochs(2)),
                    ("recurrent", "recurrent", _epochs(2))),
            cells=("entail", "cnll", "rmse"),
        ),
        Workload(
            name="rank",
            why="faithfulness-scoring-dominated: six models score one shared "
                "candidate set by batched forward passes, with aspect rewrites",
            corpus=(("users", 40), ("items", 24), ("aspects", 6),
                    ("reviews_per_user", 10), ("splits", "0.4 0.1 0.5")),
            metrics=(("metrics", "air mrr_ae"), ("k", 30), ("n_explanations", 60),
                     ("air_mode", "ground-truth")),
            models=(("oracle", "oracle", ()),
                    ("random", "random", ()),
                    ("unigram", "unigram", ()),
                    ("transformer", "transformer", _epochs(1)),
                    ("transformer_cond", "transformer",
                     (("use_aspect", "true"),) + _epochs(1)),
                    ("recurrent", "recurrent", _epochs(1))),
            cells=("air", "mrr_ae"),
        ),
        Workload(
            name="explain",
            why="decode-dominated: batch-1 greedy generation with a growing "
                "prefix over a large test pool, then the coherence metrics",
            corpus=(("users", 40), ("items", 24), ("aspects", 6),
                    ("reviews_per_user", 10), ("splits", "0.3 0.1 0.6")),
            metrics=(("metrics", "tlae entail gm_f1 cnll rmse"), ("n_explanations", 150),
                     ("tlae_mode", "both")),
            models=(("oracle", "oracle", ()),
                    ("unigram", "unigram", ()),
                    ("transformer", "transformer", (("batch_size", 8),) + _epochs(2)),
                    ("recurrent", "recurrent", (("batch_size", 8),) + _epochs(2))),
            cells=("tlae", "tlae_gold", "entail", "gm_f1", "cnll", "rmse"),
        ),
    )
}


def seeds_for(seed: int) -> dict[str, int]:
    """The three rexeval seed streams derived from one benchmark seed."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return {"corpus": seed, "model": seed + 100_003, "eval": seed + 200_003}


def render_ini(workload: Workload, seed: int) -> str:
    """The run configuration for one workload at one seed.

    The run directory is relative (`run`), so the text does not depend on
    where the benchmark keeps its work files.
    """
    lines = [f"; perfbench workload '{workload.name}', seed {seed}", "[corpus]"]
    lines += [f"{k} = {v}" for k, v in workload.corpus]
    lines += ["", "[seeds]"]
    lines += [f"{k} = {v}" for k, v in seeds_for(seed).items()]
    lines += ["", "[metrics]"]
    lines += [f"{k} = {v}" for k, v in workload.metrics]
    lines += ["audit = true", "", "[output]", "dir = run"]
    for name, kind, options in workload.models:
        lines += ["", f"[model:{name}]", f"kind = {kind}"]
        lines += [f"{k} = {v}" for k, v in options]
    return "\n".join(lines) + "\n"

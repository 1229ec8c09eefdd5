"""Span tracing of rexeval from outside its source tree.

`install` replaces public functions and methods of the rexeval modules
with wrappers that record one span per call (name, start, end, parent)
and exact counts. Spans stay in memory in flat arrays and are written
once, after the run. `self_times` and `layer_metrics` turn them into
the per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# Tape ops timed forward and backward; the backward of "gru_cell" is
# reported as "gru" to match the metric names.
FORWARD_OPS = ("affine", "attention", "layer_norm", "gru_cell", "embedding", "softmax_xent")
BACKWARD_OPS = {"affine": "affine", "attention": "attention", "layer_norm": "layer_norm",
                "gru_cell": "gru", "softmax_xent": "softmax_xent"}


class Recorder:
    """In-memory span store for one run of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)  # distinct-key sets for ratios

    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span; optional hooks see the
        arguments before and the result after the call."""
        idx = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self.open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def as_arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        return {
            "names": np.array(self.names, dtype=str),
            "run_ids": np.array([self.run_id], dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "run": np.zeros(n, dtype=np.int32),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its
    direct children cover (children may overlap; their union counts)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    out = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for sid, pid in enumerate(parent.tolist()):
        if pid >= 0:
            children[pid].append(sid)
    for pid, kids in children.items():
        lo, hi = start[pid], end[pid]
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[pid] -= covered
    return out


def summarize(names, name, start, end, parent) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    name = np.asarray(name)
    selfs = self_times(start, end, parent)
    total = end - start
    out = {}
    for idx, label in enumerate(names):
        hit = name == idx
        out[label] = {"calls": int(hit.sum()), "total_s": float(total[hit].sum()),
                      "self_s": float(selfs[hit].sum())}
    return out


# ----------------------------------------------------------------------
# installing the wrappers


def _rebind(original, replacement) -> None:
    """Point every rexeval module-level name bound to `original` at
    `replacement`, so `from .x import f` copies are traced as well."""
    for modname, module in list(sys.modules.items()):
        if modname != "rexeval" and not modname.startswith("rexeval."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(rec: Recorder) -> None:
    """Trace the rexeval layers. Import rexeval.pipeline before calling."""
    from rexeval import autodiff, corpus, lexicon, metrics, models, nn, perturb, training

    def span_fn(module, attr, name, **hooks):
        original = getattr(module, attr)
        _rebind(original, rec.span(name, original, **hooks))

    # corpus / nn io
    span_fn(corpus, "load_corpus", "corpus.load")
    span_fn(corpus, "load_world", "corpus.load")
    span_fn(nn, "save_checkpoint", "nn.checkpoint_io")
    span_fn(nn, "load_checkpoint", "nn.checkpoint_io")
    span_fn(nn, "clip_global_norm", "nn.clip_global_norm")
    _wrap_method(nn.ParamStore, "adam_step", lambda f: rec.span("nn.adam_step", f))

    # training
    def trained(args, kwargs, history):
        model_corpus = args[1] if len(args) > 1 else kwargs["corpus"]
        per_epoch = sum(len(r.tokens) + 1 for r in model_corpus.train)
        rec.counts["training.epochs_run"] += len(history)
        rec.counts["training.tokens"] += per_epoch * len(history)

    span_fn(training, "train_model", "training.train_model", after=trained)
    span_fn(training, "joint_loss", "training.validation")

    # perturbations and the lexicon
    def rewrite(args, kwargs):
        target = args[1] if len(args) > 1 else kwargs["target_aspect"]
        rec.keys["perturb.rewrites"].add((tuple(args[0]), target))

    span_fn(perturb, "substitute_aspect", "perturb.substitute_aspect", before=rewrite)
    span_fn(perturb, "negate_sentiment", "perturb.negate_sentiment")
    _wrap_method(lexicon.Lexicon, "is_aspect",
                 lambda f: rec.counted("lexicon.is_aspect.calls", f))

    # metric cells and their fitted helpers
    cells = {"air": "air", "mrr_ae": "mrr_ae", "tlae": "tlae", "entail_metric": "entail",
             "gm_f1_metric": "gm_f1", "cnll_metric": "cnll", "rmse_metric": "rmse"}
    for attr, cell in cells.items():
        original = getattr(metrics, attr)
        per_cell = {}

        def dispatch(*args, _original=original, _cell=cell, _wrapped=per_cell, **kwargs):
            key = kwargs.get("name", _cell)
            fn = _wrapped.get(key)
            if fn is None:
                fn = _wrapped[key] = rec.span(f"metrics.{key}", _original)
            return fn(*args, **kwargs)

        _rebind(original, dispatch)
    span_fn(metrics, "train_aux_regressor", "metrics.aux_regressor")
    span_fn(metrics, "train_cooccurrence_embeddings", "metrics.embeddings")
    _wrap_method(metrics.BigramLM, "fit", lambda f: rec.span("metrics.bigram", f))

    # models: decode and scoring entry points on every class defining them
    entry_passes: list[int] = []  # one entry per open generate call

    def decoding(args, kwargs):
        entry_passes.append(rec.counts["models.generate.passes"])

    def generated(args, kwargs, tokens):
        rec.counts["models.generated_tokens"] += len(tokens)
        if rec.counts["models.generate.passes"] > entry_passes.pop():
            rec.counts["models.generate.neural_tokens"] += len(tokens)

    def requested(args, kwargs):
        model, requests = args[0], args[1]
        rec.counts["models.scored_texts"] += len(requests)
        seen = rec.keys["models.requests"]
        for user, item, tokens in requests:
            seen.add((id(model), user, item, tuple(tokens)))

    for cls in vars(models).values():
        if not (isinstance(cls, type) and issubclass(cls, models.ExplainableRecommender)):
            continue
        if "generate" in cls.__dict__:
            _wrap_method(cls, "generate",
                         lambda f: rec.span("models.generate", f, before=decoding,
                                            after=generated))
        if "predict_rating" in cls.__dict__:
            _wrap_method(cls, "predict_rating",
                         lambda f: rec.counted("models.predict_rating.calls", f))
        if "perplexity_many" in cls.__dict__:
            _wrap_method(cls, "perplexity_many",
                         lambda f: rec.span("models.perplexity_many", f, before=requested))

    # autodiff: tapes, forward ops, backward closures, gradient collection
    tape = autodiff.Tape
    original_init = tape.__init__

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        rec.counts["autodiff.tapes"] += 1
        if entry_passes:
            rec.counts["models.generate.passes"] += 1
        original_init(self, *args, **kwargs)

    tape.__init__ = init
    for op in FORWARD_OPS:
        _wrap_method(tape, op, lambda f, op=op: rec.span(f"autodiff.{op}.fwd", f))
    _wrap_method(tape, "backward", lambda f: rec.span("autodiff.backward", f))
    _wrap_method(tape, "param_grads", lambda f: rec.span("autodiff.param_grads", f))
    bw_ids = {op: rec.name_id(f"autodiff.{label}.bwd") for op, label in BACKWARD_OPS.items()}
    original_record = tape._record

    @functools.wraps(original_record)
    def record(self, value, op, backward):
        idx = bw_ids.get(op)
        if idx is not None and backward is not None:
            backward = _timed_backward(rec, idx, backward)
        return original_record(self, value, op, backward)

    tape._record = record


def _timed_backward(rec: Recorder, idx: int, backward):
    def timed(g):
        sid = rec.open(idx)
        try:
            return backward(g)
        finally:
            rec.close(sid)

    return timed


# ----------------------------------------------------------------------
# per-layer metrics


STAGE_METRICS = {"gen-corpus": "pipeline.gen_corpus_s", "train": "pipeline.train_s",
                 "generate": "pipeline.generate_s", "evaluate": "pipeline.evaluate_s",
                 "report": "pipeline.report_s"}
METRIC_CELLS = ("air", "mrr_ae", "tlae", "tlae_gold", "entail", "gm_f1", "cnll", "rmse")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict, distinct: dict, stage_s: dict) -> dict:
    """The per-layer metric values of one traced run."""
    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    out = {metric: stage_s.get(stage, 0.0) for stage, metric in STAGE_METRICS.items()}
    out["corpus.load_s"] = total("corpus.load")
    out["training.train_model_s"] = total("training.train_model")
    out["training.train_model.self_s"] = own("training.train_model")
    out["training.validation_s"] = total("training.validation")
    out["training.tokens_per_s"] = _ratio(counts.get("training.tokens", 0),
                                          total("training.train_model"))
    out["training.epochs_run"] = counts.get("training.epochs_run", 0)
    out["autodiff.backward_s"] = own("autodiff.backward")
    for label in BACKWARD_OPS.values():
        out[f"autodiff.{label}.bwd_s"] = total(f"autodiff.{label}.bwd")
    out["autodiff.param_grads_s"] = total("autodiff.param_grads")
    for op in FORWARD_OPS:
        out[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}.fwd")
        out[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}.fwd")
    out["autodiff.tapes"] = counts.get("autodiff.tapes", 0)
    out["nn.adam_step_s"] = total("nn.adam_step")
    out["nn.clip_global_norm_s"] = total("nn.clip_global_norm")
    out["nn.checkpoint_io_s"] = total("nn.checkpoint_io")
    tokens = counts.get("models.generated_tokens", 0)
    out["models.generate_s"] = total("models.generate")
    out["models.generate.self_s"] = own("models.generate")
    out["models.generated_tokens"] = tokens
    out["models.generate.tokens_per_s"] = _ratio(tokens, total("models.generate"))
    # forward tapes per token, over the decoders that run tapes
    out["models.generate.passes_per_token"] = _ratio(
        counts.get("models.generate.passes", 0), counts.get("models.generate.neural_tokens", 0))
    out["models.predict_rating.calls"] = counts.get("models.predict_rating.calls", 0)
    scored = counts.get("models.scored_texts", 0)
    out["models.perplexity_many_s"] = total("models.perplexity_many")
    out["models.perplexity_many.self_s"] = own("models.perplexity_many")
    out["models.scored_texts"] = scored
    out["models.scored_texts_per_s"] = _ratio(scored, total("models.perplexity_many"))
    out["models.duplicate_request_ratio"] = _ratio(
        scored - distinct.get("models.requests", 0), scored)
    rewrites = calls("perturb.substitute_aspect")
    out["perturb.substitute_aspect.calls"] = rewrites
    out["perturb.substitute_aspect_s"] = total("perturb.substitute_aspect")
    out["perturb.negate_sentiment.calls"] = calls("perturb.negate_sentiment")
    out["perturb.rewrite_reuse_ratio"] = _ratio(distinct.get("perturb.rewrites", 0), rewrites)
    out["lexicon.is_aspect.calls"] = counts.get("lexicon.is_aspect.calls", 0)
    for cell in METRIC_CELLS:
        out[f"metrics.{cell}_s"] = total(f"metrics.{cell}")
    out["metrics.mrr_ae.self_s"] = own("metrics.mrr_ae")
    out["metrics.aux_regressor_s"] = total("metrics.aux_regressor")
    out["metrics.embeddings_s"] = total("metrics.embeddings")
    out["metrics.bigram_s"] = total("metrics.bigram")
    return out

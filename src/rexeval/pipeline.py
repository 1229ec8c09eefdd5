"""Config-driven evaluation pipeline over a fixed artifact layout.

Five stages, each resumable from the run directory alone: gen-corpus,
train, generate, evaluate, report. Every stage revalidates the lineage
hash stored in meta.json, so artifacts produced under one configuration
abort any stage invoked under another instead of silently mixing runs.
Generate and evaluate build every model from its roster entry, as train
does; a trained one then takes its values from its checkpoint.
All artifacts are written deterministically (seeded generators, the
exact bytes of each parameter store in checkpoints, repr floats
elsewhere, sorted keys); wall-clock timing, peak memory and page faults
go to a sidecar file that is not part of the run's identity. The first
stage a process enters fixes glibc's heap policy for the rest of the
process (`fix_heap_policy`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

from .config import RunConfig, lineage_hash
from .corpus import build_corpus, generate_world, load_corpus, load_world, save_corpus, save_world
from .lexicon import load_lexicon
from .metrics import HELPERS, AuditWriter, CellInputs, mrr_ae_eligible, selected_cells
from .models import KINDS
from .nn import load_checkpoint, load_into, save_checkpoint
from .report import EvaluationReport, ModelRow, format_table
from .training import train_model

CORPUS_FILE = "corpus.tsv"
WORLD_FILE = "world.json"
META_FILE = "meta.json"
CKPT_DIR = "checkpoints"
TRAIN_LOG_DIR = "train_logs"
GEN_DIR = "gens"
AUDIT_DIR = "audit"
RESULTS_FILE = "results.json"
REPORT_TXT = "report.txt"
TIMING_FILE = "timing.txt"


class StageError(RuntimeError):
    """Pipeline failure attributed to the stage that detected it."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"[{stage}] {reason}")
        self.stage = stage
        self.reason = reason


# mallopt parameters (glibc's malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Above the largest array of one training or scoring batch, so every such
# array comes from the heap instead of its own mmap; 32 MiB is also the
# largest value glibc takes on a 64-bit host.
MMAP_THRESHOLD = 32 << 20
# Above one batch's working set, so the memory a batch frees stays in the
# heap for the next batch instead of going back to the kernel and being
# faulted in again.
TRIM_THRESHOLD = 256 << 20


def _libc():
    """The C library of this process."""
    return ctypes.CDLL(None)


@functools.cache
def fix_heap_policy() -> bool:
    """Fix the mmap and trim thresholds of glibc's malloc, once per process.

    Left to itself, glibc raises its mmap threshold and trims its heap as
    the allocation history goes, so each batch's freed working set can go
    back to the kernel and be faulted in again by the next batch. Fixed
    thresholds make the freed memory serve the next batch. This changes
    time and memory, never a bit of any result. Returns whether both
    thresholds were set; a C library without `mallopt` is left as it is.
    """
    try:
        mallopt = _libc().mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


@contextlib.contextmanager
def _stage(stage: str):
    """Enter a stage: fix the heap policy if no stage of this process has,
    and attribute any failure to the stage."""
    fix_heap_policy()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, f"{type(exc).__name__}: {exc}") from exc


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def model_seed(base: int, name: str) -> int:
    """Per-model seed tied to the model's name, not its roster position,
    so selecting or reordering models never changes anyone's stream."""
    digest = hashlib.blake2b(f"{base}:{name}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


# ----------------------------------------------------------------------
# artifact loading


def _read_meta(config: RunConfig, stage: str) -> dict:
    path = Path(config.out_dir) / META_FILE
    if not path.exists():
        raise StageError(stage, f"no corpus artifacts in {config.out_dir}; "
                                "run the gen-corpus stage first")
    meta = json.loads(path.read_text(encoding="utf-8"))
    expected = lineage_hash(config)
    found = meta.get("config_hash", "")
    if found != expected:
        raise StageError(stage, "config hash mismatch: run directory holds artifacts for "
                                f"{found[:12]}.. but this configuration hashes to "
                                f"{expected[:12]}..; regenerate or use another --out")
    return meta


def _check_lineage(stage: str, artifact: str, found, lineage: str, rerun: str) -> None:
    """Fail `stage` unless a per-model artifact (a checkpoint, a gens file,
    a train log, results.json) carries this run's lineage hash."""
    if found != lineage:
        raise StageError(stage, f"{artifact} belongs to a different configuration; "
                                f"rerun the {rerun} stage")


def _load_corpus_artifacts(config: RunConfig, stage: str):
    out = Path(config.out_dir)
    meta = _read_meta(config, stage)
    corpus_path = out / CORPUS_FILE
    if not corpus_path.exists():
        raise StageError(stage, f"{CORPUS_FILE} missing from {config.out_dir}; "
                                "run the gen-corpus stage first")
    if _sha256_file(corpus_path) != meta["corpus_fingerprint"]:
        raise StageError(stage, f"{CORPUS_FILE} was modified after generation "
                                "(fingerprint mismatch); rerun the gen-corpus stage")
    lexicon = load_lexicon(config.corpus.lexicon_path)
    corpus = load_corpus(corpus_path, lexicon)
    world_path = out / WORLD_FILE
    if world_path.exists():
        corpus.world = load_world(world_path, lexicon)
    return corpus, lexicon, meta


# ----------------------------------------------------------------------
# model construction


def build_model(spec, config: RunConfig, corpus, lexicon):
    """Construct an untrained model for one roster entry."""
    return KINDS[spec.kind].build(corpus, lexicon, model_seed(config.seeds.model, spec.name),
                                  *spec.settings)


def _materialize_models(config: RunConfig, corpus, lexicon, stage: str,
                        lineage: str) -> dict:
    """Build every active model from its roster entry, as the train stage
    does, and copy each trained one's values in from its checkpoint."""
    models = {}
    for spec in config.active_models:
        model = models[spec.name] = build_model(spec, config, corpus, lexicon)
        if not spec.trainable:
            continue
        path = Path(config.out_dir) / CKPT_DIR / f"{spec.name}.ckpt"
        if not path.exists():
            raise StageError(stage, f"missing checkpoint for '{spec.name}'; "
                                    "run the train stage first")
        header, values = load_checkpoint(path)
        _check_lineage(stage, f"checkpoint for '{spec.name}'", header.get("config_hash"),
                       lineage, "train")
        load_into(model.store, header, values, path)
    return models


# ----------------------------------------------------------------------
# stages


def stage_gen_corpus(config: RunConfig, log=None):
    out = Path(config.out_dir)
    with _stage("gen-corpus"):
        out.mkdir(parents=True, exist_ok=True)
        spec = config.corpus
        lexicon = load_lexicon(spec.lexicon_path)
        corpus_path = out / CORPUS_FILE
        world_path = out / WORLD_FILE
        if spec.external_path is not None:
            corpus = load_corpus(spec.external_path, lexicon)
            if Path(spec.external_path).resolve() != corpus_path.resolve():
                shutil.copyfile(spec.external_path, corpus_path)
            world_path.unlink(missing_ok=True)
        else:
            world = generate_world(spec.users, spec.items, spec.aspects,
                                   config.seeds.corpus, lexicon,
                                   spec.affinity_gain, spec.offtopic_rate)
            corpus = build_corpus(world, spec.reviews_per_user, spec.splits,
                                  seed=config.seeds.corpus)
            save_corpus(corpus, corpus_path)
            save_world(world, world_path)
        meta = {
            "config_hash": lineage_hash(config),
            "corpus_fingerprint": _sha256_file(corpus_path),
            "seeds": {"corpus": config.seeds.corpus, "model": config.seeds.model,
                      "eval": config.seeds.eval},
            "counts": {"train": len(corpus.train), "validation": len(corpus.validation),
                       "test": len(corpus.test), "vocab": len(corpus.vocab)},
        }
        _write_json(out / META_FILE, meta)
    if log:
        log(f"[gen-corpus] {meta['counts']['train']}/{meta['counts']['validation']}/"
            f"{meta['counts']['test']} reviews (vocab {meta['counts']['vocab']})")
    return corpus


def stage_train(config: RunConfig, log=None) -> dict:
    out = Path(config.out_dir)
    histories: dict[str, list] = {}
    with _stage("train"):
        corpus, lexicon, meta = _load_corpus_artifacts(config, "train")
        lineage = meta["config_hash"]
        if "mrr_ae" in config.metrics.metrics:
            # a k the evaluation pool cannot supply fails before any training
            mrr_ae_eligible(_evaluation_pool(config, corpus), lexicon, config.metrics.k)
        ckpt_dir = out / CKPT_DIR
        log_dir = out / TRAIN_LOG_DIR
        ckpt_dir.mkdir(exist_ok=True)
        log_dir.mkdir(exist_ok=True)
        for spec in config.active_models:
            if not spec.trainable:
                continue
            model = build_model(spec, config, corpus, lexicon)
            _, tconfig = spec.settings
            prefixed = (lambda m: log(f"[train] {spec.name}: {m}")) if log else None
            history = train_model(model, corpus, tconfig, log=prefixed)
            save_checkpoint(ckpt_dir / f"{spec.name}.ckpt", model.store, model.seed, lineage)
            _write_json(log_dir / f"{spec.name}.json",
                        {"config_hash": lineage, "history": history,
                         "max_epochs": tconfig.epochs})
            histories[spec.name] = history
    return histories


def _evaluation_pool(config: RunConfig, corpus) -> list:
    return corpus.test[:min(config.metrics.n_explanations, len(corpus.test))]


def stage_generate(config: RunConfig, log=None) -> dict:
    out = Path(config.out_dir)
    generations: dict[str, list] = {}
    with _stage("generate"):
        corpus, lexicon, meta = _load_corpus_artifacts(config, "generate")
        lineage = meta["config_hash"]
        models = _materialize_models(config, corpus, lexicon, "generate", lineage)
        pool = _evaluation_pool(config, corpus)
        if not pool:
            raise StageError("generate", "empty test split: nothing to explain")
        gen_dir = out / GEN_DIR
        gen_dir.mkdir(exist_ok=True)
        for spec in config.active_models:
            model = models[spec.name]
            requests = [(review.user, review.item,
                         review.aspect if model.conditions_on_aspect else None)
                        for review in pool]
            rows = [(review.user, review.item, float(rating), tokens)
                    for review, (rating, tokens) in zip(pool, model.explain_many(requests))]
            with open(gen_dir / f"{spec.name}.tsv", "w", encoding="utf-8") as fh:
                fh.write(f"# config {lineage}\n")
                for user, item, rating, tokens in rows:
                    fh.write(f"{user}\t{item}\t{rating!r}\t{' '.join(tokens)}\n")
            generations[spec.name] = rows
            if log:
                log(f"[generate] {spec.name}: {len(rows)} explanations")
    return generations


def _read_generations(path: Path, pool, lineage: str, name: str) -> list:
    if not path.exists():
        raise StageError("evaluate", f"missing generations for '{name}'; "
                                     "run the generate stage first")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("# config "):
                _check_lineage("evaluate", f"generations for '{name}'",
                               line.removeprefix("# config "), lineage, "generate")
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise StageError("evaluate", f"{path}:{lineno}: expected 4 fields")
            try:
                rows.append((int(fields[0]), int(fields[1]), float(fields[2]),
                             tuple(fields[3].split())))
            except ValueError as exc:
                raise StageError("evaluate", f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(rows[-1][2]):
                raise StageError("evaluate", f"{path}:{lineno}: non-finite rating "
                                             f"{fields[2]!r}")
    if len(rows) < len(pool):
        raise StageError("evaluate", f"generations for '{name}' cover {len(rows)} pairs "
                                     f"but the pool needs {len(pool)}; rerun the "
                                     "generate stage")
    for row, review in zip(rows, pool):
        if (row[0], row[1]) != (review.user, review.item):
            raise StageError("evaluate", f"generations for '{name}' do not align with "
                                         "the evaluation pool; rerun the generate stage")
    return rows[:len(pool)]


def stage_evaluate(config: RunConfig, log=None) -> EvaluationReport:
    out = Path(config.out_dir)
    settings = config.metrics
    cells = selected_cells(settings)
    with _stage("evaluate"):
        corpus, lexicon, meta = _load_corpus_artifacts(config, "evaluate")
        lineage = meta["config_hash"]
        models = (_materialize_models(config, corpus, lexicon, "evaluate", lineage)
                  if any(cell.scores_model for cell in cells) else {})
        pool = _evaluation_pool(config, corpus)
        if not pool:
            raise StageError("evaluate", "empty test split: nothing to evaluate")

        gens = {}
        if any(cell.reads_gens for cell in cells):
            for spec in config.active_models:
                gens[spec.name] = _read_generations(out / GEN_DIR / f"{spec.name}.tsv",
                                                    pool, lineage, spec.name)

        helper_log = (lambda m: log(f"[evaluate] {m}")) if log else None
        needed = {cell.helper for cell in cells}
        shared = CellInputs(pool, lexicon, settings, config.seeds.eval, {})
        helpers = {name: build(corpus, shared, helper_log)
                   for name, build in HELPERS.items() if name in needed}
        regressor = helpers.get("regressor")
        if log and regressor:
            log(f"[evaluate] regressor validation mse {regressor.validation_mse:.4f}")
        shared = shared._replace(helpers=helpers)

        # no earlier results or audit log outlives this evaluate, even a
        # failed one, to disagree with what it writes
        (out / RESULTS_FILE).unlink(missing_ok=True)
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(out / AUDIT_DIR)
        rows = []
        cell_seconds = {}
        for spec in config.active_models:
            inputs = shared._replace(model=models.get(spec.name), gens=gens.get(spec.name))
            results: dict = {}
            for cell in cells:
                audit = AuditWriter() if settings.audit else None
                started = time.perf_counter()
                try:
                    results[cell.key] = cell.compute(inputs, audit)
                except Exception as exc:
                    raise StageError("evaluate", f"model '{spec.name}', cell '{cell.key}': "
                                                 f"{type(exc).__name__}: {exc}") from exc
                seconds = cell_seconds[spec.name, cell.key] = time.perf_counter() - started
                if log:
                    log(f"[evaluate] {spec.name} {cell.key} {seconds:.3f} s")
                if audit is not None:
                    cell_dir = out / AUDIT_DIR / spec.name
                    cell_dir.mkdir(parents=True, exist_ok=True)
                    audit.dump(cell_dir / f"{cell.key}.tsv")
            rows.append(ModelRow(model=spec.name, privileged=spec.privileged,
                                 note=spec.note, cells=results))
            if log:
                summary = " ".join(f"{k}={c.value:.3f}" for k, c in results.items())
                log(f"[evaluate] {spec.name}: {summary}")

        report = EvaluationReport(
            config_hash=lineage,
            corpus_fingerprint=meta["corpus_fingerprint"],
            seeds={"corpus": config.seeds.corpus, "model": config.seeds.model,
                   "eval": config.seeds.eval},
            settings={
                "metrics": ",".join(settings.metrics),
                "k": settings.k,
                "pool": len(pool),
                "air_mode": settings.air_mode,
                "tlae_mode": settings.tlae_mode,
                "cnll_weight": settings.cnll_weight,
                "embed_dim": settings.embed_dim,
            },
            regressor_validation_mse=regressor.validation_mse if regressor else None,
            rows=rows,
            cell_seconds=cell_seconds,
        )
        report.save(out / RESULTS_FILE)
    return report


def _training_summaries(config: RunConfig, report: EvaluationReport) -> dict:
    """(epochs run, configured maximum, best epoch) of each reported model
    that has a train log; the best epoch is the first with the lowest
    validation joint loss, the one `train_model` restores."""
    summaries = {}
    for row in report.rows:
        path = Path(config.out_dir) / TRAIN_LOG_DIR / f"{row.model}.json"
        if not path.exists():
            continue
        train_log = json.loads(path.read_text(encoding="utf-8"))
        _check_lineage("report", f"train log for '{row.model}'", train_log["config_hash"],
                       report.config_hash, "train")
        history = train_log["history"]
        best = min(history, key=lambda entry: entry["val_joint"])["epoch"]
        summaries[row.model] = (len(history), train_log["max_epochs"], best)
    return summaries


def stage_report(config: RunConfig, log=None) -> EvaluationReport:
    out = Path(config.out_dir)
    with _stage("report"):
        lineage = _read_meta(config, "report")["config_hash"]
        results_path = out / RESULTS_FILE
        if not results_path.exists():
            raise StageError("report", "no evaluation results; run the evaluate stage first")
        report = EvaluationReport.load(results_path)
        _check_lineage("report", RESULTS_FILE, report.config_hash, lineage, "evaluate")
        report.training = _training_summaries(config, report)
        (out / REPORT_TXT).write_text(format_table(report), encoding="utf-8")
    if log:
        log(f"[report] wrote {REPORT_TXT}")
    return report


def _peak_rss_mb(usage) -> float:
    """The process's peak resident set size in MB (`ru_maxrss` is in KiB
    on Linux and in bytes on macOS)."""
    return usage.ru_maxrss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


# every stage, in run order, by its command name
STAGES = {
    "gen-corpus": stage_gen_corpus,
    "train": stage_train,
    "generate": stage_generate,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


def run_pipeline(config: RunConfig, log=None) -> EvaluationReport:
    """All five stages in order, plus a timing sidecar with the wall
    seconds of the whole run and, per stage, its seconds, the process's
    peak RSS at its end (a high-water mark, so it never falls) and the
    minor page faults the process took during it. The evaluate stage's
    lines are followed by the seconds of each (model, cell), in roster
    and column order."""
    started = time.perf_counter()
    lines = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for name, stage in STAGES.items():
        stage_started = time.perf_counter()
        report = stage(config, log)
        seconds = time.perf_counter() - stage_started
        usage = resource.getrusage(resource.RUSAGE_SELF)
        lines.append(f"{name}_seconds {seconds:.3f}\n")
        lines.append(f"{name}_peak_rss_mb {_peak_rss_mb(usage):.1f}\n")
        lines.append(f"{name}_minor_faults {usage.ru_minflt - faults}\n")
        faults = usage.ru_minflt
        if name == "evaluate":
            lines += [f"evaluate.{model}.{key}_seconds {cell_s:.3f}\n"
                      for (model, key), cell_s in report.cell_seconds.items()]
    report.wall_time_seconds = time.perf_counter() - started
    (Path(config.out_dir) / TIMING_FILE).write_text(
        f"wall_time_seconds {report.wall_time_seconds:.3f}\n" + "".join(lines),
        encoding="utf-8")
    return report

"""Correctness gate, artifact digests, work counts and platform fingerprint.

Everything here reads a finished run directory; nothing runs inside the
timed region. A report cell (model x cell key) is the unit of failure:
a cell fails when its run raised, when its audit log does not recompute
to the reported value, when the oracle misses its bound, or when its
bytes differ from the first repetition at the same seed.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy
from rexeval.corpus import load_corpus
from rexeval.lexicon import load_lexicon
from rexeval.perturb import substitute_aspect
from rexeval.report import AuditMismatch, EvaluationReport, verify_against_audit

# acceptance criterion 4: the oracle's bounds on the cells it computes.
# Its MRR-AE is checked row by row instead, by oracle_mrr_ae_problems.
ORACLE_BOUNDS = {"air": (">=", 99.0), "entail": (">=", 99.0), "rmse": ("<=", 0.1)}
ORACLE = "oracle"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(run_dir) -> dict[str, str]:
    """SHA-256 of results.json, gens/*.tsv and audit/**/*.tsv, by relative path."""
    run = Path(run_dir)
    paths = [run / "results.json"] if (run / "results.json").exists() else []
    paths += sorted(run.glob("gens/*.tsv")) + sorted(run.glob("audit/**/*.tsv"))
    return {p.relative_to(run).as_posix(): sha256(p) for p in paths}


def _cell_of(relpath: str, models) -> list[tuple[str, str]] | None:
    """The cells a differing artifact belongs to; None for all of them."""
    parts = relpath.split("/")
    if parts[0] == "audit" and len(parts) == 3:
        return [(parts[1], parts[2].removesuffix(".tsv"))]
    if parts[0] == "gens" and len(parts) == 2:
        model = parts[1].removesuffix(".tsv")
        return [(model, None)] if model in models else []
    return None


def check_run(run_dir, operations, reference=None) -> tuple[set, list[str]]:
    """Failed cells of one finished run, with one reason per finding.

    `reference` is the first repetition's {"digests", "results"}; when
    given, every byte difference from it fails the cells it touches.
    """
    run = Path(run_dir)
    operations = list(operations)
    failed: set = set()
    reasons: list[str] = []
    results_path = run / "results.json"
    if not results_path.exists():
        return set(operations), ["no results.json"]
    report = EvaluationReport.load(results_path)
    for model, cell in operations:
        try:
            value = report.row(model).cells[cell].value
        except KeyError:
            failed.add((model, cell))
            reasons.append(f"{model}/{cell}: missing from results.json")
            continue
        try:
            verify_against_audit(report, run / "audit", cells=[(model, cell)])
        except AuditMismatch as exc:
            failed.add((model, cell))
            reasons.append(f"audit: {exc}")
        if model == ORACLE and cell == "mrr_ae":
            problems = oracle_mrr_ae_problems(run)
            if problems:
                failed.add((model, cell))
                reasons += problems
        bound = ORACLE_BOUNDS.get(cell) if model == ORACLE else None
        if bound is not None:
            op, limit = bound
            if not (value >= limit if op == ">=" else value <= limit):
                failed.add((model, cell))
                reasons.append(f"oracle {cell} = {value!r}, bound {op} {limit}")

    if reference is not None:
        models = {m for m, _ in operations}
        mine = digests(run)
        differing = sorted(p for p in set(mine) | set(reference["digests"])
                           if mine.get(p) != reference["digests"].get(p))
        for relpath in differing:
            owners = _cell_of(relpath, models)
            if relpath == "results.json":
                owners = _results_diff(report.to_dict(), reference["results"])
            if owners is None:
                owners = operations
            hit = [op for op in operations for model, cell in owners
                   if op[0] == model and (cell is None or op[1] == cell)]
            # a differing file that belongs to no checked cell fails them all
            failed.update(hit or operations)
            reasons.append(f"bytes of {relpath} differ from the first repetition")
    return failed, reasons


def mrr_ae_ties(run_dir) -> list[int]:
    """For each review of the evaluation pool, how many other pool texts
    MRR-AE's aspect rewrite turns into exactly that review's text.

    The oracle scores such a rewrite like the gold itself, and the gold
    takes the worst rank among ties, so only these can rank the oracle's
    gold below first. On a pool of a few dozen reviews one tie costs
    about one MRR-AE point, so criterion 4's bound of 99, set for the
    default pool, does not carry over. Runs use the packaged lexicon.
    """
    run = Path(run_dir)
    lexicon = load_lexicon()
    settings = json.loads((run / "results.json").read_text(encoding="utf-8"))["settings"]
    pool = load_corpus(run / "corpus.tsv", lexicon).test[:int(settings["pool"])]
    ties = []
    for gold in pool:
        count = 0
        for other in pool:
            if other.text == gold.text:
                continue
            pair = substitute_aspect(other.tokens, gold.aspect, lexicon)
            count += pair is not None and pair.perturbed == tuple(gold.tokens)
        ties.append(count)
    return ties


def oracle_mrr_ae_problems(run_dir) -> list[str]:
    """The oracle's MRR-AE audit rows that rank its gold text worse than
    its ties allow, or score the gold other than perplexity one."""
    run = Path(run_dir)
    lines = (run / "audit" / ORACLE / "mrr_ae.tsv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:] if line]
    ties = mrr_ae_ties(run)
    if len(rows) != len(ties):
        return [f"oracle mrr_ae: {len(rows)} audit rows for a pool of {len(ties)}"]
    problems = []
    for index, (row, tied) in enumerate(zip(rows, ties)):
        rank, ppl = int(row["rank"]), float(row["ppl_gold"])
        if ppl != 1.0 or not 1 <= rank <= 1 + tied:
            problems.append(f"oracle mrr_ae row {index} ({row['instance']}): rank {rank}, "
                            f"ppl_gold {ppl!r}, {tied} tied rewrites in the pool")
    return problems


def _results_diff(mine: dict, ref: dict):
    """Cells whose entries differ between two results.json payloads, or
    None when something outside the cells differs."""
    if {k: v for k, v in mine.items() if k != "rows"} != {k: v for k, v in ref.items()
                                                         if k != "rows"}:
        return None
    a, b = ({(row["model"], key): cell for row in d["rows"] for key, cell in row["cells"].items()}
            for d in (mine, ref))
    diff = [op for op in set(a) | set(b) if a.get(op) != b.get(op)]
    return diff or None


def reference_of(run_dir) -> dict:
    run = Path(run_dir)
    return {"digests": digests(run),
            "results": json.loads((run / "results.json").read_text(encoding="utf-8"))}


def artifact_digest(digest_map: dict, prefix: str) -> str:
    """One SHA-256 over the per-file digests under a prefix, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in digest_map if p.startswith(prefix)):
        h.update(f"{path} {digest_map[path]}\n".encode())
    return h.hexdigest()


def work_counts(run_dir) -> dict[str, int]:
    """Work done by one run, derived from its artifacts alone."""
    run = Path(run_dir)
    corpus = load_corpus(run / "corpus.tsv")
    per_epoch = sum(len(r.tokens) + 1 for r in corpus.train)
    epochs = 0
    for log in sorted(run.glob("train_logs/*.json")):
        epochs += len(json.loads(log.read_text(encoding="utf-8"))["history"])
    generated = 0
    for gens in sorted(run.glob("gens/*.tsv")):
        for line in gens.read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                generated += len(line.split("\t")[3].split())
    results = json.loads((run / "results.json").read_text(encoding="utf-8"))
    k = int(results["settings"]["k"])
    scored = 0
    for row in results["rows"]:
        cells = row["cells"]
        if "mrr_ae" in cells:
            scored += cells["mrr_ae"]["count"] * (k + 1)
        if "air" in cells:
            scored += cells["air"]["count"] * 2
    return {"training_tokens": per_epoch * epochs, "epochs_run": epochs,
            "generated_tokens": generated, "scored_texts": scored}


# ----------------------------------------------------------------------
# platform fingerprint


def _blas_threads() -> int | None:
    """Effective OpenBLAS thread count of this process, when it can be asked."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    threads = _blas_threads()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else "unknown",
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }

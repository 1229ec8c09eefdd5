"""Evaluation reports: a lossless JSON form and a plain-text table.

The table's columns come from `metrics.CELLS`; it marks the per-column
best among non-privileged models and footnotes every cell that excluded
instances. The JSON form carries every MetricResult so any cell can be
traced back to its inputs, and `verify_against_audit` recomputes cells
from per-instance audit logs with each cell's reduction in `CELLS`, the
one that gave the reported value, so the two must be equal. The audit
log format is this module's alone: `write_audit` writes a metric's rows
and `_read_audit` reads them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import CELLS, CELLS_BY_KEY, HIGHER, MetricResult


@dataclass
class ModelRow:
    model: str
    privileged: bool
    note: str
    cells: dict[str, MetricResult]

    def to_dict(self) -> dict:
        return {"model": self.model, "privileged": self.privileged, "note": self.note,
                "cells": {key: cell.to_dict() for key, cell in self.cells.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelRow":
        return cls(d["model"], d["privileged"], d.get("note", ""),
                   {key: MetricResult.from_dict(c) for key, c in d["cells"].items()})


@dataclass
class EvaluationReport:
    config_hash: str
    corpus_fingerprint: str
    seeds: dict[str, int]
    settings: dict
    regressor_validation_mse: float | None
    rows: list[ModelRow]
    # measured, not part of the report's identity: never serialized, never compared
    wall_time_seconds: float | None = field(default=None, compare=False)
    # model -> (epochs run, configured maximum, best epoch), from the train logs
    training: dict[str, tuple[int, int, int]] = field(default_factory=dict, compare=False)
    # (model, cell key) -> seconds the evaluate stage spent on the cell; measured,
    # never serialized
    cell_seconds: dict[tuple[str, str], float] = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "corpus_fingerprint": self.corpus_fingerprint,
            "seeds": dict(self.seeds),
            "settings": dict(self.settings),
            "regressor_validation_mse": self.regressor_validation_mse,
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvaluationReport":
        return cls(d["config_hash"], d["corpus_fingerprint"], dict(d["seeds"]),
                   dict(d["settings"]), d.get("regressor_validation_mse"),
                   [ModelRow.from_dict(r) for r in d["rows"]])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EvaluationReport":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EvaluationReport":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def row(self, model: str) -> ModelRow:
        for r in self.rows:
            if r.model == model:
                return r
        raise KeyError(f"no row for model '{model}'")


def _best_values(report: EvaluationReport, column) -> float | None:
    """Best value in a column among non-privileged rows."""
    contenders = [row.cells[column.key].value for row in report.rows
                  if not row.privileged and column.key in row.cells]
    if not contenders:
        return None
    return max(contenders) if column.direction == HIGHER else min(contenders)


def format_table(report: EvaluationReport) -> str:
    columns = [c for c in CELLS if any(c.key in row.cells for row in report.rows)]
    best = {c.key: _best_values(report, c) for c in columns}

    footnotes: list[str] = []
    grid: list[list[str]] = []
    for row in report.rows:
        name = row.model + (" (privileged)" if row.privileged else "")
        rendered = [name]
        for column in columns:
            cell = row.cells.get(column.key)
            if cell is None:
                rendered.append("-")
                continue
            text = column.fmt.format(cell.value)
            if not row.privileged and cell.value == best[column.key]:
                text = f"*{text}*"
            if cell.excluded > 0:
                footnotes.append(f"[{len(footnotes) + 1}] {row.model} {column.key}: "
                                 f"{cell.excluded} of {cell.attempted} instances excluded")
                text += f"[{len(footnotes)}]"
            rendered.append(text)
        grid.append(rendered)

    headers = ["model"] + [c.header + ("↑" if c.direction == HIGHER else "↓")
                           for c in columns]
    widths = [max(len(headers[c]), *(len(g[c]) for g in grid)) for c in range(len(headers))]
    lines = [
        "explanation faithfulness and coherence report",
        f"config hash: {report.config_hash}",
        f"corpus fingerprint: {report.corpus_fingerprint}",
        "seeds: " + " ".join(f"{k}={v}" for k, v in sorted(report.seeds.items())),
        "settings: " + " ".join(f"{k}={v}" for k, v in sorted(report.settings.items())),
    ]
    if report.regressor_validation_mse is not None:
        lines.append(f"aux regressor validation mse: {report.regressor_validation_mse:.4f}")
    lines.append("")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for rendered in grid:
        lines.append("  ".join(v.ljust(w) for v, w in zip(rendered, widths)).rstrip())
    lines.append("")
    lines.append("*value* marks the per-column best among non-privileged models.")
    lines.extend(footnotes)
    for row in report.rows:
        if row.note:
            lines.append(f"note {row.model}: {row.note}")
    for model, (run, maximum, best) in report.training.items():
        lines.append(f"training {model}: {run} of {maximum} epochs run, best epoch {best}")
    return "\n".join(lines) + "\n"


class AuditMismatch(ValueError):
    pass


def _audit_field(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_audit(path, rows: list[dict]) -> None:
    """Audit rows as TSV: a header of the first row's keys, then one line
    per row, bools as 1/0, floats by `repr` and anything else by `str`."""
    columns = list(rows[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(_audit_field(row[c]) for c in columns) + "\n")


def _read_audit(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return []
    columns = lines[0].split("\t")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise AuditMismatch(f"{path}: line {number} has {len(fields)} fields, "
                                f"the header {len(columns)}")
        rows.append(dict(zip(columns, fields)))
    return rows


def _unexplained_ranks(rows: list[dict]) -> list[str]:
    """MRR-AE rows whose best impostor does not account for the rank: the
    gold ranks first exactly when every impostor scores a higher
    perplexity."""
    return [r["instance"] for r in rows
            if (float(r["ppl_best_impostor"]) > float(r["ppl_gold"])) != (int(r["rank"]) == 1)]


def _recompute(cell, name: str, rows: list[dict], path: Path) -> tuple[float, list[str]]:
    """The cell's value from its audit rows, and for MRR-AE the instances
    whose rank the best impostor does not explain. A missing column or a
    field that does not parse raises AuditMismatch naming the file, and
    for a field its first such line."""
    def read(rows):
        return cell.reduce(rows), (_unexplained_ranks(rows) if name == "mrr_ae" else [])
    try:
        return read(rows)
    except KeyError as exc:
        raise AuditMismatch(f"{path}: no column {exc}") from None
    except ValueError:
        for number, r in enumerate(rows, start=2):
            try:
                read([r])
            except ValueError as exc:
                raise AuditMismatch(f"{path}: line {number}: {exc}") from None
        raise


def verify_against_audit(report: EvaluationReport, audit_dir,
                         cells=None) -> list[tuple[str, str, float, float]]:
    """Recompute report cells from per-instance audit logs.

    `cells` optionally restricts the check to (model, column-key) pairs;
    by default every report cell is verified once any of them has an
    audit log, and a run without audit logs verifies nothing. Returns the
    checked (model, key, reported, recomputed) tuples and raises
    AuditMismatch on a checked cell without its log, a recomputed value
    not equal to the reported one or any instance-count mismatch.
    """
    audit_dir = Path(audit_dir)
    checked: list[tuple[str, str, float, float]] = []
    wanted = set(cells) if cells is not None else None
    if wanted is None and not any((audit_dir / row.model / f"{key}.tsv").exists()
                                  for row in report.rows for key in row.cells):
        return checked
    for row in report.rows:
        for key, cell in row.cells.items():
            if wanted is not None and (row.model, key) not in wanted:
                continue
            if key not in CELLS_BY_KEY:
                raise AuditMismatch(f"{row.model}/{key}: no audit recomputation rule "
                                    f"for cell '{key}'")
            path = audit_dir / row.model / f"{key}.tsv"
            if not path.exists():
                raise AuditMismatch(f"no audit log at {path}")
            rows = _read_audit(path)
            if len(rows) != cell.count:
                raise AuditMismatch(
                    f"{row.model}/{key}: audit has {len(rows)} instances, "
                    f"report says {cell.count}")
            recomputed, unexplained = _recompute(CELLS_BY_KEY[key], cell.name, rows, path)
            if recomputed != cell.value:
                raise AuditMismatch(
                    f"{row.model}/{key}: reported {cell.value!r} but audit "
                    f"recomputes to {recomputed!r}")
            if unexplained:
                raise AuditMismatch(
                    f"{row.model}/{key}: best impostor does not explain the rank "
                    f"of {len(unexplained)} instances, first {unexplained[0]}")
            checked.append((row.model, key, cell.value, recomputed))
    if wanted is not None and len(checked) < len(wanted):
        missing = wanted - {(m, k) for m, k, _, _ in checked}
        raise AuditMismatch(f"cells not found in report: {sorted(missing)}")
    return checked

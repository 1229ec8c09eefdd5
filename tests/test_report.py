"""Report serialization, table formatting, and audit-log verification."""

import math
import re
import shutil

import pytest

from rexeval.metrics import HIGHER, LOWER, AuditWriter, MetricResult
from rexeval.report import (AuditMismatch, EvaluationReport, ModelRow,
                            format_table, verify_against_audit)


def _result(name, value, count, excluded=0, direction=HIGHER):
    return MetricResult(name, value, count, excluded, direction)


def _small_report():
    alpha = ModelRow("alpha", privileged=False, note="", cells={
        "air": _result("air", 80.0, 10),
        "rmse": _result("rmse", 0.5, 4, direction=LOWER),
    })
    beta = ModelRow("beta", privileged=False, note="", cells={
        "air": _result("air", 95.0, 8, excluded=2),
    })
    oracle = ModelRow("oracle", privileged=True, note="reads the answer key", cells={
        "air": _result("air", 100.0, 10),
        "rmse": _result("rmse", 0.0, 4, direction=LOWER),
    })
    return EvaluationReport(
        config_hash="cfg123", corpus_fingerprint="fp456",
        seeds={"corpus": 11, "eval": 2}, settings={"k": 5},
        regressor_validation_mse=0.1234, rows=[alpha, beta, oracle],
        wall_time_seconds=9.5)


def test_report_json_round_trip(tmp_path):
    report = _small_report()
    again = EvaluationReport.from_json(report.to_json())
    assert again == report                     # wall time never compares
    assert again.wall_time_seconds is None     # ... and never serializes
    assert "wall_time" not in report.to_json()
    path = tmp_path / "report.json"
    report.save(path)
    assert EvaluationReport.load(path) == report
    assert report.row("beta").cells["air"].excluded == 2
    with pytest.raises(KeyError, match="gamma"):
        report.row("gamma")


def test_format_table_marks_best_and_footnotes():
    text = format_table(_small_report())
    lines = text.splitlines()
    assert "config hash: cfg123" in lines
    assert "corpus fingerprint: fp456" in lines
    assert "seeds: corpus=11 eval=2" in lines
    assert "settings: k=5" in lines
    assert "aux regressor validation mse: 0.1234" in lines
    header = next(l for l in lines if l.startswith("model"))
    assert "AIR↑" in header and "RMSE↓" in header
    assert "MRR-AE↑" not in header             # absent columns are dropped
    alpha = next(l for l in lines if l.startswith("alpha"))
    beta = next(l for l in lines if l.startswith("beta"))
    oracle = next(l for l in lines if l.startswith("oracle"))
    assert "*0.500*" in alpha                  # best rmse among non-privileged
    assert "*95.00*[1]" in beta                # best air, with an exclusion note
    assert beta.rstrip().endswith("-")         # beta has no rmse cell
    assert oracle.startswith("oracle (privileged)")
    assert "*100.00*" not in oracle            # privileged rows are never marked
    assert "[1] beta air: 2 of 10 instances excluded" in lines
    assert "note oracle: reads the answer key" in lines


def _write_audit(path, rows):
    writer = AuditWriter()
    for row in rows:
        writer(**row)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer.dump(path)


_MRR_AE_ROWS = [{"instance": "0:0", "rank": 1, "reciprocal_rank": 1.0, "ppl_gold": 2.0,
                 "n_candidates": 3, "best_impostor": 4, "ppl_best_impostor": 2.5},
                {"instance": "1:0", "rank": 2, "reciprocal_rank": 0.5, "ppl_gold": 2.0,
                 "n_candidates": 3, "best_impostor": 0, "ppl_best_impostor": 1.5}]


def _full_audit_report(tmp_path):
    audit = tmp_path / "audit"
    cells = {}

    _write_audit(audit / "alpha" / "air.tsv",
                 [{"instance": f"{j}:0", "ppl_original": 2.0, "ppl_negated": 3.0,
                   "flipped": j < 2} for j in range(10)])
    cells["air"] = _result("air", 80.0, 10)

    _write_audit(audit / "alpha" / "air_generated.tsv",
                 [{"instance": f"{j}:0", "ppl_original": 2.0, "ppl_negated": 1.0,
                   "flipped": j < 1} for j in range(4)])
    cells["air_generated"] = _result("air_generated", 75.0, 4)

    _write_audit(audit / "alpha" / "mrr_ae.tsv", _MRR_AE_ROWS)
    cells["mrr_ae"] = _result("mrr_ae", 75.0, 2)

    _write_audit(audit / "alpha" / "tlae.tsv",
                 [{"instance": "0:0", "squared_error": 0.25},
                  {"instance": "1:0", "squared_error": 0.75}])
    cells["tlae"] = _result("tlae", 0.5, 2, direction=LOWER)

    _write_audit(audit / "alpha" / "tlae_gold.tsv",
                 [{"instance": "0:0", "squared_error": 1.0}])
    cells["tlae_gold"] = _result("tlae_gold", 1.0, 1, direction=LOWER)

    _write_audit(audit / "alpha" / "entail.tsv",
                 [{"instance": f"{j}:0", "entailed": j % 2 == 0} for j in range(4)])
    cells["entail"] = _result("entail", 50.0, 4)

    _write_audit(audit / "alpha" / "gm_f1.tsv",
                 [{"instance": "0:0", "f1": 0.5}, {"instance": "1:0", "f1": 1.0}])
    cells["gm_f1"] = _result("gm_f1", 0.75, 2)

    _write_audit(audit / "alpha" / "cnll.tsv",
                 [{"instance": "0:0", "score": 1.0}, {"instance": "1:0", "score": 3.0}])
    cells["cnll"] = _result("cnll", 2.0, 2, direction=LOWER)

    _write_audit(audit / "alpha" / "rmse.tsv",
                 [{"instance": "0:0", "squared_error": 1.0},
                  {"instance": "1:0", "squared_error": 4.0}])
    cells["rmse"] = _result("rmse", math.sqrt(2.5), 2, direction=LOWER)

    _write_audit(audit / "beta" / "air.tsv",
                 [{"instance": f"{j}:0", "ppl_original": 2.0, "ppl_negated": 1.0,
                   "flipped": j < 1} for j in range(2)])
    rows = [ModelRow("alpha", False, "", cells),
            ModelRow("beta", False, "", {"air": _result("air", 50.0, 2)})]
    report = EvaluationReport("cfg", "fp", {}, {}, None, rows)
    return report, audit


def test_verify_against_audit_recomputes_every_cell(tmp_path):
    report, audit = _full_audit_report(tmp_path)
    checked = verify_against_audit(report, audit)
    assert [model for model, _, _, _ in checked] == ["alpha"] * 9 + ["beta"]
    for model, key, reported, recomputed in checked:
        assert reported == report.row(model).cells[key].value
        assert recomputed == reported


def test_verify_against_audit_detects_tampering(tmp_path):
    report, audit = _full_audit_report(tmp_path)
    report.row("alpha").cells["air"] = _result("air", 81.0, 10)
    with pytest.raises(AuditMismatch, match="recomputes to"):
        verify_against_audit(report, audit)

    report, audit = _full_audit_report(tmp_path / "two")
    report.row("alpha").cells["air"] = _result("air", 80.0, 9)
    with pytest.raises(AuditMismatch, match="audit has 10 instances"):
        verify_against_audit(report, audit)


def test_verify_against_audit_fails_a_value_one_ulp_off(tmp_path):
    report, audit = _full_audit_report(tmp_path)
    for row in report.rows:
        for key, cell in list(row.cells.items()):
            for toward in (math.inf, -math.inf):
                off = math.nextafter(cell.value, toward)
                row.cells[key] = _result(key, off, cell.count, direction=cell.direction)
                with pytest.raises(AuditMismatch, match=re.escape(
                        f"{row.model}/{key}: reported {off!r} but audit recomputes to "
                        f"{cell.value!r}")):
                    verify_against_audit(report, audit)
            row.cells[key] = cell
    assert len(verify_against_audit(report, audit)) == 10


def test_verify_against_audit_needs_every_log_of_an_audited_run(tmp_path):
    report, audit = _full_audit_report(tmp_path)
    (audit / "beta" / "air.tsv").unlink()
    with pytest.raises(AuditMismatch, match=re.escape(f"no audit log at {audit / 'beta' / 'air.tsv'}")):
        verify_against_audit(report, audit)
    # a run made without audit logs has nothing to verify
    shutil.rmtree(audit)
    assert verify_against_audit(report, audit) == []


def test_verify_against_audit_cell_selection(tmp_path):
    report, audit = _full_audit_report(tmp_path)
    checked = verify_against_audit(report, audit, cells=[("alpha", "air")])
    assert [(m, k) for m, k, _, _ in checked] == [("alpha", "air")]
    (audit / "beta" / "air.tsv").unlink()
    with pytest.raises(AuditMismatch, match="no audit log"):
        verify_against_audit(report, audit, cells=[("beta", "air")])
    with pytest.raises(AuditMismatch, match="not found in report"):
        verify_against_audit(report, audit, cells=[("alpha", "nope")])


def test_verify_against_audit_checks_the_best_impostor(tmp_path):
    rows = [dict(row) for row in _MRR_AE_ROWS]
    report = EvaluationReport("cfg", "fp", {}, {}, None, [
        ModelRow("alpha", False, "", {"mrr_ae": _result("mrr_ae", 75.0, 2)})])
    _write_audit(tmp_path / "alpha" / "mrr_ae.tsv", rows)
    assert len(verify_against_audit(report, tmp_path)) == 1

    # an impostor scoring worse than the gold cannot be what beat it
    rows[1]["ppl_best_impostor"] = 2.25
    _write_audit(tmp_path / "alpha" / "mrr_ae.tsv", rows)
    with pytest.raises(AuditMismatch, match="best impostor does not explain the rank "
                                            "of 1 instances, first 1:0"):
        verify_against_audit(report, tmp_path)


def test_an_mrr_ae_audit_without_its_best_impostor_columns_fails(tmp_path):
    report = EvaluationReport("cfg", "fp", {}, {}, None, [
        ModelRow("alpha", False, "", {"mrr_ae": _result("mrr_ae", 75.0, 2)})])
    path = tmp_path / "alpha" / "mrr_ae.tsv"
    _write_audit(path, [{k: v for k, v in row.items()
                         if k not in ("best_impostor", "ppl_best_impostor")}
                        for row in _MRR_AE_ROWS])
    with pytest.raises(AuditMismatch, match=re.escape(f"{path}: no column 'ppl_best_impostor'")):
        verify_against_audit(report, tmp_path)

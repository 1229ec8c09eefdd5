"""Self-tests for the benchmark harness: INI generation, self time, correctness gate.

Run with `python -m pytest perfbench` from the repository root.
"""

import shutil
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, render_ini  # noqa: E402

from rexeval.config import load_config  # noqa: E402
from rexeval.pipeline import (stage_evaluate, stage_gen_corpus, stage_generate,  # noqa: E402
                              stage_report)


# ----------------------------------------------------------------------
# workload INI


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ini_is_a_pure_function_of_workload_and_seed(name, tmp_path):
    workload = WORKLOADS[name]
    for seed in (0, 1, 12345):
        assert render_ini(workload, seed) == render_ini(workload, seed)
    assert render_ini(workload, 1) != render_ini(workload, 2)
    text = render_ini(workload, 7)
    assert "/" not in text.split("[output]")[1].split("\n")[1]
    path = tmp_path / "w.ini"
    path.write_text(text, encoding="utf-8")
    config = load_config(path)
    assert tuple(spec.name for spec in config.models) == workload.model_names
    assert config.metrics.audit
    assert config.seeds.corpus == 7


def test_stages_follow_the_cells():
    assert "generate" not in WORKLOADS["rank"].stages
    assert WORKLOADS["explain"].stages == ("gen-corpus", "train", "generate",
                                           "evaluate", "report")


# ----------------------------------------------------------------------
# span self time


def test_self_time_on_a_hand_built_span_tree():
    # 0 root [0, 10]; 1 child [1, 4]; 2 child [3, 6] overlaps 1;
    # 3 grandchild under 1 [2, 3]; 4 child [9, 12] runs past its parent
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = spans.self_times(start, end, parent)
    # root: 10 minus the union [1, 6] and [9, 10]
    assert got.tolist() == [4.0, 2.0, 3.0, 1.0, 3.0]
    summary = spans.summarize(["root", "kid"], [0, 1, 1, 1, 1], start, end, parent)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert summary["kid"] == {"calls": 4, "total_s": 10.0, "self_s": 9.0}


def test_recorder_nests_spans_and_keeps_results():
    rec = spans.Recorder("run-1")
    inner = rec.span("inner", lambda x: x + 1)
    outer = rec.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    arrays = rec.as_arrays()
    names = arrays["names"].tolist()
    assert [names[i] for i in arrays["name"]] == ["outer", "inner"]
    assert arrays["parent"].tolist() == [-1, 0]
    assert (arrays["end"] >= arrays["start"]).all()
    assert arrays["run_ids"].tolist() == ["run-1"]


# ----------------------------------------------------------------------
# correctness gate

GATE_INI = """\
[corpus]
users = 20
items = 12
aspects = 3
reviews_per_user = 10
splits = 0.7 0.1 0.2

[seeds]
corpus = 5
model = 6
eval = 7

[metrics]
metrics = air mrr_ae entail rmse
k = 3
n_explanations = 30
audit = true

[output]
dir = run

[model:oracle]
kind = oracle

[model:random]
kind = random
"""
GATE_OPS = [(m, c) for m in ("oracle", "random") for c in ("air", "mrr_ae", "entail", "rmse")]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("gate")
    ini = base / "gate.ini"
    ini.write_text(GATE_INI.replace("dir = run", f"dir = {base / 'run'}"), encoding="utf-8")
    config = load_config(ini)
    for stage in (stage_gen_corpus, stage_generate, stage_evaluate, stage_report):
        stage(config)
    return base / "run"


def _copy(run: Path, tmp_path: Path) -> Path:
    target = tmp_path / "copy"
    shutil.copytree(run, target)
    return target


def test_gate_passes_an_untouched_repetition(finished_run, tmp_path):
    reference = gate.reference_of(finished_run)
    assert gate.check_run(finished_run, GATE_OPS) == (set(), [])
    assert gate.check_run(_copy(finished_run, tmp_path), GATE_OPS, reference) == (set(), [])


def test_gate_flags_a_tampered_audit_row(finished_run, tmp_path):
    run = _copy(finished_run, tmp_path)
    audit = run / "audit" / "random" / "mrr_ae.tsv"
    lines = audit.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    col = header.index("reciprocal_rank")
    row[col] = "0.001" if row[col] != "0.001" else "0.5"
    lines[1] = "\t".join(row)
    audit.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failed, reasons = gate.check_run(run, GATE_OPS)
    assert failed == {("random", "mrr_ae")}
    assert any("audit" in r for r in reasons)


def test_gate_flags_a_repetition_whose_bytes_differ(finished_run, tmp_path):
    reference = gate.reference_of(finished_run)
    run = _copy(finished_run, tmp_path)
    gens = run / "gens" / "random.tsv"
    gens.write_text(gens.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    failed, reasons = gate.check_run(run, GATE_OPS, reference)
    assert failed == {op for op in GATE_OPS if op[0] == "random"}
    assert reasons == ["bytes of gens/random.tsv differ from the first repetition"]

    results = run / "results.json"
    results.write_text(results.read_text(encoding="utf-8") + " ", encoding="utf-8")
    failed, _ = gate.check_run(run, GATE_OPS, reference)
    assert failed == set(GATE_OPS)


def test_gate_flags_the_oracle_below_its_bound(finished_run, monkeypatch):
    monkeypatch.setitem(gate.ORACLE_BOUNDS, "rmse", ("<=", -1.0))
    failed, reasons = gate.check_run(finished_run, GATE_OPS)
    assert failed == {("oracle", "rmse")}
    assert reasons[0].startswith("oracle rmse")


def test_gate_flags_an_oracle_rank_its_ties_do_not_explain(finished_run, tmp_path):
    run = _copy(finished_run, tmp_path)
    assert sum(gate.mrr_ae_ties(run)) == 0
    audit = run / "audit" / "oracle" / "mrr_ae.tsv"
    lines = audit.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    row[header.index("rank")] = "2"
    lines[1] = "\t".join(row)
    audit.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert gate.oracle_mrr_ae_problems(run) == [
        f"oracle mrr_ae row 0 ({row[0]}): rank 2, ppl_gold 1.0, 0 tied rewrites in the pool"]
    failed, _ = gate.check_run(run, GATE_OPS)
    assert failed == {("oracle", "mrr_ae")}


def test_work_counts_come_from_artifacts(finished_run):
    work = gate.work_counts(finished_run)
    assert work["epochs_run"] == 0 and work["training_tokens"] == 0
    assert work["generated_tokens"] > 0
    # air pairs and mrr_ae candidate sets of both models, k = 3
    assert work["scored_texts"] > 2 * 30 * (3 + 1)

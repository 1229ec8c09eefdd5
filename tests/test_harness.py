"""Config parsing, lineage hashing, CLI, and pipeline artifact contracts."""

import configparser
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rexeval
from rexeval.cli import main
from rexeval.config import (SECTIONS, CorpusSpec, MetricSettings, ModelSpec, RunConfig,
                            Seeds, apply_overrides, lineage_hash, load_config)
from rexeval.models import EOS_TOKEN, KINDS, NeuralRecommender, TransformerModel
from rexeval.nn import load_checkpoint
from rexeval import metrics, pipeline
from rexeval.pipeline import model_seed
from rexeval.report import EvaluationReport, verify_against_audit

MICRO_INI = """\
[corpus]
users = 20 ; inline comments are allowed
items = 12
aspects = 3
reviews_per_user = 10
splits = 0.7 0.1 0.2

[seeds]
corpus = 5
model = 6
eval = 7

[metrics]
metrics = air mrr_ae tlae entail gm_f1 cnll rmse
k = 3
n_explanations = 30
air_mode = ground-truth
tlae_mode = both
audit = true

[model:oracle]
kind = oracle
note = reads the generator state

[model:random]
kind = random

[model:tiny]
kind = transformer
embed_dim = 16
ffn_dim = 32
layers = 1
heads = 2
max_len = 24
epochs = 2
batch_size = 32
lr = 3e-3
"""


@pytest.fixture(scope="module")
def micro_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.ini"
    path.write_text(MICRO_INI, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def micro_config(micro_ini):
    return load_config(micro_ini)


def _cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def staged_dir(micro_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("staged") / "run"
    for stage in ("gen-corpus", "train", "generate", "evaluate", "report"):
        assert _cli(stage, "--config", micro_ini, "--out", out, "--quiet") == 0
    return out


@pytest.fixture(scope="module")
def runall_dir(micro_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("all") / "run"
    assert _cli("run-all", "--config", micro_ini, "--out", out, "--quiet") == 0
    return out


def _tree(root, drop=("timing.txt",)) -> dict:
    root = Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in drop}


# ----------------------------------------------------------------------
# configuration parsing


def test_load_config_full_ini(micro_config):
    config = micro_config
    assert config.corpus == CorpusSpec(users=20, items=12, aspects=3,
                                       reviews_per_user=10, splits=(0.7, 0.1, 0.2))
    assert config.seeds == Seeds(corpus=5, model=6, eval=7)
    assert config.metrics.metrics == ("air", "mrr_ae", "tlae", "entail",
                                      "gm_f1", "cnll", "rmse")
    assert (config.metrics.k, config.metrics.n_explanations) == (3, 30)
    assert config.metrics.tlae_mode == "both"
    assert config.metrics.audit is True
    assert config.out_dir == "runs/out"
    assert [m.name for m in config.models] == ["oracle", "random", "tiny"]
    specs = {spec.name: spec for spec in config.models}
    assert specs["oracle"].note == "reads the generator state"
    assert not specs["random"].trainable
    tiny = specs["tiny"]
    assert tiny.trainable
    arch, train = tiny.settings
    assert (arch.embed_dim, train.lr) == (16, 3e-3)
    # the section's pairs only build the settings; a copy cannot lose them
    assert not hasattr(tiny, "options")
    with pytest.raises(AttributeError):
        dataclasses.replace(tiny, note="renoted")
    assert config.selected is None and config.active_models == config.models


def test_load_config_defaults_and_output_section(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text("[output]\ndir = somewhere/else\n", encoding="utf-8")
    config = load_config(path)
    assert config.out_dir == "somewhere/else"
    assert config.models == (ModelSpec("oracle", "oracle"),)
    assert config.corpus == CorpusSpec()


def test_load_config_reads_every_settings_field(tmp_path):
    # every field is set off its default, so a field added to a settings
    # class fails here until the INI below sets it and the reader parses it
    wanted = {
        "corpus": CorpusSpec(users=21, items=13, aspects=4, reviews_per_user=9,
                             affinity_gain=1.5, offtopic_rate=0.125, splits=(0.6, 0.2, 0.2),
                             lexicon_path="my/lexicon.txt", external_path="my/corpus.tsv"),
        "seeds": Seeds(corpus=1, model=2, eval=3),
        "metrics": MetricSettings(metrics=("rmse", "air", "cnll"), k=7, n_explanations=11,
                                  air_mode="both", tlae_mode="gold-rating", cnll_weight=0.25,
                                  embed_dim=8, audit=True),
    }
    keys = {"lexicon_path": "lexicon", "external_path": "path"}  # INI spellings
    lines = []
    for section, settings in wanted.items():
        lines.append(f"[{section}]")
        for field in dataclasses.fields(settings):
            value = getattr(settings, field.name)
            assert value != field.default, f"[{section}] {field.name} is at its default"
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
            lines.append(f"{keys.get(field.name, field.name)} = {text}")
    lines += ["[output]", "dir = elsewhere/run"]
    path = tmp_path / "every.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = load_config(path)
    assert (config.corpus, config.seeds, config.metrics) == tuple(wanted.values())
    assert config.out_dir == "elsewhere/run"

    # tuples also split on spaces, and an empty path means none
    path.write_text("[corpus]\nsplits = 0.5 0.25 0.25\nlexicon =\n", encoding="utf-8")
    assert load_config(path).corpus == CorpusSpec(splits=(0.5, 0.25, 0.25))


@pytest.mark.parametrize("ini, message", [
    ("[corpus]\nusers = twenty\n", "cannot parse"),
    ("[corpus]\nbogus = 1\n", "unknown key"),
    ("[corpus]\nsplits = 0.5 0.5\n", "three ratios"),
    ("[seeds]\nfoo = 1\n", "unknown key"),
    ("[metrics]\nbogus = 1\n", "unknown key"),
    ("[output]\npath = x\n", "unknown key"),
    ("[extra]\n", "unknown section"),
    ("[model:]\nkind = oracle\n", "needs a name"),
    ("[model:m]\nkind =\n", "missing 'kind'"),
    ("[model:m]\nkind = mystery\n", "unknown model kind"),
    ("[model:m]\nkind = transformer\nwidgets = 3\n", "unknown key 'widgets'"),
    ("[model:has space]\nkind = oracle\n", "may only use"),
    # a key some other kind takes is still unknown to this one
    ("[model:m]\nkind = oracle\nepochs = 3\n", "unknown key 'epochs' for kind 'oracle'"),
    ("[model:m]\nkind = recurrent\nheads = 2\n", "unknown key 'heads' for kind 'recurrent'"),
    ("[model:m]\nkind = transformer\nhidden_dim = 8\n",
     "unknown key 'hidden_dim' for kind 'transformer'"),
    ("[model:m]\nkind = unigram\nepochs = 3\n", "unknown key 'epochs' for kind 'unigram'"),
    # a float no class bounds is rejected when it is not finite, in any section
    ("[corpus]\naffinity_gain = nan\n", r"^\[corpus\] affinity_gain must be finite$"),
    ("[corpus]\nofftopic_rate = inf\n", r"^\[corpus\] offtopic_rate must be finite$"),
    ("[corpus]\nsplits = 0.8 -inf 0.1\n", r"^\[corpus\] splits must be finite$"),
    ("[model:m]\nkind = transformer\nlr = nan\n", r"^\[model:m\] lr must be finite$"),
    ("[model:m]\nkind = recurrent\nclip_norm = inf\n",
     r"^\[model:m\] clip_norm must be finite$"),
])
def test_load_config_rejections(tmp_path, ini, message):
    path = tmp_path / "bad.ini"
    path.write_text(ini, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_config(path)


@pytest.mark.parametrize("kind, key, value, message", [
    ("transformer", "layers", "0", "layers must be >= 1"),
    ("transformer", "heads", "0", "heads must be >= 1"),
    ("transformer", "heads", "3", r"heads \(3\) must divide embed_dim \(64\)"),
    ("transformer", "embed_dim", "0", "embed_dim must be >= 1"),
    ("recurrent", "epochs", "0", "epochs must be >= 1"),
    ("transformer", "lr", "0", "lr must be positive"),
    ("unigram", "alpha", "0", "alpha must be positive"),
    ("unigram", "alpha", "-0.5", "alpha must be positive"),
    ("unigram", "alpha", "nan", "alpha must be positive"),
])
def test_load_config_rejects_model_values_the_model_cannot_take(tmp_path, kind, key, value,
                                                                message):
    path = tmp_path / "values.ini"
    path.write_text(f"[model:m]\nkind = {kind}\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^model 'm': {message}$"):
        load_config(path)


def test_an_empty_metric_selection_is_rejected_at_load(tmp_path, capsys):
    path = tmp_path / "metrics.ini"
    path.write_text("[metrics]\nmetrics =\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no metric selected"):
        load_config(path)
    out = tmp_path / "run"
    assert _cli("run-all", "--metrics", "", "--out", out, "--quiet") == 1
    assert "no metric selected" in capsys.readouterr().err
    assert not out.exists()


def test_every_committed_config_loads():
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("configs/*.ini")) + sorted(root.glob("fixtures/*.ini"))
    assert {path.name for path in paths} >= {"default.ini", "smoke.ini"}
    for path in paths:
        load_config(path)


@pytest.mark.parametrize("ini, run", [("fixtures/smoke.ini", "runs/smoke"),
                                      ("configs/default.ini", "runs/default")])
def test_a_committed_run_reports_its_committed_table(tmp_path, ini, run):
    """The committed config parses to the lineage its run was made under:
    every gens file's header carries it, and the report stage accepts the
    run's artifacts and renders its bytes."""
    root = Path(__file__).resolve().parents[1]
    for name in ("meta.json", "results.json"):
        shutil.copyfile(root / run / name, tmp_path / name)
    shutil.copytree(root / run / "train_logs", tmp_path / "train_logs")
    config = dataclasses.replace(load_config(root / ini), out_dir=str(tmp_path))
    gens = sorted((root / run / "gens").glob("*.tsv"))
    assert gens
    for path in gens:
        header = path.read_text(encoding="utf-8").split("\n", 1)[0]
        assert (path.name, header) == (path.name, f"# config {lineage_hash(config)}")
    pipeline.stage_report(config)
    assert (tmp_path / "report.txt").read_bytes() == (root / run / "report.txt").read_bytes()


def _ini_text(value) -> str:
    """A settings value as an INI section spells it: empty for None."""
    if value is None:
        return ""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("ini", ["fixtures/smoke.ini", "configs/default.ini"])
def test_spelled_out_defaults_hash_as_the_defaults(tmp_path, ini):
    """A copy of a committed config whose [corpus] and [model:*] sections
    spell out every default builds the same settings and hashes the same."""
    root = Path(__file__).resolve().parents[1]
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(root / ini, encoding="utf-8")
    defaults = {"corpus": {key: default for key, (_, default)
                           in SECTIONS["corpus"][0].items()}}
    for section in parser.sections():
        if section.startswith("model:"):
            classes = KINDS[parser[section]["kind"]].settings
            defaults[section] = {f.name: f.default for cls in classes
                                 for f in dataclasses.fields(cls)}
    added = 0
    for section, keys in defaults.items():
        for key, default in keys.items():
            if key not in parser[section]:
                parser[section][key] = _ini_text(default)
                added += 1
    assert added
    spelled = tmp_path / "spelled.ini"
    with open(spelled, "w", encoding="utf-8") as fh:
        parser.write(fh)
    original, copy = load_config(root / ini), load_config(spelled)
    assert copy == original
    assert lineage_hash(copy) == lineage_hash(original)


def test_load_config_rejects_metric_settings_the_evaluate_stage_cannot_use(tmp_path):
    path = tmp_path / "metrics.ini"
    for key, value in (("cnll_weight", "1.5"), ("cnll_weight", "-0.25"),
                       ("cnll_weight", "nan"), ("embed_dim", "0")):
        path.write_text(f"[metrics]\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{key} must be"):
            load_config(path)
    path.write_text("[metrics]\ncnll_weight = 1.0\nembed_dim = 1\n", encoding="utf-8")
    assert load_config(path).metrics == MetricSettings(cnll_weight=1.0, embed_dim=1)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown metric"):
        MetricSettings(metrics=("air", "magic"))
    with pytest.raises(ValueError, match="air_mode"):
        MetricSettings(air_mode="telepathy")
    with pytest.raises(ValueError, match="tlae_mode"):
        MetricSettings(tlae_mode="telepathy")
    with pytest.raises(ValueError, match="k must be"):
        MetricSettings(k=0)
    with pytest.raises(ValueError, match="n_explanations"):
        MetricSettings(n_explanations=0)
    with pytest.raises(ValueError, match="unknown model kind"):
        ModelSpec("m", "mystery")
    with pytest.raises(ValueError, match="may only use"):
        ModelSpec("two words", "oracle")
    with pytest.raises(ValueError, match="unknown key 'alpha' for kind 'random'"):
        ModelSpec("r", "random", (("alpha", 0.5),))
    with pytest.raises(ValueError, match="selected more than once: rmse$"):
        MetricSettings(metrics=("rmse", "air", "rmse"))
    with pytest.raises(ValueError, match="roster is empty"):
        RunConfig(models=())
    twice = (ModelSpec("m", "oracle"), ModelSpec("m", "random"))
    with pytest.raises(ValueError, match="duplicate model names"):
        RunConfig(models=twice)
    with pytest.raises(ValueError, match="unknown model\\(s\\) selected"):
        RunConfig(selected=("ghost",))
    with pytest.raises(ValueError, match="empty model selection"):
        RunConfig(selected=())
    with pytest.raises(ValueError, match="selected more than once: oracle$"):
        RunConfig(selected=("oracle", "oracle"))


def test_model_spec_privileged_marks_oracle_and_aspect_transformers():
    assert ModelSpec("o", "oracle").privileged
    assert ModelSpec("t", "transformer", (("use_aspect", True),)).privileged
    assert not ModelSpec("t", "transformer", (("use_aspect", False),)).privileged
    for kind in ("random", "unigram", "transformer", "recurrent"):
        assert not ModelSpec("m", kind).privileged


def _pairs(spec: ModelSpec) -> tuple:
    """Every (key, value) pair of a roster entry's built settings."""
    return tuple((f.name, getattr(settings, f.name)) for settings in spec.settings
                 for f in dataclasses.fields(settings))


def test_lineage_hash_covers_artifacts_only(micro_config):
    base = micro_config
    ref = lineage_hash(base)
    # evaluation-time knobs never change the hash
    assert lineage_hash(dataclasses.replace(base, out_dir="elsewhere")) == ref
    assert lineage_hash(dataclasses.replace(base, selected=("oracle",))) == ref
    assert lineage_hash(dataclasses.replace(
        base, metrics=MetricSettings(k=99, audit=True))) == ref
    assert lineage_hash(dataclasses.replace(base, seeds=Seeds(5, 6, 999))) == ref
    # anything shaping corpus or checkpoints does
    assert lineage_hash(dataclasses.replace(base, seeds=Seeds(50, 6, 7))) != ref
    assert lineage_hash(dataclasses.replace(base, seeds=Seeds(5, 60, 7))) != ref
    assert lineage_hash(dataclasses.replace(
        base, corpus=dataclasses.replace(base.corpus, users=21))) != ref
    resized = tuple(
        ModelSpec(m.name, m.kind,
                  tuple((k, 24 if k == "embed_dim" else v) for k, v in _pairs(m)),
                  m.note)
        for m in base.models)
    assert lineage_hash(dataclasses.replace(base, models=resized)) != ref
    # display notes are cosmetic
    renoted = tuple(ModelSpec(m.name, m.kind, _pairs(m), "different note")
                    for m in base.models)
    assert lineage_hash(dataclasses.replace(base, models=renoted)) == ref


def test_apply_overrides(micro_config):
    config = apply_overrides(micro_config, out_dir="o", seed_eval=42,
                             models="oracle,tiny", metrics="air, rmse",
                             k=7, n_explanations=9, air_mode="both",
                             tlae_mode="model-rating", audit=True)
    assert config.out_dir == "o"
    assert config.seeds == Seeds(corpus=5, model=6, eval=42)
    assert config.selected == ("oracle", "tiny")
    assert [m.name for m in config.active_models] == ["oracle", "tiny"]
    assert config.metrics.metrics == ("air", "rmse")
    assert (config.metrics.k, config.metrics.n_explanations) == (7, 9)
    assert config.metrics.air_mode == "both"
    untouched = apply_overrides(micro_config)
    assert untouched == micro_config
    with pytest.raises(ValueError, match="no names parsed"):
        apply_overrides(micro_config, models=",")
    with pytest.raises(ValueError, match="unknown model"):
        apply_overrides(micro_config, models="ghost")
    with pytest.raises(ValueError, match="selected more than once: tiny$"):
        apply_overrides(micro_config, models="tiny,oracle,tiny")
    with pytest.raises(ValueError, match="selected more than once: rmse$"):
        apply_overrides(micro_config, metrics="rmse,rmse")


def test_model_seed_is_name_keyed():
    assert model_seed(6, "tiny") == model_seed(6, "tiny")
    assert model_seed(6, "tiny") != model_seed(6, "oracle")
    assert model_seed(6, "tiny") != model_seed(7, "tiny")
    assert 0 <= model_seed(6, "tiny") < 2 ** 32


# ----------------------------------------------------------------------
# pipeline artifacts


def test_staged_stages_match_run_all_bytes(staged_dir, runall_dir):
    staged = _tree(staged_dir)
    assert staged  # the run produced artifacts
    assert staged == _tree(runall_dir)
    # only the end-to-end runner writes the timing sidecar: the whole run's
    # wall seconds, then each stage's seconds, the peak RSS at its end and
    # the minor page faults taken during it; the evaluate stage's lines are
    # followed by each (model, cell)'s seconds in roster and column order
    assert not (staged_dir / "timing.txt").exists()
    timing = [line.split(" ") for line in
              (runall_dir / "timing.txt").read_text(encoding="utf-8").splitlines()]
    stages = ["gen-corpus", "train", "generate", "evaluate", "report"]
    cells = [f"evaluate.{model}.{cell}_seconds" for model in ("oracle", "random", "tiny")
             for cell in ("air", "mrr_ae", "tlae", "tlae_gold", "entail", "gm_f1", "cnll",
                          "rmse")]
    expect = ["wall_time_seconds"]
    for stage in stages:
        expect += [f"{stage}_{what}" for what in ("seconds", "peak_rss_mb", "minor_faults")]
        expect += cells if stage == "evaluate" else []
    assert [key for key, _ in timing] == expect
    seconds = {key: float(value) for key, value in timing if key.endswith("seconds")}
    assert min(seconds.values()) >= 0
    stage_seconds = [seconds[f"{stage}_seconds"] for stage in stages]
    # each value is rounded to 1 ms
    assert sum(stage_seconds) <= seconds["wall_time_seconds"] + 0.005
    assert sum(seconds[key] for key in cells) <= seconds["evaluate_seconds"] + 0.0125
    peaks = [float(value) for key, value in timing if key.endswith("_peak_rss_mb")]
    assert peaks[0] > 0
    assert peaks == sorted(peaks)  # a high-water mark never falls
    faults = [value for key, value in timing if key.endswith("_minor_faults")]
    assert all(value.isdigit() for value in faults)  # counts, never negative


def test_evaluate_builds_one_probe_set_and_times_each_cell(micro_ini, runall_dir, tmp_path,
                                                           monkeypatch):
    target = tmp_path / "timed"
    shutil.copytree(runall_dir, target)
    built = []
    build = metrics.mrr_ae_probes
    monkeypatch.setattr(metrics, "mrr_ae_probes",
                        lambda *args, **kwargs: built.append(args) or build(*args, **kwargs))
    lines = []
    report = pipeline.stage_evaluate(
        apply_overrides(load_config(micro_ini), out_dir=str(target)), log=lines.append)
    assert len(built) == 1  # one probe set for the three models
    cells = ("air", "mrr_ae", "tlae", "tlae_gold", "entail", "gm_f1", "cnll", "rmse")
    order = [(model, cell) for model in ("oracle", "random", "tiny") for cell in cells]
    timed = [line.split(" ") for line in lines if line.endswith(" s")]
    assert [(model, cell) for _, model, cell, _, _ in timed] == order
    assert all(tag == "[evaluate]" and float(value) >= 0 for tag, _, _, value, _ in timed)
    assert list(report.cell_seconds) == order
    # timing is kept out of every artifact
    assert _tree(target) == _tree(runall_dir)


def test_run_all_reruns_identically(micro_ini, runall_dir, tmp_path):
    again = tmp_path / "again"
    assert _cli("run-all", "--config", micro_ini, "--out", again, "--quiet") == 0
    assert _tree(again) == _tree(runall_dir)


COMPARE_RUNS = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


def _compare_runs(run_a, run_b) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(COMPARE_RUNS), str(run_a), str(run_b)],
                          capture_output=True, text=True, check=False)


def test_compare_runs_names_every_differing_or_missing_file(staged_dir, runall_dir,
                                                            tmp_path):
    same = _compare_runs(staged_dir, runall_dir)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "identical" in same.stdout
    copy = tmp_path / "copy"
    shutil.copytree(runall_dir, copy)
    # checkpoints and the timing sidecar are not compared
    (copy / "checkpoints" / "tiny.ckpt").write_text("another format\n", encoding="utf-8")
    (copy / "timing.txt").write_text("wall_time_seconds 0.000\n", encoding="utf-8")
    assert _compare_runs(runall_dir, copy).returncode == 0
    gens = copy / "gens" / "tiny.tsv"
    lines = gens.read_bytes().splitlines(keepends=True)
    gens.write_bytes(b"".join(lines) + b"\n")
    report = copy / "report.txt"
    head = report.read_text(encoding="utf-8").splitlines(keepends=True)
    report.write_text("".join(head[:3] + ["inserted\n"] + head[3:]), encoding="utf-8")
    (copy / "world.json").write_bytes(b"\xff")  # a file that is not text is named alone
    (copy / "audit" / "tiny" / "rmse.tsv").unlink()
    (copy / "extra.txt").write_text("x", encoding="utf-8")
    diff = _compare_runs(runall_dir, copy)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [f"only in {runall_dir}: audit/tiny/rmse.tsv",
                                        f"only in {copy}: extra.txt",
                                        f"differs: gens/tiny.tsv (first at line {len(lines) + 1})",
                                        "differs: report.txt (first at line 4)",
                                        "differs: world.json"]


def test_compare_runs_prints_timing_beside_the_byte_compare(staged_dir, runall_dir,
                                                           tmp_path):
    slower = tmp_path / "slower"
    shutil.copytree(runall_dir, slower)
    timing = dict(line.split(" ") for line in
                  (runall_dir / "timing.txt").read_text(encoding="utf-8").splitlines())
    evaluate = float(timing["evaluate_seconds"])
    edited = {**timing, "evaluate_seconds": f"{2 * evaluate:.3f}"}
    (slower / "timing.txt").write_text("".join(f"{k} {v}\n" for k, v in edited.items()),
                                       encoding="utf-8")

    def compare(run_a, run_b):
        return subprocess.run([sys.executable, str(COMPARE_RUNS), "--timing", str(run_a),
                               str(run_b)], capture_output=True, text=True, check=False)

    done = compare(runall_dir, slower)
    assert done.returncode == 0, done.stdout + done.stderr  # timing never fails a compare
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["timing", "A", "B", "B/A"]
    assert lines[-1].endswith("file(s) identical")
    table = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    assert list(table) == list(timing)
    assert table["evaluate_seconds"] == [timing["evaluate_seconds"],
                                         edited["evaluate_seconds"],
                                         f"{float(edited['evaluate_seconds']) / evaluate:.3f}"]
    assert table["evaluate.tiny.mrr_ae_seconds"][2] in ("1.000", "-")
    # a staged run writes no sidecar: its column is empty
    staged = compare(staged_dir, runall_dir)
    assert staged.returncode == 0, staged.stdout + staged.stderr
    rows = [line.split() for line in staged.stdout.splitlines()[1:-1]]
    assert rows and all(row[1] == "-" and row[3] == "-" for row in rows)


VERIFY_AUDIT = COMPARE_RUNS.with_name("verify_audit.py")


def test_verify_audit_rejects_cells_without_model_and_key(runall_dir):
    # the script imports the rexeval this test imported, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(rexeval.__file__).parents[1])}

    def verify(*cells):
        return subprocess.run([sys.executable, str(VERIFY_AUDIT), str(runall_dir), *cells],
                              capture_output=True, text=True, check=False, env=env)

    ok = verify("oracle:air", "tiny:tlae_gold")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "2 cell(s) verified" in ok.stdout
    for bad in ("oracle", ":air", "oracle:"):
        done = verify("oracle:air", bad)
        assert done.returncode == 2, (bad, done.stdout + done.stderr)
        assert "cells must look like MODEL:CELL" in done.stderr


def test_verify_audit_fails_on_a_missing_audit_log(runall_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(rexeval.__file__).parents[1])}

    def verify(run):
        return subprocess.run([sys.executable, str(VERIFY_AUDIT), str(run)],
                              capture_output=True, text=True, check=False, env=env)

    run = tmp_path / "partial"
    shutil.copytree(runall_dir, run)
    intact = verify(run)
    assert intact.returncode == 0, intact.stdout + intact.stderr
    for log in sorted(run.glob("audit/*/rmse.tsv")):
        log.unlink()
    done = verify(run)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stderr == f"MISMATCH: no audit log at {run / 'audit' / 'oracle' / 'rmse.tsv'}\n"
    shutil.rmtree(run / "audit")
    bare = verify(run)
    assert bare.returncode == 1, bare.stdout + bare.stderr
    assert "no audit logs found" in bare.stderr


def test_verify_audit_names_the_line_of_a_malformed_audit(runall_dir, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(rexeval.__file__).parents[1])}

    def tampered(name, edit):
        run = tmp_path / name
        shutil.copytree(runall_dir, run)
        audit = run / "audit" / "tiny" / "air.tsv"
        lines = audit.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = edit(lines[3])
        audit.write_text("".join(lines), encoding="utf-8")
        done = subprocess.run([sys.executable, str(VERIFY_AUDIT), str(run)],
                              capture_output=True, text=True, check=False, env=env)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "Traceback" not in done.stderr
        return done.stderr

    extra_tab = tampered("extra_tab", lambda line: line.replace("\t", "\t\t", 1))
    assert extra_tab.startswith("MISMATCH: ")
    assert f"{tmp_path / 'extra_tab' / 'audit' / 'tiny' / 'air.tsv'}: line 4 has" in extra_tab
    not_a_number = tampered("not_a_number", lambda line: line.rsplit("\t", 1)[0] + "\tyes\n")
    assert f"{tmp_path / 'not_a_number' / 'audit' / 'tiny' / 'air.tsv'}: line 4: " \
           "could not convert" in not_a_number

    run = tmp_path / "unknown_cell"
    shutil.copytree(runall_dir, run)
    report = json.loads((run / "results.json").read_text(encoding="utf-8"))
    report["rows"][0]["cells"]["novel"] = report["rows"][0]["cells"]["air"]
    (run / "results.json").write_text(json.dumps(report), encoding="utf-8")
    done = subprocess.run([sys.executable, str(VERIFY_AUDIT), str(run)],
                          capture_output=True, text=True, check=False, env=env)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "MISMATCH: oracle/novel: no audit recomputation rule" in done.stderr


def test_verify_audit_runs_from_a_checkout_without_pythonpath(runall_dir, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(VERIFY_AUDIT), str(runall_dir)],
                          capture_output=True, text=True, check=False, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "cell(s) verified" in done.stdout


def test_artifact_layout_and_meta(runall_dir, micro_config):
    meta = json.loads((runall_dir / "meta.json").read_text(encoding="utf-8"))
    assert meta["config_hash"] == lineage_hash(micro_config)
    digest = hashlib.sha256((runall_dir / "corpus.tsv").read_bytes()).hexdigest()
    assert meta["corpus_fingerprint"] == digest
    assert meta["counts"] == {"train": 140, "validation": 20, "test": 40,
                              "vocab": meta["counts"]["vocab"]}
    for rel in ("world.json", "checkpoints/tiny.ckpt", "train_logs/tiny.json",
                "gens/oracle.tsv", "gens/random.tsv", "gens/tiny.tsv",
                "audit/tiny/tlae_gold.tsv", "results.json", "report.txt"):
        assert (runall_dir / rel).exists(), rel
    assert not (runall_dir / "report.json").exists()  # results.json holds the same bytes
    report = EvaluationReport.load(runall_dir / "results.json")
    assert report.config_hash == lineage_hash(micro_config)
    assert [row.model for row in report.rows] == ["oracle", "random", "tiny"]
    assert report.row("oracle").privileged and not report.row("tiny").privileged
    assert report.settings["pool"] == 30


def test_every_reported_cell_survives_audit_recomputation(runall_dir):
    report = EvaluationReport.load(runall_dir / "results.json")
    checked = verify_against_audit(report, runall_dir / "audit")
    assert len(checked) == sum(len(row.cells) for row in report.rows)
    assert {key for _, key, _, _ in checked} >= {"air", "mrr_ae", "tlae",
                                                 "tlae_gold", "entail",
                                                 "gm_f1", "cnll", "rmse"}


def test_report_text_is_a_marked_table(runall_dir):
    text = (runall_dir / "report.txt").read_text(encoding="utf-8")
    assert "AIR↑" in text and "TLAE-gold↓" in text
    assert "oracle (privileged)" in text
    assert "*" in text
    assert "note oracle: reads the generator state" in text


def test_report_subcommand_prints_the_table(micro_ini, runall_dir, capsys):
    assert _cli("report", "--config", micro_ini, "--out", runall_dir, "--quiet") == 0
    out = capsys.readouterr().out
    assert out.startswith("explanation faithfulness and coherence report")
    assert out == (runall_dir / "report.txt").read_text(encoding="utf-8")


def test_report_says_what_training_did(runall_dir):
    train_log = json.loads((runall_dir / "train_logs" / "tiny.json").read_text(encoding="utf-8"))
    assert train_log["max_epochs"] == 2
    val = [entry["val_joint"] for entry in train_log["history"]]
    best = val.index(min(val)) + 1
    text = (runall_dir / "report.txt").read_text(encoding="utf-8")
    training = [line for line in text.splitlines() if line.startswith("training ")]
    assert training == [f"training tiny: {len(val)} of 2 epochs run, best epoch {best}"]


def test_selection_and_generated_air_mode(micro_ini, runall_dir, tmp_path):
    target = tmp_path / "sel"
    shutil.copytree(runall_dir, target)
    assert _cli("evaluate", "--config", micro_ini, "--out", target,
                "--models", "oracle,random", "--air-mode", "both",
                "--metrics", "air entail rmse", "--quiet") == 0
    report = EvaluationReport.load(target / "results.json")
    assert [row.model for row in report.rows] == ["oracle", "random"]
    assert sorted(report.row("oracle").cells) == ["air", "air_generated",
                                                  "entail", "rmse"]
    assert report.row("oracle").cells["air_generated"].value == 100.0
    # a selection is an evaluation view: artifacts keep their lineage
    assert report.config_hash == EvaluationReport.load(
        runall_dir / "results.json").config_hash
    checked = verify_against_audit(report, target / "audit")
    assert {key for _, key, _, _ in checked} == {"air", "air_generated",
                                                 "entail", "rmse"}


def test_cells_that_read_only_generations_open_no_checkpoint(micro_ini, runall_dir,
                                                              tmp_path, capsys):
    argv = ("--metrics", "tlae entail gm_f1 cnll rmse", "--tlae-mode", "both")
    intact = tmp_path / "intact"
    shutil.copytree(runall_dir, intact)
    assert _cli("evaluate", "--config", micro_ini, "--out", intact, "--quiet", *argv) == 0
    bare = tmp_path / "bare"
    shutil.copytree(runall_dir, bare)
    shutil.rmtree(bare / "checkpoints")
    assert _cli("evaluate", "--config", micro_ini, "--out", bare, "--quiet", *argv) == 0
    assert (bare / "results.json").read_bytes() == (intact / "results.json").read_bytes()
    assert _tree(bare / "audit") == _tree(intact / "audit")
    # a cell that scores with the model still needs its checkpoint
    assert _cli("evaluate", "--config", micro_ini, "--out", bare, "--quiet",
                "--metrics", "entail mrr_ae") == 1
    assert "missing checkpoint for 'tiny'" in capsys.readouterr().err


def test_evaluate_errors_name_the_model_and_cell(micro_ini, runall_dir, tmp_path,
                                                capsys, monkeypatch):
    target = tmp_path / "mute"
    shutil.copytree(runall_dir, target)
    monkeypatch.setattr(TransformerModel, "explain_many",
                        lambda self, requests: [(3.0, [EOS_TOKEN]) for _ in requests])
    assert _cli("generate", "--config", micro_ini, "--out", target, "--quiet",
                "--models", "tiny") == 0
    assert _cli("evaluate", "--config", micro_ini, "--out", target, "--quiet",
                "--models", "tiny", "--metrics", "air entail", "--air-mode", "both") == 1
    assert ("[evaluate] model 'tiny', cell 'air_generated': ValueError: empty AIR pool"
            in capsys.readouterr().err)


def test_generate_runs_one_prefix_pass_per_trainable_model(tmp_path, monkeypatch):
    # a model's ratings and explanations come from one call, which runs
    # the pool's prefixes once
    ini = tmp_path / "two.ini"
    ini.write_text(MICRO_INI + "\n[model:gru]\nkind = recurrent\nembed_dim = 16\n"
                               "hidden_dim = 24\nepochs = 1\n", encoding="utf-8")
    out = tmp_path / "run"
    for stage in ("gen-corpus", "train"):
        assert _cli(stage, "--config", ini, "--out", out, "--quiet") == 0
    passes = []
    original = NeuralRecommender._shared_prefixes

    def counted(self, *args):
        passes.append(type(self).__name__)
        return original(self, *args)

    monkeypatch.setattr(NeuralRecommender, "_shared_prefixes", counted)
    generations = pipeline.stage_generate(apply_overrides(load_config(ini), out_dir=out))
    assert set(generations) == {"oracle", "random", "tiny", "gru"}
    assert sorted(passes) == ["RecurrentModel", "TransformerModel"]


# ----------------------------------------------------------------------
# stage guards


def test_stage_order_and_tamper_guards(micro_ini, tmp_path, capsys):
    out = tmp_path / "guarded"

    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet") == 1
    assert "no corpus artifacts" in capsys.readouterr().err
    assert _cli("gen-corpus", "--config", micro_ini, "--out", out, "--quiet") == 0
    assert _cli("report", "--config", micro_ini, "--out", out, "--quiet") == 1
    assert "no evaluation results" in capsys.readouterr().err

    corpus_path = out / "corpus.tsv"
    pristine = corpus_path.read_bytes()
    corpus_path.write_bytes(pristine + b"4\t9\t5\tpositive\tfood\ttest\tgreat food\n")
    assert _cli("train", "--config", micro_ini, "--out", out, "--quiet") == 1
    assert "fingerprint mismatch" in capsys.readouterr().err
    corpus_path.write_bytes(pristine)

    assert _cli("train", "--config", micro_ini, "--out", out, "--quiet",
                "--seed-corpus", "99") == 1
    assert "config hash mismatch" in capsys.readouterr().err

    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet") == 1
    assert "missing checkpoint for 'tiny'" in capsys.readouterr().err


def test_an_mrr_ae_k_the_pool_cannot_supply_fails_before_training(micro_ini, tmp_path,
                                                                 capsys):
    out = tmp_path / "big_k"
    assert _cli("run-all", "--config", micro_ini, "--out", out, "--quiet",
                "--k", "5000") == 1
    assert ("[train] ValueError: not enough distinct candidates"
            in capsys.readouterr().err)
    assert not list(out.glob("checkpoints/*.ckpt"))
    assert not (out / "gens").exists()


def test_stages_from_disk_read_values_and_lineage_from_a_checkpoint(micro_ini, runall_dir,
                                                                   tmp_path, capsys):
    """A header that also holds the architecture, as headers written before
    it was read from the roster entry do, reproduces the run byte for
    byte; one of another lineage is refused."""
    target = tmp_path / "described"
    shutil.copytree(runall_dir, target)
    ckpt = target / "checkpoints" / "tiny.ckpt"
    magic, header, array = ckpt.read_bytes().split(b"\n", 2)
    described = dict(json.loads(header), model={
        "kind": "transformer", "num_users": 20, "num_items": 12, "vocab_size": 0,
        "embed_dim": 16, "ffn_dim": 32, "layers": 1, "heads": 2, "max_len": 24,
        "rating_hidden": 64, "use_aspect": False})
    ckpt.write_bytes(b"\n".join([magic, json.dumps(described, sort_keys=True).encode(),
                                 array]))
    for stage in ("generate", "evaluate", "report"):
        assert _cli(stage, "--config", micro_ini, "--out", target, "--quiet") == 0
    drop = ("timing.txt", "tiny.ckpt")
    assert _tree(target, drop) == _tree(runall_dir, drop)

    other = dict(described, config_hash="deadbeef")
    ckpt.write_bytes(b"\n".join([magic, json.dumps(other).encode(), array]))
    assert _cli("generate", "--config", micro_ini, "--out", target, "--quiet") == 1
    assert ("[generate] checkpoint for 'tiny' belongs to a different configuration; "
            "rerun the train stage" in capsys.readouterr().err)


def test_generate_and_evaluate_models_hold_their_checkpoints_values(micro_config, runall_dir):
    """A model built for generate or evaluate holds its checkpoint's array
    bit for bit, not the values it was built with."""
    config = dataclasses.replace(micro_config, out_dir=str(runall_dir))
    corpus, lexicon, meta = pipeline._load_corpus_artifacts(config, "evaluate")
    models = pipeline._materialize_models(config, corpus, lexicon, "evaluate",
                                          meta["config_hash"])
    trainable = [spec for spec in config.models if spec.trainable]
    assert trainable
    for spec in trainable:
        _, values = load_checkpoint(runall_dir / "checkpoints" / f"{spec.name}.ckpt")
        loaded = models[spec.name].store.values
        assert loaded.dtype == values.dtype and loaded.tobytes() == values.tobytes()
        built = pipeline.build_model(spec, config, corpus, lexicon).store.values
        assert built.tobytes() != loaded.tobytes()


def test_a_checkpoint_in_an_earlier_format_asks_for_the_train_stage(micro_ini, runall_dir,
                                                                    tmp_path, capsys):
    target = tmp_path / "v2"
    shutil.copytree(runall_dir, target)
    ckpt = target / "checkpoints" / "tiny.ckpt"
    # the head of a file the base64 writer produced
    ckpt.write_bytes(b'rexeval-checkpoint-v2\n{"config_hash": "h", "seed": 0, "step": 0}\n'
                     b"w 1,2 AAAAAAAA8D8AAAAAAAAEwA==\n")
    assert _cli("generate", "--config", micro_ini, "--out", target, "--quiet") == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "rerun the train stage" in err
    # a float64 v3 file: the current file under the v3 magic line
    current = (runall_dir / "checkpoints" / "tiny.ckpt").read_bytes()
    ckpt.write_bytes(current.replace(b"rexeval-checkpoint-v4\n", b"rexeval-checkpoint-v3\n", 1))
    assert _cli("generate", "--config", micro_ini, "--out", target, "--quiet") == 1
    err = capsys.readouterr().err
    assert "rexeval-checkpoint-v3" in err and str(ckpt) in err and "rerun the train stage" in err


@pytest.fixture
def heap_policy_unset():
    """fix_heap_policy as if no stage of this process had run yet."""
    pipeline.fix_heap_policy.cache_clear()
    yield pipeline.fix_heap_policy
    pipeline.fix_heap_policy.cache_clear()


def test_the_first_stage_fixes_the_heap_policy_once(micro_ini, tmp_path, capsys,
                                                     monkeypatch, heap_policy_unset):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(pipeline, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    out = tmp_path / "heap"
    assert _cli("report", "--config", micro_ini, "--out", out, "--quiet") == 1
    assert "no corpus artifacts" in capsys.readouterr().err
    assert calls == [(pipeline._M_MMAP_THRESHOLD, pipeline.MMAP_THRESHOLD),
                     (pipeline._M_TRIM_THRESHOLD, pipeline.TRIM_THRESHOLD)]
    assert _cli("gen-corpus", "--config", micro_ini, "--out", out, "--quiet") == 0
    assert heap_policy_unset() is True
    assert len(calls) == 2  # once per process


def test_a_c_library_without_mallopt_keeps_its_heap_policy(monkeypatch, heap_policy_unset):
    monkeypatch.setattr(pipeline, "_libc", lambda: SimpleNamespace())
    assert heap_policy_unset() is False
    heap_policy_unset.cache_clear()

    def unloadable():
        raise OSError("no C library")

    monkeypatch.setattr(pipeline, "_libc", unloadable)
    assert heap_policy_unset() is False


def test_generation_pool_alignment_guards(micro_ini, tmp_path, capsys):
    out = tmp_path / "aligned"
    assert _cli("gen-corpus", "--config", micro_ini, "--out", out, "--quiet") == 0
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "entail rmse") == 1
    assert "missing generations for 'oracle'" in capsys.readouterr().err
    assert _cli("generate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--n-explanations", "4") == 0

    # a larger pool than the stored generations cannot be evaluated
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "entail rmse",
                "--n-explanations", "12") == 1
    assert "pool needs 12" in capsys.readouterr().err

    # a smaller pool is a prefix of them and works as-is
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "entail rmse",
                "--n-explanations", "3") == 0
    report = EvaluationReport.load(out / "results.json")
    assert report.row("oracle").cells["rmse"].count == 3

    gens_path = out / "gens" / "oracle.tsv"
    lines = gens_path.read_text(encoding="utf-8").splitlines(keepends=True)
    gens_path.write_text("".join([lines[0], lines[2], lines[1], *lines[3:]]),
                         encoding="utf-8")
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "entail rmse",
                "--n-explanations", "4") == 1
    assert "do not align" in capsys.readouterr().err

    gens_path.write_text("".join(
        ["# config deadbeef\n", lines[1], lines[2], *lines[3:]]), encoding="utf-8")
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "entail rmse",
                "--n-explanations", "4") == 1
    assert "different configuration" in capsys.readouterr().err


def test_a_generations_row_that_does_not_parse_names_its_line(micro_ini, runall_dir, tmp_path,
                                                             capsys):
    out = tmp_path / "corrupt"
    shutil.copytree(runall_dir, out)
    gens_path = out / "gens" / "oracle.tsv"
    lines = gens_path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[2].split("\t")
    lines[2] = "x" + lines[2][lines[2].index("\t"):]
    gens_path.write_text("".join(lines), encoding="utf-8")
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "rmse") == 1
    assert (f"[evaluate] {gens_path}:3: invalid literal for int() with base 10: 'x'"
            in capsys.readouterr().err)
    # a rating that parses but is not finite is no rating either
    lines[2] = "\t".join([*fields[:2], "nan", fields[3]])
    gens_path.write_text("".join(lines), encoding="utf-8")
    assert _cli("evaluate", "--config", micro_ini, "--out", out, "--quiet",
                "--models", "oracle", "--metrics", "rmse") == 1
    assert f"[evaluate] {gens_path}:3: non-finite rating 'nan'" in capsys.readouterr().err


def test_unused_model_option_fails_before_anything_is_written(tmp_path, capsys):
    for kind, key in (("oracle", "epochs"), ("recurrent", "heads")):
        out = tmp_path / kind
        ini = tmp_path / f"{kind}.ini"
        ini.write_text(f"[output]\ndir = {out.as_posix()}\n\n"
                       f"[model:m]\nkind = {kind}\n{key} = 3\n", encoding="utf-8")
        assert _cli("run-all", "--config", ini, "--quiet") == 1
        assert f"unknown key '{key}' for kind '{kind}'" in capsys.readouterr().err
        assert not out.exists()


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert _cli("run-all", "--config", tmp_path / "missing.ini") == 1
    assert "error:" in capsys.readouterr().err
    assert _cli("run-all", "--models", "", "--out", tmp_path) == 1
    assert "no names parsed" in capsys.readouterr().err
    for argv in (["bogus-command"], ["run-all", "--bogus"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_perfbench_spans_install_resolves_every_name_it_wraps():
    # `install` looks up each name it wraps in the rexeval modules and
    # classes of this checkout, so a renamed one raises. The scoring entry
    # point is wrapped only on a class that defines it, so that one is
    # checked by hand. A process of its own keeps the wrappers out of the
    # other tests.
    code = ("from rexeval import models, pipeline\n"
            "import spans\n"
            "before = models.ExplainableRecommender.perplexity_many\n"
            "spans.install(spans.Recorder('check'))\n"
            "assert models.ExplainableRecommender.perplexity_many is not before\n"
            "print('installed')\n")
    root = Path(__file__).resolve().parents[1]
    paths = [str(Path(rexeval.__file__).parents[1]), str(root / "perfbench")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=False, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "installed\n"

"""Run configuration: one INI file drives the whole pipeline.

Sections: [corpus] for the synthetic generator (or an external TSV),
[seeds] for the three named seed streams, [metrics] for evaluation
knobs, [output] for the run directory, and one [model:NAME] section per
roster entry. A section's keys are the fields of its settings classes:
its class in `SECTIONS`, or its kind's in `models.KINDS`. The lineage
hash covers exactly the sections that shape artifacts on disk (corpus
spec, corpus/model seeds, model roster), so evaluation-only overrides
never orphan a corpus or checkpoint.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass

from .corpus import DEFAULT_AFFINITY_GAIN, DEFAULT_OFFTOPIC_RATE
from .metrics import METRIC_NAMES
from .models import KINDS

AIR_MODES = ("ground-truth", "generated", "both")
TLAE_MODES = ("model-rating", "gold-rating", "both")


def _repeated(names) -> list[str]:
    """The names that occur more than once, in order of first occurrence."""
    return [name for name in dict.fromkeys(names) if names.count(name) > 1]


def _fields(*classes, **keys) -> dict:
    """The field table of settings classes: each INI key, with the field it
    sets and that field's default. `keys` gives the key of a field that is
    spelled differently from it."""
    return {keys.get(f.name, f.name): (f.name, f.default)
            for cls in classes for f in dataclasses.fields(cls)}


@dataclass(frozen=True)
class CorpusSpec:
    users: int = 200
    items: int = 100
    aspects: int = 8
    reviews_per_user: int = 40
    affinity_gain: float = DEFAULT_AFFINITY_GAIN
    offtopic_rate: float = DEFAULT_OFFTOPIC_RATE
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1)
    lexicon_path: str | None = None
    external_path: str | None = None  # pre-built TSV; skips generation

    def __post_init__(self):
        if len(self.splits) != 3:
            raise ValueError("splits: expected three ratios")


@dataclass(frozen=True)
class Seeds:
    corpus: int = 11
    model: int = 17
    eval: int = 29


@dataclass(frozen=True)
class MetricSettings:
    metrics: tuple[str, ...] = METRIC_NAMES
    k: int = 100
    n_explanations: int = 10000
    air_mode: str = "ground-truth"
    tlae_mode: str = "model-rating"
    cnll_weight: float = 0.5
    embed_dim: int = 32
    audit: bool = False

    def __post_init__(self):
        if not self.metrics:
            raise ValueError("no metric selected")
        for m in self.metrics:
            if m not in METRIC_NAMES:
                raise ValueError(f"unknown metric '{m}' (known: {', '.join(METRIC_NAMES)})")
        if repeated := _repeated(self.metrics):
            raise ValueError(f"metric(s) selected more than once: {', '.join(repeated)}")
        if self.air_mode not in AIR_MODES:
            raise ValueError(f"air_mode must be one of {', '.join(AIR_MODES)}")
        if self.tlae_mode not in TLAE_MODES:
            raise ValueError(f"tlae_mode must be one of {', '.join(TLAE_MODES)}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.n_explanations < 1:
            raise ValueError("n_explanations must be >= 1")
        if not 0.0 <= self.cnll_weight <= 1.0:
            raise ValueError("cnll_weight must be in [0, 1]")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str
    # the (key, value) pairs its section gives, which build `settings`
    options: dataclasses.InitVar[tuple[tuple[str, object], ...]] = ()
    note: str = ""
    # an instance of each of the kind's settings classes
    settings: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self, options):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind '{self.kind}' (known: {', '.join(KINDS)})")
        if not re.fullmatch(r"[A-Za-z0-9._-]+", self.name):
            raise ValueError(f"model name '{self.name}' may only use letters, digits, "
                             "dot, dash and underscore")
        classes = KINDS[self.kind].settings
        takes = _fields(*classes)
        for key, _ in options:
            if key not in takes:
                raise ValueError(f"model '{self.name}': unknown key '{key}' for kind "
                                 f"'{self.kind}' (it takes {', '.join(takes) or 'no options'})")
        try:
            settings = tuple(cls(**{key: value for key, value in options
                                    if key in cls.__dataclass_fields__}) for cls in classes)
        except ValueError as exc:
            raise ValueError(f"model '{self.name}': {exc}") from None
        object.__setattr__(self, "settings", settings)

    @property
    def trainable(self) -> bool:
        return KINDS[self.kind].model is not None

    @property
    def privileged(self) -> bool:
        """Whether the model reads the answer key: the oracle, and a
        transformer fed the gold aspect."""
        return KINDS[self.kind].privileged(*self.settings)


# the pairs only build `settings`: reading them back, or `dataclasses.replace`
# of a spec, raises instead of finding the empty default
del ModelSpec.options


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusSpec = CorpusSpec()
    seeds: Seeds = Seeds()
    metrics: MetricSettings = MetricSettings()
    models: tuple[ModelSpec, ...] = (ModelSpec("oracle", "oracle"),)
    out_dir: str = "runs/out"
    # names to actually run; None means the whole roster. A selection is an
    # evaluation-time view, so it never enters the lineage hash.
    selected: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.models:
            raise ValueError("model roster is empty")
        names = [m.name for m in self.models]
        if repeated := _repeated(names):
            raise ValueError(f"duplicate model names in roster: {', '.join(repeated)}")
        if self.selected is not None:
            missing = [s for s in self.selected if s not in names]
            if missing:
                raise ValueError(f"unknown model(s) selected: {', '.join(missing)}")
            if not self.selected:
                raise ValueError("empty model selection")
            if repeated := _repeated(self.selected):
                raise ValueError(f"model(s) selected more than once: {', '.join(repeated)}")

    @property
    def active_models(self) -> tuple[ModelSpec, ...]:
        if self.selected is None:
            return self.models
        by_name = {spec.name: spec for spec in self.models}
        return tuple(by_name[name] for name in self.selected)


def _parse_value(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key}: cannot parse '{raw}'") from None


# each settings section: its field table, and what its values build
SECTIONS = {
    "corpus": (_fields(CorpusSpec, lexicon_path="lexicon", external_path="path"), CorpusSpec),
    "seeds": (_fields(Seeds), Seeds),
    "metrics": (_fields(MetricSettings), MetricSettings),
    "output": ({"dir": ("out_dir", RunConfig.out_dir)}, dict),
}


def _read_section(parser, section: str, fields: dict, build):
    """`build(**values)` of a section's values by field name. `fields` is
    its field table, and a value is parsed as the type of its field's
    default: a tuple takes items separated by commas or spaces, and a field
    whose default is None takes text, empty for none. A float that is not
    finite is rejected after `build`'s own checks, so a field with a range
    reports its range."""
    values = {}
    nonfinite = []
    for key, raw in parser[section].items() if parser.has_section(section) else ():
        if key not in fields:
            raise ValueError(f"[{section}] unknown key '{key}'")
        name, default = fields[key]
        if default is None:
            value = raw.strip() or None
        elif isinstance(default, tuple):
            value = tuple(_parse_value(section, key, part, type(default[0]))
                          for part in raw.replace(",", " ").split())
        else:
            value = _parse_value(section, key, raw, type(default))
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            nonfinite.append(key)
        values[name] = value
    built = build(**values)
    if nonfinite:
        raise ValueError(f"[{section}] {nonfinite[0]} must be finite")
    return built


def _read_model(parser, section: str) -> ModelSpec:
    name = section[len("model:"):].strip()
    if not name:
        raise ValueError("model section needs a name: [model:NAME]")
    kind = parser[section].get("kind", "").strip()
    if not kind:
        raise ValueError(f"[{section}] missing 'kind'")
    # a key the kind does not take is read as text, for ModelSpec to reject
    fields = {key: (key, "") for key in parser[section]}
    fields.update(_fields(*KINDS[kind].settings) if kind in KINDS else {})
    return _read_section(parser, section, fields, lambda kind, note="", **options:
                         ModelSpec(name, kind, tuple(options.items()), note))


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=str(path))
    for section in parser.sections():
        if section not in SECTIONS and not section.startswith("model:"):
            raise ValueError(f"unknown section [{section}]")
    settings = {section: _read_section(parser, section, *SECTIONS[section])
                for section in SECTIONS}
    models = tuple(_read_model(parser, section) for section in parser.sections()
                   if section.startswith("model:"))
    return RunConfig(corpus=settings["corpus"], seeds=settings["seeds"],
                     metrics=settings["metrics"], models=models or RunConfig().models,
                     **settings["output"])


def _changed(settings) -> list[str]:
    """`name=repr(value)` of each field of a settings object that is off
    its default, in declaration order."""
    return [f"{f.name}={getattr(settings, f.name)!r}" for f in dataclasses.fields(settings)
            if getattr(settings, f.name) != f.default]


def lineage_hash(config: RunConfig) -> str:
    """Hash of everything that shapes on-disk artifacts: the corpus spec,
    the corpus and model seeds, and each roster entry's name, kind and
    settings, not its note. Settings count by their fields that are off
    their defaults, so a spelled-out default hashes as the default. Metric
    settings and the eval seed are excluded so evaluation overrides can
    rerun against existing corpora and checkpoints."""
    parts = ["corpus", *_changed(config.corpus),
             "seeds", str(config.seeds.corpus), str(config.seeds.model), "models"]
    for spec in config.models:
        parts += [spec.name, spec.kind, *(part for settings in spec.settings
                                         for part in _changed(settings))]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def apply_overrides(config: RunConfig, *, out_dir=None, seed_corpus=None,
                    seed_model=None, seed_eval=None, models=None, metrics=None,
                    k=None, n_explanations=None, air_mode=None, tlae_mode=None,
                    audit=None) -> RunConfig:
    """Apply CLI-level overrides, returning a new config."""
    selected = config.selected
    if models is not None:
        wanted = [m.strip() for m in models.split(",") if m.strip()]
        if not wanted:
            raise ValueError("--models given but no names parsed")
        selected = tuple(wanted)
    if metrics is not None:
        metrics = tuple(metrics.replace(",", " ").split())
    seeds = _given(config.seeds, corpus=seed_corpus, model=seed_model, eval=seed_eval)
    settings = _given(config.metrics, metrics=metrics, k=k, n_explanations=n_explanations,
                      air_mode=air_mode, tlae_mode=tlae_mode, audit=audit)
    return _given(config, seeds=seeds, metrics=settings, selected=selected, out_dir=out_dir)


def _given(settings, **values):
    """`settings` with each field that `values` gives, other than None, replaced."""
    return dataclasses.replace(settings, **{key: value for key, value in values.items()
                                            if value is not None})

"""Run configuration: one JSON document with generator / model / train /
eval / io sections plus a root seed. Parsing is strict: unknown keys are
rejected so typos surface immediately.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datamodel import GeneratorConfig
from .errors import InvalidConfigError


@dataclass
class ModelConfig:
    embed_dim: int = 16
    hidden: list[int] = field(default_factory=lambda: [64])

    def validate(self):
        if self.embed_dim <= 0 or any(h <= 0 for h in self.hidden):
            raise InvalidConfigError("model dimensions must be positive")


@dataclass
class TrainConfig:
    n_p_multi: int = 8
    n_k_multi: int = 4
    n_p_single: int = 8
    n_k_single: int = 4
    epochs: int = 20
    iters_per_epoch: int = 50
    use_single_cam: bool = True
    pseudo_label_budget: int | None = None
    checkpoint_every: int = 5

    @property
    def uses_corpus(self) -> bool:
        """Whether a run samples pseudo-labelled corpus frames."""
        return self.use_single_cam and self.n_p_single > 0

    def validate(self):
        if self.iters_per_epoch < 1:
            raise InvalidConfigError("iters_per_epoch must be >= 1")
        if self.epochs < 0:
            raise InvalidConfigError("epochs must be >= 0")
        if min(self.n_p_multi, self.n_k_multi, self.n_p_single, self.n_k_single) < 0:
            raise InvalidConfigError("batch sizes must be >= 0")
        if self.n_p_multi == 0 and not self.uses_corpus:
            raise InvalidConfigError("a batch needs at least one sampled label")
        if (self.n_p_multi > 0 and self.n_k_multi == 0) \
                or (self.uses_corpus and self.n_k_single == 0):
            raise InvalidConfigError("a sampled source needs n_k >= 1")
        if self.pseudo_label_budget is not None and self.pseudo_label_budget <= 0:
            raise InvalidConfigError("pseudo_label_budget must be positive")
        if self.checkpoint_every < 0:
            raise InvalidConfigError("checkpoint_every must be >= 0")


@dataclass
class EvalConfig:
    report_path: str = "report.json"


@dataclass
class IoConfig:
    multicam_path: str = "multicam.jsonl"
    corpus_path: str = "singlecam.jsonl"
    target_path: str = "target.jsonl"
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.jsonl"


@dataclass
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    io: IoConfig = field(default_factory=IoConfig)
    seed: int = 0

    def validate(self) -> "RunConfig":
        self.generator.validate()
        self.model.validate()
        self.train.validate()
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        for where in ("eval", "io"):  # each names a file to read or write
            for key, path in dataclasses.asdict(getattr(self, where)).items():
                if not Path(path).name:
                    raise InvalidConfigError(f"{where}.{key} names no file: {path!r}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_SECTIONS = {
    "generator": GeneratorConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
    "io": IoConfig,
}


_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str,
               "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotation such as 'int | None'
    or 'list[int]'. A boolean fits only 'bool': it is no number. A float
    must be finite: json.loads reads NaN and Infinity."""
    if annotation.startswith("list["):
        return isinstance(value, list) \
            and all(_fits(v, annotation[5:-1]) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return any(isinstance(value, _JSON_TYPES[t])
               and isinstance(value, bool) == (t == "bool")
               for t in annotation.split(" | "))


def _build_section(cls, data: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise InvalidConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    for f in fields(cls):
        if f.name in data and not _fits(data[f.name], f.type):
            raise InvalidConfigError(
                f"{where}.{f.name} must be {f.type}, got {data[f.name]!r}")
    return cls(**data)


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise InvalidConfigError("config document must be an object")
    unknown = set(doc) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise InvalidConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise InvalidConfigError(f"section {name!r} must be an object")
        kwargs[name] = _build_section(cls, section, name)
    seed = doc.get("seed", 0)
    if not _fits(seed, "int"):
        raise InvalidConfigError("seed must be an integer")
    return RunConfig(seed=seed, **kwargs).validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply --set dotted.key=value flags on top of a parsed config."""
    doc = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise InvalidConfigError(f"override must look like key=value: {item!r}")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        node = doc
        for p in parts:
            if not isinstance(node, dict) or p not in node:
                raise InvalidConfigError(f"unknown override key: {key!r}")
            parent, node = node, node[p]
        parent[parts[-1]] = _parse_value(raw)
    return config_from_dict(doc)

"""Run configuration: one JSON document with generator / train / io
sections plus a root seed. Parsing is strict: unknown keys are rejected so
typos surface immediately.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datamodel import GeneratorConfig
from .errors import InvalidConfigError


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

    def validate(self):
        for f in fields(self):
            if f.type == "int" and getattr(self, f.name) < 0:
                raise InvalidConfigError(f"train.{f.name} must be >= 0")
        if self.iters_per_epoch < 1:
            raise InvalidConfigError("iters_per_epoch must be >= 1")
        if self.n_p_multi == 0 and not self.use_single_cam:
            raise InvalidConfigError("a batch needs at least one sampled label")
        if self.n_p_multi > 0 and self.n_k_multi == 0:
            raise InvalidConfigError("a sampled source needs n_k >= 1")
        if self.use_single_cam and min(self.n_p_single, self.n_k_single) < 1:
            raise InvalidConfigError("use_single_cam needs n_p_single >= 1 "
                                     "and n_k_single >= 1")
        if self.pseudo_label_budget is not None and self.pseudo_label_budget <= 0:
            raise InvalidConfigError("pseudo_label_budget must be positive")


@dataclass
class IoConfig:
    multicam_path: str = "multicam.jsonl"
    corpus_path: str = "singlecam.jsonl"
    target_path: str = "target.jsonl"
    checkpoint_path: str = "checkpoint.json"
    metrics_path: str = "metrics.jsonl"
    report_path: str = "report.json"


@dataclass
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    io: IoConfig = field(default_factory=IoConfig)
    seed: int = 0

    def validate(self) -> "RunConfig":
        self.generator.validate()
        self.train.validate()
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        named = {}  # normalised path -> the key that names it
        for key, path in dataclasses.asdict(self.io).items():
            name, norm = f"io.{key}", os.path.normpath(path)
            if not Path(path).name:
                raise InvalidConfigError(f"{name} names no file: {path!r}")
            if norm in named:
                raise InvalidConfigError(
                    f"{named[norm]} and {name} name one file: {path!r}")
            named[norm] = name
        # nor may a path be the .tmp that atomic_write renames onto another,
        # or a checkpoint that training derives from io.checkpoint_path (or
        # its .tmp)
        derived = {Path(norm + ".tmp"): f"the .tmp written beside {name}"
                   for norm, name in named.items()}
        ckpt = Path(os.path.normpath(self.io.checkpoint_path))
        epochs, partial = checkpoint_files(ckpt, self.train)
        written = [ckpt, *epochs.values(), partial]
        derived |= dict.fromkeys(
            [*written[1:], *(p.with_name(p.name + ".tmp") for p in written)],
            "a file training writes beside io.checkpoint_path")
        for norm, name in named.items():
            if Path(norm) in derived:
                raise InvalidConfigError(
                    f"{name} names {norm!r}, {derived[Path(norm)]}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def checkpoint_files(path, train: TrainConfig
                     ) -> tuple[dict[int, Path], Path]:
    """The checkpoints a run writes besides its final one at path: after
    each epoch N below train.epochs that train.checkpoint_every divides,
    `<stem>.epoch<N><suffix>`, by N; and, when the run fails,
    `<name>.partial`."""
    path, every = Path(path), train.checkpoint_every
    epochs = range(every, train.epochs, every) if every > 0 else ()
    return ({n: path.with_name(f"{path.stem}.epoch{n}{path.suffix}")
             for n in epochs}, path.with_suffix(path.suffix + ".partial"))


_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str,
               "None": type(None)}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotation such as 'int | None'.
    A boolean fits only 'bool': it is no number. A float must be finite:
    json.loads reads NaN and Infinity."""
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
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise InvalidConfigError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs = {}
    for f in fields(RunConfig):
        if f.name == "seed":
            continue
        section = doc.get(f.name, {})
        if not isinstance(section, dict):
            raise InvalidConfigError(f"section {f.name!r} must be an object")
        kwargs[f.name] = _build_section(f.default_factory, section, f.name)
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

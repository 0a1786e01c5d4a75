import itertools
import json
from dataclasses import fields

import pytest

from remix.config import (
    RunConfig,
    TrainConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from remix.datamodel import GeneratorConfig
from remix.errors import InvalidConfigError


def test_defaults_validate():
    cfg = RunConfig().validate()
    assert cfg.train.n_p_multi * cfg.train.n_k_multi \
        + cfg.train.n_p_single * cfg.train.n_k_single == 64


def test_from_dict_roundtrip():
    cfg = RunConfig().validate()
    again = config_from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_unknown_top_level_key():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"trian": {}})


def test_unknown_section_key():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"train": {"leerning_rate": 0.1}})


def test_seed_type():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"seed": "zero"})
    with pytest.raises(InvalidConfigError):
        config_from_dict({"seed": True})


@pytest.mark.parametrize("section,key,value", [
    ("train", "pseudo_label_budget", 0),
    ("generator", "n_videos", 0),
    ("generator", "sigma_cam", -0.5),
    ("train", "checkpoint_every", -3),
    ("train", "n_k_multi", 0),
    ("train", "n_k_single", 0),
    ("train", "n_k_multi+n_k_single", 0),
    ("train", "n_p_multi+n_p_single", 0),
    ("train", "iters_per_epoch", 0),
    ("train", "epochs", -1),
    ("train", "n_p_single", -1),
    ("generator", "style_pool", 0),
    ("generator", "n_cameras+samples_per_id_per_cam", 1),
    # a target query needs a same-identity gallery item on another camera
    ("generator", "n_target_cameras", 1),
    ("generator", "target_samples_per_id_per_cam", 1),
    # instance negatives always come from the anchor's own source
    ("train", "cross_source_negatives", True),
    # Adam's betas and eps are encoder constants, not config keys
    ("train", "adam_beta1", 0.9),
    ("train", "adam_beta2", 0.999),
    ("train", "adam_eps", 1e-8),
    # so are the training hyperparameters of remix.trainer: each value was
    # out of range when they were keys
    ("train", "ema_momentum", 1.5),
    ("train", "p_drop", 2.0),
    ("train", "warmup_epochs", -5),
    ("train", "dbscan_eps", 0.0),
    ("train", "dbscan_min_pts", 0),
    ("train", "lr", 0.0),
    ("train", "lr", -1),
    ("train", "weight_decay", -0.0005),
])
def test_invalid_values(section, key, value):
    # "a+b" sets several keys of the section to the same value
    with pytest.raises(InvalidConfigError):
        config_from_dict({section: dict.fromkeys(key.split("+"), value)})


# key -> a value it used to accept: the loss temperatures and the L_cc
# weight are constants of remix.losses, the training hyperparameters
# constants of remix.trainer
REMOVED_KEYS = {
    "tau_ins_multi": 0.1, "tau_ins_single": 0.1, "tau_aug": 0.1,
    "tau_cen_multi": 0.1, "tau_cen_single": 0.1, "tau_camera": 0.1,
    "gamma": 0.1, "lr": 0.002, "weight_decay": 0.0005, "warmup_epochs": 10,
    "ema_momentum": 0.99, "sigma_aug": 0.05, "p_drop": 0.1,
    "dbscan_eps": 0.8, "dbscan_min_pts": 4,
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_rejected(tmp_path, key):
    value = REMOVED_KEYS[key]
    with pytest.raises(InvalidConfigError, match=f"unknown key.*'{key}'"):
        config_from_dict({"train": {key: value}})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {key: value}}))
    with pytest.raises(InvalidConfigError, match=f"unknown key.*'{key}'"):
        load_config(path)
    with pytest.raises(InvalidConfigError, match="unknown override"):
        apply_overrides(RunConfig().validate(), [f"train.{key}={value}"])


# sections that used to exist, with a value each accepted: the encoder's
# widths are constants of remix.trainer, the report path is io.report_path
@pytest.mark.parametrize("section,key,value", [
    ("model", "embed_dim", 16), ("model", "hidden", [64]),
    ("eval", "report_path", "report.json")])
def test_removed_section_is_rejected(tmp_path, section, key, value):
    with pytest.raises(InvalidConfigError,
                       match=f"unknown top-level key.*'{section}'"):
        config_from_dict({section: {key: value}})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(InvalidConfigError,
                       match=f"unknown top-level key.*'{section}'"):
        load_config(path)
    with pytest.raises(InvalidConfigError, match="unknown override"):
        apply_overrides(RunConfig().validate(),
                        [f"{section}.{key}={json.dumps(value)}"])


@pytest.mark.parametrize("section,key,value", [
    ("train", "use_single_cam", "False"),
    ("train", "use_single_cam", 0),
    ("train", "epochs", "3"),
    ("train", "epochs", 3.0),
    ("train", "epochs", True),
    ("generator", "sigma_video", "0.01"),
    ("generator", "sigma_video", False),
    ("train", "pseudo_label_budget", 64.0),
    ("train", "pseudo_label_budget", "none"),
    ("generator", "dim", 8.5),
    ("generator", "sigma_cam", None),
    ("io", "metrics_path", 3),
    ("io", "report_path", None),
    # json.loads reads these, and no float field takes them
    ("generator", "sigma_frame", float("nan")),
    ("generator", "sigma_shift", float("inf")),
    ("generator", "domain_shift", float("-inf")),
])
def test_wrong_types(section, key, value):
    with pytest.raises(InvalidConfigError, match=f"{section}.{key} must be"):
        config_from_dict({section: {key: value}})


# every key whose value is the path of a file a command writes or reads
PATH_KEYS = [("io", "report_path"), ("io", "multicam_path"),
             ("io", "corpus_path"), ("io", "target_path"),
             ("io", "checkpoint_path"), ("io", "metrics_path")]


@pytest.mark.parametrize("section,key", PATH_KEYS)
@pytest.mark.parametrize("value", ["", ".", "/"])
def test_path_with_no_file_name_is_rejected(section, key, value):
    match = f"{section}.{key} names no file"
    with pytest.raises(InvalidConfigError, match=match):
        config_from_dict({section: {key: value}})
    with pytest.raises(InvalidConfigError, match=match):
        apply_overrides(RunConfig().validate(), [f"{section}.{key}={value}"])


@pytest.mark.parametrize("a,b", itertools.combinations(PATH_KEYS, 2),
                         ids=lambda k: ".".join(k))
def test_two_path_keys_naming_one_file_are_rejected(a, b):
    # one file would be both, say, a training set and the target
    doc = {"io": {}}
    doc[a[0]][a[1]] = "runs/same.json"
    doc[b[0]][b[1]] = "runs/./x/../same.json"
    with pytest.raises(InvalidConfigError, match="name one file") as exc:
        config_from_dict(doc)
    assert ".".join(a) in str(exc.value) and ".".join(b) in str(exc.value)
    default = getattr(getattr(RunConfig(), b[0]), b[1])
    with pytest.raises(InvalidConfigError, match="name one file") as exc:
        apply_overrides(RunConfig().validate(), [f"{a[0]}.{a[1]}=./{default}"])
    assert ".".join(a) in str(exc.value) and ".".join(b) in str(exc.value)


# overrides, the last naming a file that training writes beside the
# default checkpoint.json (every 5 epochs below 20, by default)
@pytest.mark.parametrize("items,derived", [
    (["train.epochs=6", "io.metrics_path=checkpoint.epoch5.json"],
     "checkpoint.epoch5.json"),
    (["io.metrics_path=checkpoint.json.partial"], "checkpoint.json.partial"),
    (["io.metrics_path=checkpoint.json.tmp"], "checkpoint.json.tmp"),
    (["io.report_path=runs/../checkpoint.epoch10.json"],
     "checkpoint.epoch10.json"),
    (["io.report_path=checkpoint.json.partial.tmp"],
     "checkpoint.json.partial.tmp"),
    (["io.report_path=checkpoint.epoch15.json.tmp"],
     "checkpoint.epoch15.json.tmp"),
    (["io.multicam_path=checkpoint.epoch5.json"], "checkpoint.epoch5.json"),
    (["train.checkpoint_every=2", "io.target_path=./checkpoint.epoch18.json"],
     "checkpoint.epoch18.json"),
    (["io.checkpoint_path=runs/ck", "io.corpus_path=runs/ck.epoch5"],
     "runs/ck.epoch5"),
])
def test_path_at_a_derived_checkpoint_is_rejected(items, derived):
    key = items[-1].split("=")[0]
    with pytest.raises(InvalidConfigError, match="training writes") as exc:
        apply_overrides(RunConfig().validate(), items)
    assert key in str(exc.value) and repr(derived) in str(exc.value)


# an io path at the .tmp that an atomic write of another renames from:
# writing that one would rename the first's file onto it
@pytest.mark.parametrize("doc,owner", [
    ({"metrics_path": "report.json.tmp"}, "io.report_path"),
    ({"metrics_path": "multicam.jsonl.tmp"}, "io.multicam_path"),
    ({"target_path": "runs/ck.json", "corpus_path": "runs/x/../ck.json.tmp"},
     "io.target_path"),
    ({"report_path": "checkpoint.json.tmp"}, "io.checkpoint_path"),
])
def test_path_at_another_paths_tmp_is_rejected(doc, owner):
    key = f"io.{list(doc)[-1]}"
    with pytest.raises(InvalidConfigError) as exc:
        config_from_dict({"io": doc})
    assert key in str(exc.value) and owner in str(exc.value)


@pytest.mark.parametrize("items", [
    ["io.metrics_path=checkpoint.epoch20.json"],  # the final one is not
    ["io.metrics_path=checkpoint.epoch3.json"],
    ["train.checkpoint_every=0", "io.metrics_path=checkpoint.epoch5.json"],
    ["io.report_path=report.json.tmp"],
])
def test_path_beside_the_checkpoint_that_training_skips_is_accepted(items):
    apply_overrides(RunConfig().validate(), items)


def test_floats_take_integers_and_budget_takes_null():
    cfg = config_from_dict({"train": {"pseudo_label_budget": None},
                            "generator": {"sigma_cam": 0, "domain_shift": 1}})
    assert cfg.train.pseudo_label_budget is None
    assert cfg.generator.sigma_cam == 0 and cfg.generator.domain_shift == 1


def test_negative_seed():
    with pytest.raises(InvalidConfigError, match="seed"):
        config_from_dict({"seed": -1})


@pytest.mark.parametrize("doc", [[], {"train": []}, {"io": "big"}])
def test_document_and_sections_are_objects(doc):
    with pytest.raises(InvalidConfigError, match="object"):
        config_from_dict(doc)


@pytest.mark.parametrize("train,on", [
    ({}, True),
    ({"use_single_cam": False}, False),
    ({"use_single_cam": False, "n_p_single": 0, "n_k_single": 0}, False),
])
def test_use_single_cam_is_the_corpus_switch(train, on):
    cfg = config_from_dict({"train": train})
    assert cfg.train.use_single_cam is on
    # the key alone says it: no derived property restates it
    assert not hasattr(cfg.train, "uses_corpus")


@pytest.mark.parametrize("key", ["n_p_single", "n_k_single"])
def test_switch_on_needs_single_camera_slots(key):
    # n_p_single=0 is no second way to say "labels only"
    with pytest.raises(InvalidConfigError, match="use_single_cam needs"):
        config_from_dict({"train": {key: 0}})
    with pytest.raises(InvalidConfigError, match="use_single_cam needs"):
        apply_overrides(RunConfig().validate(), [f"train.{key}=0"])


@pytest.mark.parametrize("f", fields(GeneratorConfig), ids=lambda f: f.name)
def test_generator_ranges_come_from_the_fields(f):
    # every count is at least 1, every scale at least 0
    assert f.type in ("int", "float")
    value = 0 if f.type == "int" else -0.1
    with pytest.raises(InvalidConfigError, match=f"generator.{f.name} must"):
        config_from_dict({"generator": {f.name: value}})


@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)
                                  if f.type == "int"])
def test_train_counts_are_at_least_zero(name):
    with pytest.raises(InvalidConfigError, match=f"train.{name} must be >= 0"):
        config_from_dict({"train": {name: -1}})


def test_sections_are_the_fields_of_run_config():
    doc = RunConfig().validate().to_dict()
    assert list(doc) == [f.name for f in fields(RunConfig)]
    for name in doc:
        config_from_dict({name: doc[name]})
    for name in ("sections", "Train", "seeds"):
        with pytest.raises(InvalidConfigError, match="unknown top-level"):
            config_from_dict({name: {}})


def test_unsampled_source_may_have_zero_k():
    cfg = config_from_dict({"train": {"use_single_cam": False,
                                      "n_k_single": 0}})
    assert cfg.train.n_k_single == 0


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 11, "train": {"epochs": 3}}))
    cfg = load_config(path)
    assert cfg.seed == 11 and cfg.train.epochs == 3


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{nope")
    with pytest.raises(InvalidConfigError):
        load_config(path)


class TestOverrides:
    def test_typed_values(self):
        cfg = apply_overrides(RunConfig().validate(),
                              ["generator.sigma_video=0.01", "train.epochs=3",
                               "train.use_single_cam=false"])
        assert cfg.generator.sigma_video == 0.01
        assert cfg.train.epochs == 3
        assert cfg.train.use_single_cam is False

    @pytest.mark.parametrize("item", ["train.use_single_cam=False",
                                      'train.epochs="3"',
                                      "generator.sigma_video=fast",
                                      "generator.sigma_frame=NaN",
                                      "generator.sigma_shift=Infinity",
                                      "generator.domain_shift=-Infinity"])
    def test_wrong_type(self, item):
        # a value that is not JSON stays a string, which no flag or count
        # takes; NaN and Infinity parse, but fit no float field
        with pytest.raises(InvalidConfigError, match="must be"):
            apply_overrides(RunConfig().validate(), [item])

    def test_unknown_key(self):
        for key in ("train.nope", "nope.epochs", "train.epochs.x", "seed.x",
                    ""):
            with pytest.raises(InvalidConfigError, match="unknown override"):
                apply_overrides(RunConfig().validate(), [f"{key}=1"])

    def test_missing_equals(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(RunConfig().validate(), ["train.epochs"])

    def test_revalidates(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(RunConfig().validate(), ["generator.sigma_cam=-1"])

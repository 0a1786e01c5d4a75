import json

import pytest

from remix.config import (
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
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
    ("train", "ema_momentum", 1.5),
    ("train", "p_drop", 2.0),
    ("train", "pseudo_label_budget", 0),
    ("generator", "n_videos", 0),
    ("generator", "sigma_cam", -0.5),
    ("train", "checkpoint_every", -3),
    ("train", "n_k_multi", 0),
    ("train", "n_k_single", 0),
    ("train", "n_k_multi+n_k_single", 0),
    ("train", "n_p_multi+n_p_single", 0),
    ("model", "embed_dim", 0),
    ("train", "iters_per_epoch", 0),
    ("train", "epochs", -1),
    ("train", "warmup_epochs", -5),
    ("train", "dbscan_eps", 0.0),
    ("train", "dbscan_min_pts", 0),
    ("train", "lr", 0.0),
    ("train", "lr", -1),
    ("train", "weight_decay", -0.0005),
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
])
def test_invalid_values(section, key, value):
    # "a+b" sets several keys of the section to the same value
    with pytest.raises(InvalidConfigError):
        config_from_dict({section: dict.fromkeys(key.split("+"), value)})


# the loss temperatures and the L_cc weight are constants of remix.losses
REMOVED_KEYS = ["tau_ins_multi", "tau_ins_single", "tau_aug", "tau_cen_multi",
                "tau_cen_single", "tau_camera", "gamma"]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_rejected(tmp_path, key):
    value = 0.1  # a value each of them used to accept
    with pytest.raises(InvalidConfigError, match=f"unknown key.*'{key}'"):
        config_from_dict({"train": {key: value}})
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {key: value}}))
    with pytest.raises(InvalidConfigError, match=f"unknown key.*'{key}'"):
        load_config(path)
    with pytest.raises(InvalidConfigError, match="unknown override"):
        apply_overrides(RunConfig().validate(), [f"train.{key}={value}"])


@pytest.mark.parametrize("section,key,value", [
    ("train", "use_single_cam", "False"),
    ("train", "use_single_cam", 0),
    ("train", "epochs", "3"),
    ("train", "epochs", 3.0),
    ("train", "epochs", True),
    ("train", "lr", "0.01"),
    ("train", "lr", False),
    ("train", "pseudo_label_budget", 64.0),
    ("train", "pseudo_label_budget", "none"),
    ("generator", "dim", 8.5),
    ("generator", "sigma_cam", None),
    ("model", "hidden", 64),
    ("model", "hidden", [64.0]),
    ("model", "hidden", [True]),
    ("io", "metrics_path", 3),
    ("eval", "report_path", None),
    # json.loads reads these, and no float field takes them
    ("generator", "sigma_frame", float("nan")),
    ("train", "dbscan_eps", float("inf")),
    ("train", "sigma_aug", float("-inf")),
])
def test_wrong_types(section, key, value):
    with pytest.raises(InvalidConfigError, match=f"{section}.{key} must be"):
        config_from_dict({section: {key: value}})


def test_floats_take_integers_and_budget_takes_null():
    cfg = config_from_dict({"train": {"lr": 1, "pseudo_label_budget": None},
                            "generator": {"sigma_cam": 0}})
    assert cfg.train.lr == 1 and cfg.train.pseudo_label_budget is None
    assert cfg.generator.sigma_cam == 0


def test_negative_seed():
    with pytest.raises(InvalidConfigError, match="seed"):
        config_from_dict({"seed": -1})


@pytest.mark.parametrize("doc", [[], {"train": []}, {"model": "big"}])
def test_document_and_sections_are_objects(doc):
    with pytest.raises(InvalidConfigError, match="object"):
        config_from_dict(doc)


@pytest.mark.parametrize("train,uses", [
    ({}, True),
    ({"use_single_cam": False}, False),
    ({"n_p_single": 0}, False),
])
def test_uses_corpus(train, uses):
    cfg = config_from_dict({"train": train})
    assert cfg.train.uses_corpus is uses
    # derived, not a key: the config echo and --help do not list it
    assert "uses_corpus" not in cfg.to_dict()["train"]


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
                              ["train.lr=0.01", "train.epochs=3",
                               "train.use_single_cam=false",
                               "model.hidden=[32, 32]"])
        assert cfg.train.lr == 0.01
        assert cfg.train.epochs == 3
        assert cfg.train.use_single_cam is False
        assert cfg.model.hidden == [32, 32]

    @pytest.mark.parametrize("item", ["train.use_single_cam=False",
                                      'train.epochs="3"', "train.lr=fast",
                                      "generator.sigma_frame=NaN",
                                      "train.dbscan_eps=Infinity",
                                      "train.sigma_aug=-Infinity"])
    def test_wrong_type(self, item):
        # a value that is not JSON stays a string, which no flag or count
        # takes; NaN and Infinity parse, but fit no float field
        with pytest.raises(InvalidConfigError, match="must be"):
            apply_overrides(RunConfig().validate(), [item])

    def test_unknown_key(self):
        for key in ("train.nope", "nope.lr", "train.lr.x", "seed.x", ""):
            with pytest.raises(InvalidConfigError, match="unknown override"):
                apply_overrides(RunConfig().validate(), [f"{key}=1"])

    def test_missing_equals(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(RunConfig().validate(), ["train.lr"])

    def test_revalidates(self):
        with pytest.raises(InvalidConfigError):
            apply_overrides(RunConfig().validate(), ["train.sigma_aug=-1"])

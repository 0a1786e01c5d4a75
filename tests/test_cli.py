import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import remix
from remix import encoder
from remix.cli import main
from remix.gradcheck import max_relative_errors

TINY = {
    "seed": 3,
    "generator": {
        "dim": 8, "n_identities": 8, "n_cameras": 3,
        "samples_per_id_per_cam": 2, "n_single_identities": 10,
        "n_videos": 4, "frames_per_identity": 4, "n_target_identities": 6,
        "n_target_cameras": 3, "target_samples_per_id_per_cam": 2,
        "multi_subspace_dim": 4,
    },
    "train": {"n_p_multi": 4, "n_k_multi": 2, "n_p_single": 4,
              "n_k_single": 2, "iters_per_epoch": 8, "epochs": 2},
}


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(TINY))
    return tmp_path, str(cfg)


def run(argv):
    return main(argv)


def test_generate_train_eval_pipeline(workdir, capsys):
    out, cfg = workdir
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "multi-camera: 48 records" in printed
    assert (out / "multicam.jsonl").exists()
    assert (out / "singlecam.jsonl").exists()
    assert (out / "target.jsonl").exists()

    assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "checkpoint.json").exists()
    metrics = (out / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 2

    assert run(["eval", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["protocol"] == "cross-domain"
    assert set(report) >= {"rank1", "rank5", "rank10", "mAP",
                           "n_query", "n_gallery"}

    assert run(["eval", "--config", cfg, "--out", str(out),
                "--set", "io.report_path=r.json"]) == 0
    assert (out / "r.json").read_bytes() == (out / "report.json").read_bytes()


def test_eval_explicit_checkpoint(workdir):
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    ckpt = str(out / "checkpoint.json")
    assert run(["eval", "--config", cfg, "--out", str(out),
                "--checkpoint", ckpt]) == 0


def test_eval_checkpoint_with_no_file_name_is_a_usage_error(workdir, capsys):
    # an empty --checkpoint must not fall back to the config's checkpoint;
    # like an io path, it is rejected before anything is read or written
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    for value in ("", ".", "/"):
        capsys.readouterr()
        assert run(["eval", "--config", cfg, "--out", str(out),
                    "--checkpoint", value]) == 1
        err = capsys.readouterr().err
        assert f"--checkpoint: names no file: {value!r}" in err
        assert not (out / "report.json").exists()


def test_eval_truncated_checkpoint(workdir, capsys):
    # a RemixError (here VersionMismatchError) is a runtime error: exit 2
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    ckpt = out / "checkpoint.json"
    text = ckpt.read_text()
    ckpt.write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "checkpoint" in err


def test_eval_version_2_checkpoint(workdir, capsys):
    # the per-layer format of version 2 has no reader
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    ckpt = out / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    params = encoder.EncoderParams.zeros(doc.pop("dims"))
    for key in encoder.VECTORS:
        doc[key] = [a.tolist() for a in params.like(
            np.array(doc[key])).arrays()]
    ckpt.write_text(json.dumps({**doc, "version": 2}))
    capsys.readouterr()
    assert run(["eval", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err


def test_set_overrides(workdir):
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    assert run(["train", "--config", cfg, "--out", str(out),
                "--set", "train.epochs=1"]) == 0
    metrics = (out / "metrics.jsonl").read_text().splitlines()
    assert len(metrics) == 1


def test_single_camera_ablation_from_one_config(workdir):
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    assert run(["train", "--config", cfg, "--out", str(out),
                "--set", "train.use_single_cam=false"]) == 0
    first = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
    assert first["pseudo_clusters"] == 0


def test_exit_codes():
    assert run([]) == 1  # missing subcommand
    assert run(["train", "--set", "train.nope=1"]) == 1  # bad config key
    assert run(["train", "--set", "train.gamma=0.5"]) == 1  # a loss constant
    # the encoder's widths are trainer constants, the report path an io key
    assert run(["train", "--set", "model.embed_dim=8"]) == 1
    assert run(["train", "--set", "model.hidden=[16]"]) == 1
    assert run(["eval", "--set", "eval.report_path=r.json"]) == 1
    assert run(["train", "--set", "train.n_p_multi=0",
                "--set", "train.n_p_single=0"]) == 1  # empty batch
    assert run(["train", "--config", "/does/not/exist.json"]) == 2


def test_header_only_multicam_file_is_a_runtime_error(workdir, capsys):
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    path = out / "multicam.jsonl"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "multi-camera set is empty" in err
    assert not (out / "checkpoint.json").exists()


def _keep_one_record_of_identity(path, identity):
    header, *records = path.read_text().splitlines()
    lone = [r for r in records if json.loads(r)["identity"] == identity][1:]
    path.write_text("\n".join([header] + [r for r in records
                                          if r not in lone]) + "\n")


@pytest.mark.parametrize("command, name", [("train", "multicam.jsonl"),
                                           ("eval", "target.jsonl")])
def test_identity_of_one_sample_is_a_runtime_error(workdir, capsys, command,
                                                   name):
    # a dataset defect, named with its file, like a malformed record
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    if command == "eval":
        assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    _keep_one_record_of_identity(out / name, 3)
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / name) in err
    assert ">= 2 samples" in err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b"\xff" + json.dumps(TINY).encode())
    assert run(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["generate", "eval"])
def test_out_that_is_a_file_is_a_runtime_error(tmp_path, capsys, command):
    # generate cannot make the directory, and eval cannot read through it
    out = tmp_path / "file"
    out.write_text("not a directory\n")
    assert run([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_more_identities_per_video_than_dim_is_a_config_error(tmp_path,
                                                             capsys):
    # 12 identities per video cannot be orthogonal in R^8
    assert run(["generate", "--out", str(tmp_path),
                "--set", "generator.dim=8",
                "--set", "generator.n_videos=10"]) == 1
    err = capsys.readouterr().err
    assert "generator.dim" in err and "generator.n_videos" in err


def test_wrong_type_is_a_config_error(capsys):
    assert run(["train", "--set", "train.use_single_cam=False"]) == 1
    assert "config error: train.use_single_cam must be bool" \
        in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_float_is_a_config_error(tmp_path, capsys, value):
    assert run(["generate", "--out", str(tmp_path),
                "--set", f"generator.sigma_frame={value}"]) == 1
    assert "config error: generator.sigma_frame must be float" \
        in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["io.report_path", "io.multicam_path",
                                 "io.corpus_path", "io.target_path",
                                 "io.checkpoint_path", "io.metrics_path"])
@pytest.mark.parametrize("command", ["generate", "train", "eval"])
def test_path_with_no_file_name_is_a_config_error(tmp_path, capsys, command,
                                                  key):
    # rejected before anything is read, generated, trained or written
    assert run([command, "--out", str(tmp_path), "--set", f"{key}="]) == 1
    assert f"config error: {key} names no file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,key,other", [
    ("generate", "io.target_path", "multicam.jsonl"),
    ("train", "io.metrics_path", "checkpoint.json"),
    ("eval", "io.report_path", "checkpoint.json"),
    # files that training derives from the checkpoint path
    ("train", "io.metrics_path", "checkpoint.json.partial"),
    ("train", "io.metrics_path", "checkpoint.json.tmp"),
    ("eval", "io.report_path", "checkpoint.json.tmp"),
])
def test_two_keys_naming_one_file_is_a_config_error(workdir, capsys, command,
                                                    key, other):
    # rejected before anything is written: the target is no training set,
    # and neither metrics nor a report overwrite a checkpoint
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert run([command, "--config", cfg, "--out", str(out),
                "--set", f"{key}={other}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_corpus_of_another_width_is_a_runtime_error(workdir, capsys):
    # a 12-wide corpus beside the 8-wide multi-camera set
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["generate", "--config", cfg, "--out", str(out / "wide"),
         "--set", "generator.dim=12"])
    (out / "wide" / "singlecam.jsonl").replace(out / "singlecam.jsonl")
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "corpus" in err and "12" in err
    assert sorted(p.name for p in out.iterdir()) == [
        "multicam.jsonl", "run.json", "singlecam.jsonl", "target.jsonl",
        "wide"]


def test_target_of_another_width_is_a_runtime_error(workdir, capsys):
    # a 12-wide target for the encoder trained on 8-wide features
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    run(["generate", "--config", cfg, "--out", str(out / "wide"),
         "--set", "generator.dim=12"])
    target = out / "wide" / "target.jsonl"
    capsys.readouterr()
    assert run(["eval", "--config", cfg, "--out", str(out),
                "--set", f"io.target_path={target}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for part in (str(target), str(out / "checkpoint.json"), "12-", "8-"):
        assert part in err
    assert not (out / "report.json").exists()


def test_bad_config_json(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{broken")
    assert run(["train", "--config", str(cfg)]) == 1


def test_help_documents_every_config_key(capsys):
    import dataclasses

    from remix.config import RunConfig

    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    assert "seed" in text
    assert "model." not in text and "eval." not in text
    for section in dataclasses.fields(RunConfig):
        if section.name == "seed":
            continue
        for f in dataclasses.fields(section.default_factory):
            assert f"{section.name}.{f.name}" in text


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "0", "--batches", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 4 and "FAIL" not in printed


@pytest.mark.parametrize("argv", [["--batches", "0"], ["--batches", "-3"],
                                  ["--seed", "-1"]])
def test_gradcheck_rejects_bad_counts(argv, capsys):
    # no batch checks nothing, and a negative seed has no RNG stream
    assert run(["gradcheck", *argv]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error:")


@pytest.mark.parametrize("n_batches", [0, -3])
def test_max_relative_errors_needs_a_batch(n_batches):
    with pytest.raises(ValueError, match="n_batches must be >= 1"):
        max_relative_errors(n_batches=n_batches)


def test_gradcheck_detects_corruption(capsys, monkeypatch):
    real = encoder.backward_batch

    def skewed(*args):
        grads = real(*args)
        for w in grads.weights:
            w += 1e-3
        return grads

    monkeypatch.setattr(encoder, "backward_batch", skewed)
    assert run(["gradcheck", "--seed", "0", "--batches", "2"]) == 3
    assert "FAIL" in capsys.readouterr().out


def _run_default(out, threads):
    """`remix generate` and `remix train` for 3 default epochs in a fresh
    process; sha256 of every file written."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(remix.__file__).parents[1]))
    for cmd in ("generate", "train"):
        subprocess.run([sys.executable, "-m", "remix.cli", cmd, "--out",
                        str(out), "--set", "train.epochs=3"],
                       env=env, check=True, capture_output=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    one = _run_default(tmp_path / "one", 1)
    two = _run_default(tmp_path / "two", 2)
    assert {"checkpoint.json", "metrics.jsonl"} <= set(one)
    assert one == two

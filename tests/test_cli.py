import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import remix
from remix import encoder
from remix.cli import main

TINY = {
    "seed": 3,
    "generator": {
        "dim": 8, "n_identities": 8, "n_cameras": 3,
        "samples_per_id_per_cam": 2, "n_single_identities": 10,
        "n_videos": 4, "frames_per_identity": 4, "n_target_identities": 6,
        "n_target_cameras": 3, "target_samples_per_id_per_cam": 2,
        "multi_subspace_dim": 4,
    },
    "model": {"embed_dim": 8, "hidden": [16]},
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


def test_eval_explicit_checkpoint(workdir):
    out, cfg = workdir
    run(["generate", "--config", cfg, "--out", str(out)])
    run(["train", "--config", cfg, "--out", str(out)])
    ckpt = str(out / "checkpoint.json")
    assert run(["eval", "--config", cfg, "--out", str(out),
                "--checkpoint", ckpt]) == 0


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
    assert run(["train", "--set", "train.n_p_multi=0",
                "--set", "train.n_p_single=0"]) == 1  # empty batch
    assert run(["train", "--config", "/does/not/exist.json"]) == 2


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
    for section in dataclasses.fields(RunConfig):
        if section.name == "seed":
            continue
        for f in dataclasses.fields(section.default_factory):
            assert f"{section.name}.{f.name}" in text


def test_gradcheck_passes(capsys):
    assert run(["gradcheck", "--seed", "0", "--batches", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 4 and "FAIL" not in printed


def test_gradcheck_detects_corruption(capsys, monkeypatch):
    real = encoder.backward_batch

    def skewed(*args):
        d_w, d_b = real(*args)
        return [g + 1e-3 for g in d_w], d_b

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

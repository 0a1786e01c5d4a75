"""End-to-end acceptance gate.

Each test prints one pass/fail line (straight to the terminal, bypassing
capture) and then asserts. The two training-based checks share one set of
ablation runs through a module-scoped fixture.
"""
import hashlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import oracle_ap, reference_dbscan, term_alone
from remix import encoder as enc
from remix.cli import main as cli_main
from remix.config import RunConfig, apply_overrides
from remix.datamodel import (MULTI, LabelGroups, compose_batch, draw_epoch,
                             synth_generate)
from remix.evalkit import _rank_queries, mean_ap
from remix.errors import NoValidPositiveError
from remix.gradcheck import max_relative_errors
from remix.losses import BatchView, build_centroids, total_loss
from remix.numcore import normalize_rows, substream
from remix.pseudolabel import dbscan

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "run_ablation.py"
_spec = importlib.util.spec_from_file_location("run_ablation", _PATH)
run_ablation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_ablation)


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {n}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_gradient_fidelity(capsys):
    t0 = time.time()
    errors = max_relative_errors(seed=0, n_batches=20)
    elapsed = time.time() - t0
    worst = max(errors.values())
    ok = worst <= 1e-4 and elapsed < 30.0
    report(capsys, 1, ok,
           f"max rel err {worst:.2e} over 4 losses, {elapsed:.1f}s")


def test_criterion_2_degenerate_zeros(capsys):
    rng = substream(0, "gradcheck")
    f = normalize_rows(rng.standard_normal((3, 4)))

    # single label: instance loss sees no negatives
    bank = build_centroids(f, [0] * 3, np.array([0, 1, 2]))
    v_one = BatchView(f, f, [0] * 3, np.array([0, 1, 2]), bank)
    zeros = [term_alone(v_one, name)[0] for name in ("ins", "aug", "cen")]

    # two labels but one camera each: no cross-camera proxies
    bank_cam = build_centroids(f, [0, 0, 1], np.zeros(3, dtype=int))
    v_cam = BatchView(f, f, [0, 0, 1], np.zeros(3, dtype=int), bank_cam)
    zeros.append(term_alone(v_cam, "cc")[0])

    p_m = enc.init_params(6, [8], 4, substream(0, "init"))
    p_e = enc.init_params(6, [8], 4, substream(1, "init"))
    enc.ema_update(p_m, p_e, 0.0)
    ema_exact = all(np.array_equal(a, b)
                    for a, b in zip(p_m.arrays(), p_e.arrays()))

    ok = all(z == 0.0 for z in zeros) and ema_exact
    report(capsys, 2, ok,
           f"trivial-case losses {zeros}, EMA(0) bit-exact={ema_exact}")


def test_criterion_3_dbscan_oracle(capsys):
    rng = substream(42, "gradcheck")
    t0 = time.time()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        pts = normalize_rows(rng.standard_normal((n, 4)))
        eps = float(rng.uniform(0.2, 1.2))
        min_pts = int(rng.integers(2, 5))
        if not np.array_equal(dbscan(pts, eps, min_pts),
                              reference_dbscan(pts, eps, min_pts)):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(capsys, 3, ok,
           f"200 instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_metric_fixtures(capsys):
    def ang(*degs):
        rad = np.deg2rad(degs)
        return np.stack([np.cos(rad), np.sin(rad)], axis=1)

    fixture_ok = (
        mean_ap(ang(0), [0], [0], ang(5, 20, 60), [0, 1, 0], [1] * 3)
        == pytest.approx(5.0 / 6.0)
        and mean_ap(ang(0), [0], [0], ang(5, 60), [1, 0], [1, 1])
        == pytest.approx(0.5)
        # the first match is third: a miss at rank 1, a hit at rank 3
        and _rank_queries(ang(0), [0], [0], ang(5, 20, 60), [1, 1, 0],
                          [1] * 3)[0].tolist() == [3]
    )

    rng = substream(7, "gradcheck")
    checked = 0
    oracle_ok = True
    while checked < 50:
        nq = int(rng.integers(1, 5))
        ng = int(rng.integers(4, 20))
        q = normalize_rows(rng.standard_normal((nq, 3)))
        g = normalize_rows(rng.standard_normal((ng, 3)))
        q_ids = rng.integers(3, size=nq)
        g_ids = rng.integers(3, size=ng)
        q_cams = rng.integers(2, size=nq)
        g_cams = rng.integers(2, size=ng)
        try:
            got = mean_ap(q, q_ids, q_cams, g, g_ids, g_cams)
        except NoValidPositiveError:
            continue
        sims = q @ g.T
        want = []
        for qi in range(nq):
            valid = ~((g_ids == q_ids[qi]) & (g_cams == q_cams[qi]))
            want.append(oracle_ap(sims[qi][valid], g_ids[valid] == q_ids[qi]))
        if got != pytest.approx(np.mean(want)):
            oracle_ok = False
        checked += 1

    ok = fixture_ok and oracle_ok
    report(capsys, 4, ok,
           f"hand fixtures={fixture_ok}, 50 random instances={oracle_ok}")


@pytest.fixture(scope="module")
def ablation():
    """Criterion-5 runs: 3 seeds x (single-cam on, off), default config,
    through scripts/run_ablation.py's run_once."""
    t0 = time.time()
    out = {"on": [], "off": [], "base": [], "purity": []}
    base = RunConfig().validate()
    for seed in (0, 1, 2):
        for enabled in (True, False):
            rep, base_map, purity = run_ablation.run_once(base, seed, enabled)
            out["base"].append(base_map)
            if enabled:
                out["on"].append(rep["mAP"])
                out["purity"].append(purity)
            else:
                out["off"].append(rep["mAP"])
    out["elapsed"] = time.time() - t0
    return out


def test_ablation_arm_leaves_its_base_config_alone():
    base = apply_overrides(RunConfig(), ["train.epochs=1",
                                         "train.iters_per_epoch=5"])
    before = base.to_dict()
    for enabled in (True, False):
        _, _, purity = run_ablation.run_once(base, 3, enabled)
        assert len(purity) == 1 and (purity[0] is not None) == enabled
    assert base.to_dict() == before


def test_criterion_5_single_camera_direction_of_effect(capsys, ablation):
    on = float(np.mean(ablation["on"]))
    off = float(np.mean(ablation["off"]))
    base = float(np.mean(ablation["base"]))
    ok = (on - off >= 0.02
          and on - base >= 0.10
          and off - base >= 0.10
          and ablation["elapsed"] < 300.0)
    report(capsys, 5,
           ok,
           f"mAP on={on:.3f} off={off:.3f} baseline={base:.3f}, "
           f"runs took {ablation['elapsed']:.0f}s")


def test_criterion_6_pseudo_label_quality_trend(capsys, ablation):
    curves = np.array(ablation["purity"])  # (3 seeds, epochs)
    mean_curve = curves.mean(axis=0)
    first = float(mean_curve[0])
    final_ma = float(mean_curve[-3:].mean())
    final = float(mean_curve[-1])
    ok = final_ma >= first and final >= 0.9
    report(capsys, 6, ok,
           f"purity epoch1={first:.3f} final-3-avg={final_ma:.3f} "
           f"final={final:.3f}")


def test_criterion_7_batch_composition(capsys):
    cfg = RunConfig().validate()
    multi, corpus, _ = synth_generate(cfg.generator, 0)
    frames = [s for _, fr in corpus.videos for s in fr]
    # 30 pseudo labels of 8 frames each
    pool = LabelGroups(np.stack([s.features for s in frames[:240]]),
                       np.arange(0, 241, 8), np.full(240, -1))
    rng = substream(0, "sampler")
    violations = 0
    # one epoch of 10,000 batches, drawn at once and gathered one by one
    draws = draw_epoch(multi.grouped().then(pool), (8, 4, 8, 4), 10_000, rng)
    for it in range(10_000):
        features = compose_batch(draws, it)
        batch_labels, is_multi = draws.labels[it], draws.cameras[it] >= 0
        labels = batch_labels[is_multi].tolist()
        plabels = batch_labels[~is_multi].tolist()
        if not (features.shape == (64, cfg.generator.dim)
                and len(labels) == 32 and len(plabels) == 32
                and len(set(labels)) == 8 and len(set(plabels)) == 8
                and all(labels.count(y) == 4 for y in set(labels))
                and all(plabels.count(p) == 4 for p in set(plabels))):
            violations += 1

    # camera-diversity rule on a constructed fixture: with 4 cameras on
    # offer and 4 slots, every pick must use a distinct camera
    from remix.datamodel import MultiCamDataset, PersonSample
    fixture = MultiCamDataset([
        PersonSample(s, np.ones(4), y, c, MULTI, None, y)
        for s, (y, c) in enumerate((y, c) for y in range(8)
                                   for c in range(4) for _ in range(2))
    ]).grouped()
    diverse_ok = True
    for trial in range(50):
        draws = draw_epoch(fixture, (8, 4, 0, 0), 1,
                           substream(trial, "sampler"))
        labels, cameras = draws.labels[0], draws.cameras[0]
        for y in set(labels.tolist()):
            cams = sorted(cameras[labels == y].tolist())
            if cams != [0, 1, 2, 3]:
                diverse_ok = False

    ok = violations == 0 and diverse_ok
    report(capsys, 7,
           ok,
           f"10000 batches, {violations} violations, "
           f"camera diversity={diverse_ok}")


def test_criterion_8_train_determinism(capsys, tmp_path):
    cfg = {
        "seed": 5,
        "generator": {"dim": 8, "n_identities": 8, "n_cameras": 3,
                      "samples_per_id_per_cam": 2, "n_single_identities": 10,
                      "n_videos": 4, "frames_per_identity": 4,
                      "n_target_identities": 6, "n_target_cameras": 3,
                      "target_samples_per_id_per_cam": 2,
                      "multi_subspace_dim": 4},
        "train": {"n_p_multi": 4, "n_k_multi": 2, "n_p_single": 4,
                  "n_k_single": 2, "iters_per_epoch": 10, "epochs": 3},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    digests = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        out.mkdir()
        assert cli_main(["generate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        assert cli_main(["train", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        digests.append(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("metrics.jsonl", "checkpoint.json")))
    ok = digests[0] == digests[1]
    report(capsys, 8, ok, "metrics and checkpoint byte-identical across "
                          f"reruns={ok}")


def test_criterion_9_loss_weight_contract(capsys):
    rng = substream(9, "gradcheck")
    f = normalize_rows(rng.standard_normal((12, 6)))
    m = normalize_rows(rng.standard_normal((12, 6)))
    labels = [i % 3 for i in range(6)] + [3 + i % 3 for i in range(6)]
    cams = np.array([int(rng.integers(3)) for _ in range(6)] + [-1] * 6)
    view = BatchView(f, m, labels, cams, build_centroids(m, labels, cams))

    loss, grads, parts = total_loss(view)
    expect = parts["ins"] + parts["aug"] + parts["cen"] + 0.5 * parts["cc"]
    g = (term_alone(view, "ins")[1] + term_alone(view, "aug")[1]
         + term_alone(view, "cen")[1] + 0.5 * term_alone(view, "cc")[1])
    loss_err = abs(loss - expect)
    grad_err = float(np.max(np.abs(grads - g)))
    ok = loss_err <= 1e-12 and grad_err <= 1e-12
    report(capsys, 9, ok,
           f"loss err {loss_err:.1e}, grad err {grad_err:.1e}")

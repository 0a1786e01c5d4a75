"""The benchmark's own tests, at a tiny config that runs in seconds."""
import json
import math
from pathlib import Path

import pytest

import harness
import tracing
from remix import trainer
from remix.datamodel import synth_generate

TINY = harness.Workload(
    "tiny",
    {"dim": 8, "n_identities": 10, "n_cameras": 3, "samples_per_id_per_cam": 2,
     "n_single_identities": 12, "n_videos": 4, "frames_per_identity": 4,
     "n_target_identities": 6, "n_target_cameras": 3,
     "target_samples_per_id_per_cam": 2, "multi_subspace_dim": 4},
    {"n_p_multi": 4, "n_k_multi": 2, "n_p_single": 4, "n_k_single": 2,
     "iters_per_epoch": 3, "epochs": 2, "checkpoint_every": 1},
    worlds=2, eval_repeats=2)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_tiny(tmp_path, trace):
    return harness.run(TINY, seed=3, seconds=0, trace=trace, workdir=tmp_path,
                       log=lambda line: None)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"),
                                            (True, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(tmp_path, trace,
                                                      section):
    result = run_tiny(tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for v in result["metrics"].values():
        assert math.isfinite(v["value"])


def test_workloads_match_benchmark_file():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(harness.WORKLOADS)
    for w in harness.WORKLOADS.values():
        harness.make_config(w, 0)  # validates every override


def test_forced_failure_counts_in_success_share(tmp_path, monkeypatch):
    real = trainer.run_epoch
    calls = []

    def failing_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise FloatingPointError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "run_epoch", failing_once)
    result = run_tiny(tmp_path, trace=False)
    assert result["failed"] == 1 and not result["correct"]
    share = result["metrics"]["success_share"]["value"]
    assert share == 1.0 - 1 / result["attempted"]


def test_output_checks_reject_bad_records(tmp_path):
    cfg = harness.make_config(TINY, 0)
    generated, loaded = harness.setup(cfg, tmp_path)
    assert harness.check_setup(generated, loaded) == []
    o = harness.train_and_eval(cfg, loaded, tmp_path, eval_repeats=1)
    assert harness.check_outcome(cfg, o, tmp_path) == []
    o.state.metrics[0]["loss_ins"] = float("nan")
    o.reports[0]["n_query"] += 1
    problems = harness.check_outcome(cfg, o, tmp_path)
    assert any("non-finite" in p for p in problems)
    assert any("metrics file" in p for p in problems)
    assert any("query/gallery" in p for p in problems)


def test_span_tree_nests_losses_under_run_epoch():
    cfg = harness.make_config(TINY, 0)
    multi, corpus, _ = synth_generate(cfg.generator, cfg.seed)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        trainer.train(multi, corpus, cfg)
    assert trainer.total_loss is tracing.losses.total_loss  # restored
    spans = tracer.spans
    parent = lambda s: spans[s.parent].name if s.parent >= 0 else None
    assert spans[0].name == "trainer.train" and spans[0].parent == -1
    assert {parent(s) for s in spans if s.name == "losses.total_loss"} \
        == {"trainer.run_epoch"}
    assert {parent(s) for s in spans if s.name == "losses.instance_loss"} \
        == {"losses.total_loss"}
    assert {parent(s) for s in spans if s.name == "pseudolabel.dbscan"} \
        == {"pseudolabel.pseudo_label_epoch"}
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    self_s = tracer.self_seconds()
    assert all(v >= 0 for v in self_s.values())
    total = spans[0].end - spans[0].start
    assert sum(self_s.values()) == pytest.approx(total)

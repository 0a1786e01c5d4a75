import hashlib
import json
from copy import deepcopy

import numpy as np
import pytest

from remix import trainer
from remix.config import RunConfig, checkpoint_files, config_from_dict
from remix.datamodel import (
    GeneratorConfig,
    MultiCamDataset,
    SingleCamCorpus,
    synth_generate,
)
from remix.encoder import load_checkpoint
from remix.errors import (
    BudgetUnreachableError,
    DimensionMismatchError,
    InsufficientLabelsError,
    InvalidConfigError,
    NonFiniteTrainingError,
)
from remix.numcore import substream
from remix.pseudolabel import PseudoLabeledPool


def tiny_cfg(**train_kw):
    cfg = RunConfig()
    cfg.generator = GeneratorConfig(
        dim=8, n_identities=10, n_cameras=3, samples_per_id_per_cam=2,
        n_single_identities=12, n_videos=4, frames_per_identity=4,
        n_target_identities=6, n_target_cameras=3,
        target_samples_per_id_per_cam=2, multi_subspace_dim=4)
    cfg.train.n_p_multi = 4
    cfg.train.n_k_multi = 2
    cfg.train.n_p_single = 4
    cfg.train.n_k_single = 2
    cfg.train.iters_per_epoch = 10
    cfg.train.epochs = 3
    for k, v in train_kw.items():
        setattr(cfg.train, k, v)
    return cfg.validate()


def data_for(cfg, seed=0):
    return synth_generate(cfg.generator, seed)


def params_digest(params):
    h = hashlib.sha256()
    for a in params.arrays():
        h.update(a.tobytes())
    return h.hexdigest()


def test_metrics_one_record_per_epoch():
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    state = trainer.train(multi, corpus, cfg)
    assert state.epoch == 3 and len(state.metrics) == 3
    rec = state.metrics[0]
    assert set(rec) == {"epoch", "loss_total", "loss_ins", "loss_aug",
                        "loss_cen", "loss_cc", "pseudo_clusters",
                        "pseudo_noise", "purity", "lr"}
    assert rec["pseudo_clusters"] > 0
    assert 0.0 <= rec["purity"] <= 1.0


def test_metrics_lr_follows_warmup(monkeypatch):
    monkeypatch.setattr(trainer, "LR", 0.01)
    monkeypatch.setattr(trainer, "WARMUP_EPOCHS", 2)
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    state = trainer.train(multi, corpus, cfg)
    assert [m["lr"] for m in state.metrics] == [0.005, 0.01, 0.01]


def test_no_corpus_disables_pseudo_labels():
    cfg = tiny_cfg(use_single_cam=False)
    multi, _, _ = data_for(cfg)
    state = trainer.train(multi, None, cfg)
    assert all(m["purity"] is None for m in state.metrics)
    assert all(m["pseudo_clusters"] == 0 for m in state.metrics)


def test_config_that_uses_the_corpus_needs_one(monkeypatch, tmp_path):
    # no silent fall-back to labels alone: the error comes before the
    # first epoch, and nothing is written
    cfg = tiny_cfg()
    multi, _, _ = data_for(cfg)
    monkeypatch.setattr(trainer, "run_epoch", None)  # never reached
    with pytest.raises(InvalidConfigError, match="corpus"):
        trainer.train(multi, None, cfg, checkpoint_path=tmp_path / "c.json",
                      metrics_path=tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_empty_multicam_set_is_rejected_before_the_first_epoch(
        monkeypatch, tmp_path):
    cfg = tiny_cfg()
    _, corpus, _ = data_for(cfg)
    monkeypatch.setattr(trainer, "run_epoch", None)  # never reached
    with pytest.raises(InsufficientLabelsError, match="multi-camera"):
        trainer.train(MultiCamDataset([]), corpus, cfg,
                      checkpoint_path=tmp_path / "c.json",
                      metrics_path=tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_epoch_that_uses_the_corpus_needs_one():
    cfg = tiny_cfg()
    multi, _, _ = data_for(cfg)
    rows = multi.grouped()
    state = trainer.init_state(cfg, rows.features.shape[1])
    with pytest.raises(InvalidConfigError, match="corpus"):
        trainer.run_epoch(state, rows, None, cfg)
    assert state.epoch == 0 and state.metrics == []


STREAMS = ("sampler", "augment", "videos")


def test_init_state_streams_start_at_their_substreams():
    cfg = tiny_cfg()
    state = trainer.init_state(cfg, 8)
    for name in STREAMS:
        assert getattr(state, name).bit_generator.state \
            == substream(cfg.seed, name).bit_generator.state


def test_state_carries_the_whole_run():
    # 2 epochs, then 2 more from the state and from a copy of it, match 4
    # straight epochs bit for bit; the copy runs second, so a stream kept
    # outside the state would have moved on under it
    cfg = tiny_cfg(epochs=4)
    multi, corpus, _ = data_for(cfg)
    rows, frames = multi.grouped(), corpus.grouped()
    straight = trainer.train(multi, corpus, cfg)
    state = trainer.init_state(cfg, rows.features.shape[1])
    for _ in range(2):
        trainer.run_epoch(state, rows, frames, cfg)
    copy = deepcopy(state)
    for resumed in (state, copy):
        for _ in range(2):
            trainer.run_epoch(resumed, rows, frames, cfg)
        assert resumed.epoch == 4
        for a, b in [(resumed.params.flat, straight.params.flat),
                     (resumed.momentum.flat, straight.momentum.flat),
                     (resumed.opt.m, straight.opt.m),
                     (resumed.opt.v, straight.opt.v)]:
            assert a.tobytes() == b.tobytes()
        assert resumed.opt.step == straight.opt.step
        assert resumed.metrics == straight.metrics
        for name in STREAMS:
            assert getattr(resumed, name).bit_generator.state \
                == getattr(straight, name).bit_generator.state


def state_vectors(state):
    """The encoder, momentum and Adam moment vectors of a state."""
    return (state.params.flat, state.momentum.flat, state.opt.m, state.opt.v)


def test_deep_copied_state_keeps_its_parameter_views():
    # an epoch run on a copy steps the copy's vectors in place and leaves
    # every vector of the original unchanged; writing a copy's flat vector
    # writes its weights and biases, and leaves the original alone
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    state = trainer.init_state(cfg, 8)
    before = [v.copy() for v in state_vectors(state)]
    copy = deepcopy(state)
    trainer.run_epoch(copy, multi.grouped(), corpus.grouped(), cfg)
    assert copy.opt.step == cfg.train.iters_per_epoch and state.opt.step == 0
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(state_vectors(state), before))
    assert not any(np.array_equal(a, b)
                   for a, b in zip(state_vectors(copy), before))
    assert copy.params is copy.encoders.rows[0]
    assert copy.momentum is copy.encoders.rows[1]
    for orig, dup in ((state.params, copy.params),
                      (state.momentum, copy.momentum)):
        dup.flat[:] = 99.0
        assert all(np.all(a == 99.0) for a in dup.arrays())
        assert not np.any(orig.flat == 99.0)
    assert np.all(copy.encoders.flat == 99.0)


@pytest.mark.parametrize("budget", [None, 20])
def test_pseudo_label_budget(monkeypatch, budget):
    # unset, the budget is one epoch's single-camera slots
    cfg = tiny_cfg(epochs=2, pseudo_label_budget=budget)
    multi, corpus, _ = data_for(cfg)
    real = trainer.pseudo_label_epoch
    budgets = []

    def spy(corpus, momentum, eps, min_pts, budget, rng, min_labels):
        budgets.append((budget, min_labels))
        return real(corpus, momentum, eps, min_pts, budget, rng, min_labels)

    monkeypatch.setattr(trainer, "pseudo_label_epoch", spy)
    trainer.train(multi, corpus, cfg)
    # n_p_single * n_k_single * iters_per_epoch = 4 * 2 * 10, and at least
    # n_p_single labels
    assert budgets == [(budget or 80, 4)] * 2


def test_one_gather_and_one_augment_per_iteration(monkeypatch):
    # the benchmark times and traces training at these two call sites
    cfg = tiny_cfg(epochs=3, iters_per_epoch=7)
    multi, corpus, _ = data_for(cfg)
    calls = {"compose_batch": 0, "augment": 0}
    for name in calls:
        def spy(*args, real=getattr(trainer, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(trainer, name, spy)
    trainer.train(multi, corpus, cfg)
    assert calls == {"compose_batch": 21, "augment": 21}


def test_one_loss_layout_per_epoch(monkeypatch):
    cfg = tiny_cfg(epochs=3, iters_per_epoch=7)
    multi, corpus, _ = data_for(cfg)
    built = []

    class Counted(trainer.LossLayout):
        def __init__(self, labels, cameras, bank):
            built.append((labels.shape, bank))
            super().__init__(labels, cameras, bank)

    real_loss, banks = trainer.total_loss, []

    def loss_spy(view, *args):
        banks.append(view.layout.bank)
        return real_loss(view, *args)

    monkeypatch.setattr(trainer, "LossLayout", Counted)
    monkeypatch.setattr(trainer, "total_loss", loss_spy)
    trainer.train(multi, corpus, cfg)
    assert [shape for shape, _ in built] == [(7, 16)] * 3
    # every iteration of an epoch reads its layout's bank, one per epoch
    assert [id(bank) for bank in banks] \
        == [id(bank) for _, bank in built for _ in range(7)]


def _break_both_sources(draws):
    # batch 3's first single-camera row takes a multi-camera label
    draws.labels[3, 8] = draws.labels[3, 0]


def _break_source_order(draws):
    # batch 2 starts with a single-camera row
    draws.cameras[2, 0] = -1


def _break_shared_pattern(draws):
    # batch 4's first row takes the label of its second block
    draws.labels[4, 0] = draws.labels[4, 2]


def _break_both_sources_first_batch(draws):
    draws.labels[0, 8] = draws.labels[0, 0]


@pytest.mark.parametrize("edit", [
    _break_both_sources, _break_source_order, _break_shared_pattern,
    _break_both_sources_first_batch])
def test_edited_draws_stop_before_the_first_iteration(monkeypatch, edit):
    cfg = tiny_cfg(iters_per_epoch=6)
    multi, corpus, _ = data_for(cfg)
    state = trainer.init_state(cfg, cfg.generator.dim)

    def edited(*args):
        draws = real_draw(*args)
        edit(draws)
        return draws

    real_draw, gathered = trainer.draw_epoch, []
    monkeypatch.setattr(trainer, "draw_epoch", edited)
    monkeypatch.setattr(trainer, "compose_batch",
                        lambda draws, it: gathered.append(it))
    with pytest.raises(DimensionMismatchError):
        trainer.run_epoch(state, multi.grouped(), corpus.grouped(), cfg)
    assert gathered == []


def test_momentum_not_touched_by_backprop(monkeypatch):
    # with lambda = 1 the momentum encoder must stay frozen at init even
    # though the gradient encoder moves
    monkeypatch.setattr(trainer, "EMA_MOMENTUM", 1.0)
    cfg = tiny_cfg(epochs=2)
    multi, corpus, _ = data_for(cfg)
    init = trainer.init_state(cfg, 8)
    before = params_digest(init.momentum)
    state = trainer.train(multi, corpus, cfg)
    assert params_digest(state.momentum) == before
    assert params_digest(state.params) != before


def test_lambda_zero_tracks_encoder_exactly(monkeypatch):
    monkeypatch.setattr(trainer, "EMA_MOMENTUM", 0.0)
    cfg = tiny_cfg(epochs=2)
    multi, corpus, _ = data_for(cfg)
    state = trainer.train(multi, corpus, cfg)
    assert params_digest(state.momentum) == params_digest(state.params)


def test_training_is_deterministic():
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    a = trainer.train(multi, corpus, cfg)
    b = trainer.train(multi, corpus, cfg)
    assert params_digest(a.params) == params_digest(b.params)
    assert params_digest(a.momentum) == params_digest(b.momentum)
    assert a.metrics == b.metrics


def test_metrics_file_and_checkpoints(tmp_path):
    cfg = tiny_cfg(epochs=4, checkpoint_every=2)
    multi, corpus, _ = data_for(cfg)
    ckpt = tmp_path / "ckpt.json"
    metrics = tmp_path / "metrics.jsonl"
    trainer.train(multi, corpus, cfg, checkpoint_path=ckpt,
                  metrics_path=metrics)
    lines = metrics.read_text().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[2])["epoch"] == 2
    assert ckpt.exists()
    assert (tmp_path / "ckpt.epoch2.json").exists()
    assert not (tmp_path / "ckpt.epoch4.json").exists()  # final covers it
    # the files the config's same-file rule reserves are those written
    epochs, _ = checkpoint_files(ckpt, cfg.train)
    assert set(tmp_path.iterdir()) == {ckpt, metrics, *epochs.values()}


def test_partial_checkpoint_on_failure(monkeypatch, tmp_path):
    # an unreachable pseudo-label budget aborts the epoch; the partial
    # checkpoint must still land on disk
    monkeypatch.setattr(trainer, "DBSCAN_MIN_PTS", 50)
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    ckpt = tmp_path / "ckpt.json"
    with pytest.raises(BudgetUnreachableError):
        trainer.train(multi, corpus, cfg, checkpoint_path=ckpt)
    assert (tmp_path / "ckpt.json.partial").exists()
    assert not ckpt.exists()


def test_empty_corpus_is_an_unreachable_budget(tmp_path):
    # a corpus file with no records loads as a corpus of no videos
    cfg = tiny_cfg()
    multi, _, _ = data_for(cfg)
    ckpt = tmp_path / "ckpt.json"
    with pytest.raises(BudgetUnreachableError):
        trainer.train(multi, SingleCamCorpus([]), cfg, checkpoint_path=ckpt)
    assert (tmp_path / "ckpt.json.partial").exists()


def test_corpus_of_another_width_stops_before_any_file(tmp_path):
    cfg = tiny_cfg()
    multi, _, _ = data_for(cfg)
    wide = deepcopy(cfg.generator)
    wide.dim = 12
    _, corpus, _ = synth_generate(wide, 0)
    with pytest.raises(DimensionMismatchError,
                       match="corpus has 12-wide.*multi-camera set 8-wide"):
        trainer.train(multi, corpus, cfg, checkpoint_path=tmp_path / "c.json",
                      metrics_path=tmp_path / "m.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["loss", "gradient"])
def test_non_finite_iteration_stops_before_the_step(monkeypatch, tmp_path,
                                                     bad):
    # NaN at epoch 1, iteration 2: training stops before that step, and the
    # partial checkpoint holds the last finite state
    cfg = tiny_cfg()
    multi, corpus, _ = data_for(cfg)
    real, real_init = trainer.total_loss, trainer.init_state
    calls, states, last_finite = [], [], []

    def init_spy(*args):
        states.append(real_init(*args))
        return states[-1]

    def poisoned(*args):
        loss, d_f, parts = real(*args)
        calls.append(None)
        if len(calls) == cfg.train.iters_per_epoch + 3:
            # the state as the last finite step left it
            last_finite.extend(v.copy() for v in state_vectors(states[0]))
            if bad == "loss":
                loss = float("nan")
            else:
                d_f = d_f.copy()
                d_f[0, 0] = np.nan
        return loss, d_f, parts

    monkeypatch.setattr(trainer, "total_loss", poisoned)
    monkeypatch.setattr(trainer, "init_state", init_spy)
    ckpt = tmp_path / "ckpt.json"
    with pytest.raises(NonFiniteTrainingError,
                       match="epoch 1, iteration 2"):
        trainer.train(multi, corpus, cfg, checkpoint_path=ckpt)
    _, epoch, params, momentum, opt = load_checkpoint(
        tmp_path / "ckpt.json.partial")
    assert epoch == 1 and opt.step == cfg.train.iters_per_epoch + 2
    assert all(np.all(np.isfinite(a)) for a in params.arrays())
    # nothing of the stopped step is written: all four vectors are the
    # last finite step's, bit for bit, in the file and in the state
    saved = (params.flat, momentum.flat, opt.m, opt.v)
    assert len(last_finite) == 4
    for file_vec, state_vec, want in zip(saved, state_vectors(states[0]),
                                         last_finite):
        assert file_vec.tobytes() == want.tobytes()
        assert state_vec.tobytes() == want.tobytes()


def test_single_camera_centroids_enter_bank(monkeypatch):
    cfg = tiny_cfg(epochs=1)
    multi, corpus, _ = data_for(cfg)
    # the bank and pool are epoch locals; spy on the calls that see them
    real_pool, real_loss = trainer.pseudo_label_epoch, trainer.total_loss
    pools, banks = [], []

    def pool_spy(*args):
        pools.append(real_pool(*args))
        return pools[-1]

    def loss_spy(view, *args):
        banks.append(view.layout.bank)
        return real_loss(view, *args)

    monkeypatch.setattr(trainer, "pseudo_label_epoch", pool_spy)
    monkeypatch.setattr(trainer, "total_loss", loss_spy)
    trainer.train(multi, corpus, cfg)
    assert len(pools) == 1 and len(banks) == cfg.train.iters_per_epoch
    bank = banks[0]
    assert all(b is bank for b in banks)
    # rows 0-9 are the identities, the pseudo labels follow
    assert len(bank.label_centroids) == 10 + len(pools[0].entries)
    assert bank.camera_present.shape[0] == 10


def test_training_never_builds_the_entries_view(monkeypatch):
    # the per-frame (sample, embedding) view is for inspection only; the
    # pool's arrays carry everything an epoch needs, purity included
    def refuse(pool):
        raise AssertionError("PseudoLabeledPool.entries was read")

    monkeypatch.setattr(PseudoLabeledPool, "entries", property(refuse))
    cfg = tiny_cfg(epochs=2)
    multi, corpus, _ = data_for(cfg)
    state = trainer.train(multi, corpus, cfg)
    assert all(r["pseudo_clusters"] > 0 and r["purity"] is not None
               for r in state.metrics)


def test_warns_when_camera_loss_is_inert(caplog):
    # one camera only: no identity can span two cameras
    cfg = tiny_cfg(epochs=1, use_single_cam=False)
    cfg.generator.n_cameras = 1
    cfg.generator.samples_per_id_per_cam = 4
    multi, _, _ = data_for(cfg)
    with caplog.at_level("WARNING", logger="remix.trainer"):
        state = trainer.train(multi, None, cfg)
    assert any("camera" in r.message for r in caplog.records)
    assert state.metrics[0]["loss_cc"] == 0.0


def test_loss_decreases_by_epoch_five():
    cfg = RunConfig()
    cfg.train.epochs = 5
    cfg.validate()
    multi, corpus, _ = synth_generate(cfg.generator, cfg.seed)
    state = trainer.train(multi, corpus, cfg)
    assert state.metrics[4]["loss_total"] < state.metrics[0]["loss_total"]


def test_default_budget_reaches_n_p_single_labels():
    # the default config's 64-frame budget (2 iterations) reaches about two
    # videos, 7 clusters at seed 3: the walk goes on to n_p_single labels
    cfg = config_from_dict({"seed": 3,
                            "train": {"epochs": 1, "iters_per_epoch": 2}})
    multi, corpus, _ = synth_generate(cfg.generator, cfg.seed)
    state = trainer.train(multi, corpus, cfg)
    assert state.metrics[0]["pseudo_clusters"] >= cfg.train.n_p_single

"""Training orchestration: epoch-start centroid and pseudo-label refresh,
the iteration loop (augment, forward, loss, backprop, optimizer step, EMA
update), metrics logging, and checkpointing.

The momentum encoder is the inference-facing artifact; the gradient path
never touches it.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import evalkit
from .config import RunConfig, TrainConfig
from .datamodel import (
    CorpusFrames,
    LabelGroups,
    MultiCamDataset,
    SingleCamCorpus,
    augment,
    compose_batch,
    draw_epoch,
)
from .errors import (
    InsufficientLabelsError,
    InvalidConfigError,
    NonFiniteTrainingError,
)
from .losses import BatchView, build_centroids, total_loss
from .numcore import substream
from .pseudolabel import pseudo_label_epoch

log = logging.getLogger(__name__)


@dataclass
class TrainState:
    """Everything a run carries from one epoch to the next: the encoder,
    its momentum copy, the optimizer, the epoch, the metrics records and
    the named random streams. No data: run_epoch is given the datasets."""
    params: enc.EncoderParams
    momentum: enc.EncoderParams
    opt: enc.OptimizerState
    sampler: np.random.Generator  # the epoch's batch draws
    augment: np.random.Generator  # the training views' noise and drops
    videos: np.random.Generator  # the pseudo-labelling video order
    epoch: int = 0
    metrics: list[dict] = field(default_factory=list)


def init_state(cfg: RunConfig, feature_dim: int) -> TrainState:
    params = enc.init_params(feature_dim, list(cfg.model.hidden),
                             cfg.model.embed_dim, substream(cfg.seed, "init"))
    return TrainState(params, params.copy(),
                      enc.OptimizerState.for_params(params),
                      sampler=substream(cfg.seed, "sampler"),
                      augment=substream(cfg.seed, "augment"),
                      videos=substream(cfg.seed, "videos"))


def _require_corpus(t: TrainConfig, corpus) -> None:
    if t.uses_corpus and corpus is None:
        raise InvalidConfigError("the config uses the single-camera corpus, "
                                 "but no corpus was given")


def run_epoch(state: TrainState, multi: LabelGroups,
              corpus: CorpusFrames | None, cfg: RunConfig) -> TrainState:
    """One epoch over the multi-camera rows grouped by identity and the
    corpus rows grouped by video; mutates and returns state. A config that
    uses the corpus needs one: InvalidConfigError if None."""
    t = cfg.train
    _require_corpus(t, corpus)

    # epoch-start: pseudo-label the corpus, momentum-embed all multi data,
    # rebuild the centroid bank over both
    pool = single = None
    embs, _ = enc.forward_batch(state.momentum, multi.features)
    labels, cams = multi.labels(), multi.cameras
    if t.uses_corpus:
        # by default a cap of one epoch's single-camera slots, and at least
        # a batch's labels; a smaller corpus is labelled whole, once
        budget = t.pseudo_label_budget or (
            t.n_p_single * t.n_k_single * t.iters_per_epoch)
        pool = pseudo_label_epoch(corpus, state.momentum, t.dbscan_eps,
                                  t.dbscan_min_pts, budget, state.videos,
                                  t.n_p_single)
        single = pool.frames
        embs = np.concatenate([embs, pool.embeddings])
        labels = np.concatenate([labels, multi.n_labels + single.labels()])
        cams = np.concatenate([cams, single.cameras])
    bank = build_centroids(embs, labels, cams)

    lr = enc.effective_lr(t.lr, t.warmup_epochs, state.epoch)
    sizes = (t.n_p_multi, t.n_k_multi, t.n_p_single, t.n_k_single)
    draws = draw_epoch(multi, single, sizes, t.iters_per_epoch, state.sampler)
    sums = {"total": 0.0, "ins": 0.0, "aug": 0.0, "cen": 0.0, "cc": 0.0}
    for it in range(t.iters_per_epoch):
        batch = compose_batch(draws, it)
        augmented = augment(batch.features, state.augment, t.sigma_aug, t.p_drop)
        f, cache = enc.forward_batch(state.params, augmented)
        m, _ = enc.forward_batch(state.momentum, batch.features)
        view = BatchView(f, m, batch.labels, batch.multi, batch.cameras)
        loss, d_f, parts = total_loss(view, bank)
        grads = enc.backward_batch(state.params, cache, d_f)
        if not (np.isfinite(loss) and np.isfinite(grads.flat).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or gradient at epoch {state.epoch}, "
                f"iteration {it}")
        state.params, state.opt = enc.adam_step(state.opt, state.params,
                                                grads, lr, t.weight_decay)
        state.momentum = enc.ema_update(state.momentum, state.params,
                                        t.ema_momentum)
        sums["total"] += loss
        for k in parts:
            sums[k] += parts[k]

    n = t.iters_per_epoch
    purity = evalkit.cluster_purity(pool) if pool is not None else None
    state.metrics.append({
        "epoch": state.epoch,
        "loss_total": sums["total"] / n,
        "loss_ins": sums["ins"] / n,
        "loss_aug": sums["aug"] / n,
        "loss_cen": sums["cen"] / n,
        "loss_cc": sums["cc"] / n,
        "pseudo_clusters": pool.frames.n_labels if pool is not None else 0,
        "pseudo_noise": pool.noise_count if pool is not None else 0,
        "purity": purity,
        "lr": lr,
    })
    state.epoch += 1
    return state


def _checkpoint_path(base: Path, epoch: int) -> Path:
    return base.with_name(f"{base.stem}.epoch{epoch}{base.suffix}")


def train(
    multi: MultiCamDataset,
    corpus: SingleCamCorpus | None,
    cfg: RunConfig,
    checkpoint_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> TrainState:
    """Run cfg.train.epochs epochs; write metrics lines and checkpoints.
    A config that uses the corpus needs one: InvalidConfigError if None.
    An empty multi-camera set raises InsufficientLabelsError."""
    t = cfg.train
    _require_corpus(t, corpus)
    if not multi.samples:
        raise InsufficientLabelsError("the multi-camera set is empty")
    rows = multi.grouped()
    # rows are grouped by identity: one spans two cameras iff two of its
    # neighbouring rows differ in camera
    if not np.any((np.diff(rows.labels()) == 0) & (np.diff(rows.cameras) != 0)):
        log.warning("no identity spans two cameras, camera centroid loss "
                    "is inert")
    frames = corpus.grouped() if t.uses_corpus else None
    state = init_state(cfg, rows.features.shape[1])
    cfg_echo = cfg.to_dict()
    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None

    def save(path: Path) -> None:
        enc.save_checkpoint(path, cfg_echo, state.epoch, state.params,
                            state.momentum, state.opt)

    metrics_fh = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    try:
        for _ in range(t.epochs):
            run_epoch(state, rows, frames, cfg)
            if metrics_fh is not None:
                metrics_fh.write(json.dumps(state.metrics[-1]) + "\n")
                metrics_fh.flush()
            if ckpt is not None and t.checkpoint_every > 0 \
                    and state.epoch % t.checkpoint_every == 0 \
                    and state.epoch < t.epochs:
                save(_checkpoint_path(ckpt, state.epoch))
    except Exception:
        if ckpt is not None:
            save(ckpt.with_suffix(ckpt.suffix + ".partial"))
        raise
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    if ckpt is not None:
        save(ckpt)
    return state

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
from .config import RunConfig, TrainConfig, checkpoint_files
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
    DimensionMismatchError,
    InsufficientLabelsError,
    InvalidConfigError,
    NonFiniteTrainingError,
)
from .losses import TERMS, LossLayout, build_centroids, total_loss
from .numcore import substream
from .pseudolabel import pseudo_label_epoch

log = logging.getLogger(__name__)

# The training hyperparameters, fixed like the loss constants of losses.
LR = 0.002  # scaled up for short runs; 0.00035 at full scale
WEIGHT_DECAY = 0.0005
WARMUP_EPOCHS = 10
# 0.999 suits runs of many thousands of iterations; at the default 1000
# iterations the momentum encoder would stay glued to its init
EMA_MOMENTUM = 0.99
SIGMA_AUG = 0.05
P_DROP = 0.1
DBSCAN_EPS = 0.8
DBSCAN_MIN_PTS = 4
HIDDEN = (64,)  # the encoder's hidden layer widths
EMBED_DIM = 16  # and its embedding width


@dataclass
class TrainState:
    """Everything a run carries from one epoch to the next: the encoder and
    its momentum copy, the optimizer, the epoch, the metrics records and
    the named random streams. No data: run_epoch is given the datasets."""
    # a (2, P) stack: row 0 the encoder, row 1 its momentum copy
    encoders: enc.EncoderParams
    opt: enc.OptimizerState
    sampler: np.random.Generator  # the epoch's batch draws
    augment: np.random.Generator  # the training views' noise and drops
    videos: np.random.Generator  # the pseudo-labelling video order
    epoch: int = 0
    metrics: list[dict] = field(default_factory=list)

    @property
    def params(self) -> enc.EncoderParams:
        """The encoder, a view of row 0 of encoders."""
        return self.encoders.rows[0]

    @property
    def momentum(self) -> enc.EncoderParams:
        """The momentum copy, a view of row 1 of encoders."""
        return self.encoders.rows[1]


def init_state(cfg: RunConfig, feature_dim: int) -> TrainState:
    params = enc.init_params(feature_dim, HIDDEN, EMBED_DIM,
                             substream(cfg.seed, "init"))
    return TrainState(params.like(np.stack((params.flat, params.flat))),
                      enc.OptimizerState.for_params(params),
                      sampler=substream(cfg.seed, "sampler"),
                      augment=substream(cfg.seed, "augment"),
                      videos=substream(cfg.seed, "videos"))


def _require_corpus(t: TrainConfig, corpus) -> None:
    if t.use_single_cam and corpus is None:
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
    groups, pool = multi, None
    embs, _ = enc.forward_batch(state.momentum, multi.features)
    if t.use_single_cam:
        # by default a cap of one epoch's single-camera slots, and at least
        # a batch's labels; a smaller corpus is labelled whole, once
        budget = t.pseudo_label_budget or (
            t.n_p_single * t.n_k_single * t.iters_per_epoch)
        pool = pseudo_label_epoch(corpus, state.momentum, DBSCAN_EPS,
                                  DBSCAN_MIN_PTS, budget, state.videos,
                                  t.n_p_single)
        groups = multi.then(pool.frames)
        embs = np.concatenate([embs, pool.embeddings])
    bank = build_centroids(embs, groups.labels(), groups.cameras)

    lr = enc.effective_lr(LR, WARMUP_EPOCHS, state.epoch)
    sizes = (t.n_p_multi, t.n_k_multi,
             t.n_p_single if t.use_single_cam else 0, t.n_k_single)
    draws = draw_epoch(groups, sizes, t.iters_per_epoch, state.sampler)
    layout = LossLayout(draws.labels, draws.cameras, bank)
    sums = dict.fromkeys(["total", *TERMS], 0.0)
    params, momentum = state.params, state.momentum
    for it in range(t.iters_per_epoch):
        features = compose_batch(draws, it)
        augmented = augment(features, state.augment, SIGMA_AUG, P_DROP)
        # one pass of both encoders: the encoder embeds the augmented
        # views, its momentum copy the originals
        (f, m), cache = enc.forward_batch(state.encoders,
                                          np.array((augmented, features)))
        view = layout.view(it, f, m)
        loss, d_f, parts = total_loss(view)
        grads = enc.backward_batch(params, cache, d_f)
        if not (np.isfinite(loss) and np.isfinite(grads.flat).all()):
            raise NonFiniteTrainingError(
                f"non-finite loss or gradient at epoch {state.epoch}, "
                f"iteration {it}")
        enc.adam_step(state.opt, params, grads, lr, WEIGHT_DECAY)
        enc.ema_update(momentum, params, EMA_MOMENTUM)
        sums["total"] += loss
        for k in parts:
            sums[k] += parts[k]

    n = t.iters_per_epoch
    purity = evalkit.cluster_purity(pool) if pool is not None else None
    state.metrics.append({
        "epoch": state.epoch,
        **{f"loss_{k}": v / n for k, v in sums.items()},
        "pseudo_clusters": pool.frames.n_labels if pool is not None else 0,
        "pseudo_noise": pool.noise_count if pool is not None else 0,
        "purity": purity,
        "lr": lr,
    })
    state.epoch += 1
    return state


def train(
    multi: MultiCamDataset,
    corpus: SingleCamCorpus | None,
    cfg: RunConfig,
    checkpoint_path: str | Path | None = None,
    metrics_path: str | Path | None = None,
) -> TrainState:
    """Run cfg.train.epochs epochs; write metrics lines and checkpoints.
    A config that uses the corpus needs one: InvalidConfigError if None.
    An empty multi-camera set raises InsufficientLabelsError, a corpus of
    another feature width DimensionMismatchError, before any file is
    written."""
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
    frames = corpus.grouped() if t.use_single_cam else None
    width = rows.features.shape[1]
    # a corpus of no frames has no width: epoch 1 finds its budget unreachable
    if frames is not None and frames.samples \
            and frames.features.shape[1] != width:
        raise DimensionMismatchError(
            f"the single-camera corpus has {frames.features.shape[1]}-wide "
            f"features, the multi-camera set {width}-wide")
    state = init_state(cfg, width)
    cfg_echo = cfg.to_dict()
    ckpt = Path(checkpoint_path) if checkpoint_path is not None else None
    epoch_ckpts, partial = (checkpoint_files(ckpt, t) if ckpt is not None
                            else ({}, None))

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
            if state.epoch in epoch_ckpts:
                save(epoch_ckpts[state.epoch])
    except Exception:
        if ckpt is not None:
            save(partial)
        raise
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    if ckpt is not None:
        save(ckpt)
    return state

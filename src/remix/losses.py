"""The four loss terms and the combined objective.

Each loss returns (scalar, dL/df) where f holds the encoder embeddings of
the augmented batch inputs. Momentum embeddings and centroids are treated
as gradient constants; no gradient ever flows through them.

All four terms are one computation (`_contrastive`): each anchor i scores
every positive proxy j by -log softmax of f_i . p_j / tau_i over a pool,
averages that over its positives, and the loss averages over the anchors
that have at least one positive. Per term (anchor label y, camera c):

- L_ins: momentum embeddings; positives share (source, y), self included;
  negatives differ in label, same source unless cross_source_negatives;
  pool {j} + negatives.
- L_aug: momentum embeddings; the one positive is the anchor's own
  original; negatives are every other-label sample; pool {j} + negatives.
- L_cen: centroids of the batch's labels; the positive is y's centroid;
  negatives are the other centroids; pool {j} + negatives.
- L_cc: multi anchors only, camera centroids of the batch's multi labels;
  positives are y's centroids from cameras other than c; negatives are the
  other labels' centroids; pool is every positive and negative.

Labels are keyed (source, label) so multi-camera identities and
single-camera pseudo labels live in disjoint namespaces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import MULTI
from .errors import (
    DimensionMismatchError,
    EmptyLabelError,
    UnresolvedLabelError,
)
from .numcore import normalize

LabelKey = tuple[str, int]


@dataclass
class BatchView:
    f: np.ndarray  # (B, E) encoder embeddings of augmented inputs
    m: np.ndarray  # (B, E) momentum embeddings of the originals
    keys: list[LabelKey]  # (source, label) per sample; multi first
    cameras: np.ndarray  # (B,) camera id, -1 for single-camera samples

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        self.cameras = np.asarray(self.cameras, dtype=np.int64)
        if self.f.shape != self.m.shape or len(self.keys) != self.f.shape[0]:
            raise DimensionMismatchError("f, m, and keys must agree in batch size")
        sources = [src for src, _ in self.keys]
        if sources != sorted(sources, key=lambda s: s != MULTI):
            raise DimensionMismatchError("multi samples must precede single samples")

    @property
    def size(self) -> int:
        return self.f.shape[0]


@dataclass
class CentroidBank:
    label_centroids: dict[LabelKey, np.ndarray]
    camera_centroids: dict[tuple[int, int], np.ndarray]  # (multi label, camera)


def build_centroids(
    embeddings: np.ndarray,
    keys: list[LabelKey],
    cameras: np.ndarray | None = None,
) -> CentroidBank:
    """Normalized per-label means; per-(label, camera) means for multi data."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if len(keys) == 0:
        raise EmptyLabelError("cannot build centroids from an empty batch")
    by_label: dict[LabelKey, list[int]] = {}
    for i, key in enumerate(keys):
        by_label.setdefault(key, []).append(i)
    label_centroids = {
        key: normalize(embeddings[idx].mean(axis=0)) for key, idx in by_label.items()
    }
    camera_centroids: dict[tuple[int, int], np.ndarray] = {}
    if cameras is not None:
        cameras = np.asarray(cameras)
        by_cam: dict[tuple[int, int], list[int]] = {}
        for i, (src, y) in enumerate(keys):
            if src == MULTI:
                by_cam.setdefault((y, int(cameras[i])), []).append(i)
        camera_centroids = {
            k: normalize(embeddings[idx].mean(axis=0)) for k, idx in by_cam.items()
        }
    return CentroidBank(label_centroids, camera_centroids)


def _contrastive(
    f: np.ndarray,
    proxies: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    tau: np.ndarray,
    shared_pool: bool,
) -> tuple[float, np.ndarray]:
    """Masked multi-positive log-softmax of each anchor against `proxies`.

    `pos` and `neg` are (B, P) masks and `tau` is the (B,) temperature. Row
    i scores positive j against {j} plus the negatives, or against every
    positive and negative when `shared_pool` is set; its loss is the mean
    of -log softmax over its positives. The result is averaged over the
    rows with at least one positive, and is exactly zero when there are
    none or when no pool holds more than its own positive.
    """
    z = (f @ proxies.T) / tau[:, None]
    rest = pos | neg if shared_pool else neg
    z_rest = np.where(rest, z, -np.inf)
    top = z_rest.max(axis=1, initial=-np.inf)
    shift = np.where(np.isfinite(top), top, 0.0)  # no -inf - -inf on empty rows
    e = np.exp(z_rest - shift[:, None])
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        lse_rest = (shift + np.log(s))[:, None]  # -inf where rest is empty
    lse = np.where(rest, lse_rest, np.logaddexp(z, lse_rest))  # per (i, j) pool
    n_pos = pos.sum(axis=1)
    w = pos / np.maximum(n_pos, 1)[:, None]
    n_anchors = max(int(np.count_nonzero(n_pos)), 1)
    loss = float(np.sum(w * (lse - z))) / n_anchors
    # dL/dz: -w on the positives, plus each pool's softmax weighted by w
    c = np.sum(w * np.exp(lse_rest - lse), axis=1, keepdims=True)
    d_z = (e / np.where(s > 0.0, s, 1.0)[:, None] * c
           + np.where(rest, 0.0, w * np.exp(z - lse)) - w)
    return loss, (d_z / tau[:, None]) @ proxies / n_anchors


def _label_codes(view: BatchView) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample label code, numbered in first-appearance order, and the
    multi-source flag."""
    index = {k: c for c, k in enumerate(dict.fromkeys(view.keys))}
    codes = np.array([index[k] for k in view.keys], dtype=np.int64)
    multi = np.array([src == MULTI for src, _ in view.keys], dtype=bool)
    return codes, multi


def instance_loss(
    view: BatchView,
    tau_m: float,
    tau_s: float,
    cross_source_negatives: bool = False,
) -> tuple[float, np.ndarray]:
    """Anchor-to-positive-instances loss, averaged over positives and anchors.

    Positives of anchor i are all j with the same (source, label), the
    self-pair included. Negatives default to same-source batch members
    with a different label.
    """
    codes, multi = _label_codes(view)
    pos = codes[:, None] == codes[None, :]
    neg = ~pos
    if not cross_source_negatives:
        neg &= multi[:, None] == multi[None, :]
    tau = np.where(multi, tau_m, tau_s)
    return _contrastive(view.f, view.m, pos, neg, tau, shared_pool=False)


def augmentation_loss(view: BatchView, tau_aug: float) -> tuple[float, np.ndarray]:
    """Pulls each augmented embedding to its own momentum original; negatives
    are all different-label batch members from either source."""
    codes, _ = _label_codes(view)
    pos = np.eye(view.size, dtype=bool)
    neg = codes[:, None] != codes[None, :]
    tau = np.full(view.size, tau_aug)
    return _contrastive(view.f, view.m, pos, neg, tau, shared_pool=False)


def centroids_loss(
    view: BatchView, bank: CentroidBank, tau_m: float, tau_s: float
) -> tuple[float, np.ndarray]:
    """Pulls each anchor to its label centroid against the centroids of all
    distinct labels present in the batch."""
    batch_labels = list(dict.fromkeys(view.keys))  # first-appearance order
    missing = [k for k in batch_labels if k not in bank.label_centroids]
    if missing:
        raise UnresolvedLabelError(f"no centroid for {missing[0]}")
    cents = np.stack([bank.label_centroids[k] for k in batch_labels])
    codes, multi = _label_codes(view)
    pos = codes[:, None] == np.arange(len(batch_labels))[None, :]
    tau = np.where(multi, tau_m, tau_s)
    return _contrastive(view.f, cents, pos, ~pos, tau, shared_pool=False)


def camera_centroids_loss(
    view: BatchView, bank: CentroidBank, tau_cc: float
) -> tuple[float, np.ndarray]:
    """Pulls multi-camera anchors toward same-label centroids from *other*
    cameras; negatives are camera centroids of the other multi labels in the
    batch. Each positive is scored against all of them, the other positives
    included. Anchors with no cross-camera proxy contribute zero."""
    _, multi = _label_codes(view)
    labels = np.array([y for _, y in view.keys], dtype=np.int64)
    batch_multi = set(labels[multi].tolist())
    proxy_keys = [k for k in bank.camera_centroids if k[0] in batch_multi]
    proxies = np.array([bank.camera_centroids[k] for k in proxy_keys],
                       dtype=np.float64).reshape(-1, view.f.shape[1])
    proxy_labels = np.array([y for y, _ in proxy_keys], dtype=np.int64)
    proxy_cams = np.array([c for _, c in proxy_keys], dtype=np.int64)
    same = multi[:, None] & (labels[:, None] == proxy_labels[None, :])
    pos = same & (view.cameras[:, None] != proxy_cams[None, :])
    neg = multi[:, None] & ~same
    tau = np.full(view.size, tau_cc)
    return _contrastive(view.f, proxies, pos, neg, tau, shared_pool=True)


def total_loss(
    view: BatchView,
    bank: CentroidBank,
    tau_ins_m: float,
    tau_ins_s: float,
    tau_aug: float,
    tau_cen_m: float,
    tau_cen_s: float,
    tau_cc: float,
    gamma: float,
    cross_source_negatives: bool = False,
) -> tuple[float, np.ndarray, dict[str, float]]:
    """L = L_ins + L_aug + L_cen + gamma * L_cc, with the matching gradient."""
    l_ins, g_ins = instance_loss(view, tau_ins_m, tau_ins_s, cross_source_negatives)
    l_aug, g_aug = augmentation_loss(view, tau_aug)
    l_cen, g_cen = centroids_loss(view, bank, tau_cen_m, tau_cen_s)
    if gamma != 0.0:
        l_cc, g_cc = camera_centroids_loss(view, bank, tau_cc)
    else:
        l_cc, g_cc = 0.0, np.zeros_like(view.f)
    loss = l_ins + l_aug + l_cen + gamma * l_cc
    grads = g_ins + g_aug + g_cen + gamma * g_cc
    parts = {"ins": l_ins, "aug": l_aug, "cen": l_cen, "cc": l_cc}
    return loss, grads, parts

"""The four loss terms and the combined objective.

Each loss returns (scalar, dL/df) where f holds the encoder embeddings of
the augmented batch inputs. Momentum embeddings and centroids are treated
as gradient constants; no gradient ever flows through them.

All four terms are one computation (`_contrastive`): each anchor i scores
every positive proxy j by -log softmax of f_i . p_j / tau_i over a pool,
averages that over its positives, and the loss averages over the anchors
that have at least one positive. Per term (anchor label y, camera c):

- L_ins: momentum embeddings; positives share y, self included;
  negatives differ in label, same source unless cross_source_negatives;
  pool {j} + negatives.
- L_aug: momentum embeddings; the one positive is the anchor's own
  original; negatives are every other-label sample; pool {j} + negatives.
- L_cen: centroids of the batch's labels; the positive is y's centroid;
  negatives are the other centroids; pool {j} + negatives.
- L_cc: multi anchors only, camera centroids of the batch's multi labels;
  positives are y's centroids from cameras other than c; negatives are the
  other labels' centroids; pool is every positive and negative.

A label is an integer row of the centroid bank. Multi-camera identities
and single-camera pseudo labels take disjoint ranges of rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyLabelError,
    UnresolvedLabelError,
)
from .numcore import normalize_rows


@dataclass
class BatchView:
    f: np.ndarray  # (B, E) encoder embeddings of augmented inputs
    m: np.ndarray  # (B, E) momentum embeddings of the originals
    labels: np.ndarray  # (B,) bank row of each sample's label
    multi: np.ndarray  # (B,) True for multi-camera samples, which come first
    cameras: np.ndarray  # (B,) camera id, -1 for single-camera samples
    # derived once per batch: the distinct labels in ascending order, and
    # each sample's position among them
    batch_labels: np.ndarray = field(init=False)
    codes: np.ndarray = field(init=False)

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.multi = np.asarray(self.multi, dtype=bool)
        self.cameras = np.asarray(self.cameras, dtype=np.int64)
        b = self.f.shape[0]
        if self.f.shape != self.m.shape or any(
                a.shape != (b,) for a in (self.labels, self.multi, self.cameras)):
            raise DimensionMismatchError("f, m, labels, multi and cameras "
                                         "must agree in batch size")
        if np.any(self.multi[1:] > self.multi[:-1]):
            raise DimensionMismatchError("multi samples must precede single samples")
        seen = np.zeros((2, int(self.labels.max(initial=-1)) + 1), dtype=bool)
        seen[self.multi.astype(np.int64), self.labels] = True  # by source
        if np.any(seen.all(axis=0)):
            raise DimensionMismatchError("a label cannot be both multi-camera "
                                         "and single-camera")
        present = seen.any(axis=0)
        self.batch_labels = np.flatnonzero(present)
        self.codes = (np.cumsum(present) - 1)[self.labels]

    @property
    def size(self) -> int:
        return self.f.shape[0]


@dataclass
class CentroidBank:
    label_centroids: np.ndarray  # (L, E) unit centroid of each label
    camera_centroids: np.ndarray  # (I, C, E) per (multi label, camera)
    camera_present: np.ndarray  # (I, C) which (label, camera) pairs have one


def build_centroids(
    embeddings: np.ndarray,
    labels: np.ndarray,
    cameras: np.ndarray | None = None,
) -> CentroidBank:
    """Normalized per-label means over dense labels 0..L-1, and normalized
    per-(label, camera) means over the rows with a camera (>= 0)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise EmptyLabelError("cannot build centroids from an empty batch")
    counts = np.bincount(labels)
    if not counts.all():
        raise EmptyLabelError(f"label {int(np.argmin(counts))} has no members")
    sums = np.zeros((len(counts), embeddings.shape[1]))
    np.add.at(sums, labels, embeddings)
    label_centroids = normalize_rows(sums / counts[:, None])
    cameras = np.full(len(labels), -1) if cameras is None else np.asarray(cameras)
    has_cam = cameras >= 0
    y, c = labels[has_cam], cameras[has_cam]
    shape = (int(y.max(initial=-1)) + 1, int(c.max(initial=-1)) + 1)
    cam_sums = np.zeros(shape + (embeddings.shape[1],))
    np.add.at(cam_sums, (y, c), embeddings[has_cam])
    cam_counts = np.bincount(y * shape[1] + c, minlength=np.prod(shape))
    present = cam_counts.reshape(shape) > 0
    cam_sums[present] = normalize_rows(cam_sums[present]
                                       / cam_counts[cam_counts > 0][:, None])
    return CentroidBank(label_centroids, cam_sums, present)


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
    top = np.max(z, axis=1, where=rest, initial=-np.inf)
    shift = np.where(np.isfinite(top), top, 0.0)  # no -inf - -inf on empty rows
    # z - shift <= 0 on rest; the clip keeps exp finite (and off numpy's
    # slow path for -inf) on the entries the mask then zeroes
    e = np.exp(np.minimum(z - shift[:, None], 0.0)) * rest
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        lse_rest = shift + np.log(s)  # -inf where rest is empty
    # only the positives carry weight: work there (at flat indices k, rows
    # i), and scatter into zero matrices so every reduction adds the same
    # terms in the same order
    k = np.flatnonzero(pos)
    i = k // pos.shape[1]
    n_pos = np.bincount(i, minlength=len(pos))
    w = 1.0 / n_pos[i]
    n_anchors = max(int(np.count_nonzero(n_pos)), 1)
    z_p, lr, in_rest = z.ravel()[k], lse_rest[i], rest.ravel()[k]
    lse = np.where(in_rest, lr, np.logaddexp(z_p, lr))  # per (i, j) pool
    scatter = np.zeros_like(z)
    np.put(scatter, k, w * (lse - z_p))
    loss = float(np.sum(scatter)) / n_anchors
    # dL/dz: -w on the positives, plus each pool's softmax weighted by w
    np.put(scatter, k, w * np.exp(lr - lse))
    c = np.sum(scatter, axis=1, keepdims=True)
    d_z = e / np.where(s > 0.0, s, 1.0)[:, None] * c
    d = d_z.ravel()  # a view
    d[k] = d[k] + np.where(in_rest, 0.0, w * np.exp(z_p - lse)) - w
    return loss, (d_z / tau[:, None]) @ proxies / n_anchors


def instance_loss(
    view: BatchView,
    tau_m: float,
    tau_s: float,
    cross_source_negatives: bool = False,
) -> tuple[float, np.ndarray]:
    """Anchor-to-positive-instances loss, averaged over positives and anchors.

    Positives of anchor i are all j with the same label, the self-pair
    included. Negatives default to same-source batch members with a
    different label.
    """
    codes, multi = view.codes, view.multi
    pos = codes[:, None] == codes[None, :]
    neg = ~pos
    if not cross_source_negatives:
        neg &= multi[:, None] == multi[None, :]
    tau = np.where(multi, tau_m, tau_s)
    return _contrastive(view.f, view.m, pos, neg, tau, shared_pool=False)


def augmentation_loss(view: BatchView, tau_aug: float) -> tuple[float, np.ndarray]:
    """Pulls each augmented embedding to its own momentum original; negatives
    are all different-label batch members from either source."""
    pos = np.eye(view.size, dtype=bool)
    neg = view.codes[:, None] != view.codes[None, :]
    tau = np.full(view.size, tau_aug)
    return _contrastive(view.f, view.m, pos, neg, tau, shared_pool=False)


def centroids_loss(
    view: BatchView, bank: CentroidBank, tau_m: float, tau_s: float
) -> tuple[float, np.ndarray]:
    """Pulls each anchor to its label centroid against the centroids of all
    distinct labels present in the batch."""
    labels = view.batch_labels
    if len(labels) and labels[-1] >= len(bank.label_centroids):
        raise UnresolvedLabelError(f"no centroid for label {labels[-1]}")
    pos = view.codes[:, None] == np.arange(len(labels))[None, :]
    tau = np.where(view.multi, tau_m, tau_s)
    return _contrastive(view.f, bank.label_centroids[labels], pos, ~pos, tau,
                        shared_pool=False)


def camera_centroids_loss(
    view: BatchView, bank: CentroidBank, tau_cc: float
) -> tuple[float, np.ndarray]:
    """Pulls multi-camera anchors toward same-label centroids from *other*
    cameras; negatives are camera centroids of the other multi labels in the
    batch. Each positive is scored against all of them, the other positives
    included. Anchors with no cross-camera proxy contribute zero."""
    # single-camera labels have no camera centroids, so select no proxies
    ids = view.batch_labels[view.batch_labels < len(bank.camera_present)]
    which, proxy_cams = np.nonzero(bank.camera_present[ids])
    proxy_labels = ids[which]
    proxies = bank.camera_centroids[proxy_labels, proxy_cams]
    multi = view.multi[:, None]
    same = multi & (view.labels[:, None] == proxy_labels[None, :])
    pos = same & (view.cameras[:, None] != proxy_cams[None, :])
    neg = multi & ~same
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

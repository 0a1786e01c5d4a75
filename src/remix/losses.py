"""The four loss terms and the combined objective.

Each loss returns (scalar, dL/df) where f holds the encoder embeddings of
the augmented batch inputs. Momentum embeddings and centroids are treated
as gradient constants; no gradient ever flows through them.

All four terms are one computation (`_contrastive`): each anchor i scores
every positive proxy j by -log softmax of f_i . p_j / tau_i over a pool,
averages that over its positives, and the loss averages over the anchors
that have at least one positive. Per term (anchor label y, camera c):

- L_ins: momentum embeddings; positives share y, self included;
  negatives differ in label and come from the anchor's own source; pool
  {j} + negatives.
- L_aug: momentum embeddings; the one positive is the anchor's own
  original; negatives are every other-label sample; pool {j} + negatives.
- L_cen: centroids of the batch's labels; the positive is y's centroid;
  negatives are the other centroids; pool {j} + negatives.
- L_cc: multi anchors only, camera centroids of the batch's multi labels;
  positives are y's centroids from cameras other than c; negatives are the
  other labels' centroids; pool is every positive and negative.

A label is an integer row of the centroid bank. Multi-camera identities
and single-camera pseudo labels take disjoint ranges of rows.

The temperatures of the terms (multi-camera, single-camera anchors where a
term has two) and the weight GAMMA of L_cc are the module constants below.
TERMS is the objective, L = L_ins + L_aug + L_cen + GAMMA * L_cc, as
name -> (weight, the term's call at its temperatures), summed in order.
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

TAU_INS = (0.1, 0.2)
TAU_AUG = 0.1
TAU_CEN = (0.5, 0.6)
TAU_CC = 0.07
GAMMA = 0.5


@dataclass
class BatchView:
    """One batch as the losses see it. A row is multi-camera iff its camera
    is >= 0 (a single-camera row has -1), and those rows come first."""
    f: np.ndarray  # (B, E) encoder embeddings of augmented inputs
    m: np.ndarray  # (B, E) momentum embeddings of the originals
    labels: np.ndarray  # (B,) bank row of each sample's label
    cameras: np.ndarray  # (B,) camera id, -1 for single-camera samples
    # derived once per batch: the multi-camera rows, the labels in order
    multi: np.ndarray = field(init=False)
    batch_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.cameras = np.asarray(self.cameras, dtype=np.int64)
        self.multi = self.cameras >= 0
        b = self.f.shape[0]
        if self.f.shape != self.m.shape or any(
                a.shape != (b,) for a in (self.labels, self.cameras)):
            raise DimensionMismatchError("f, m, labels and cameras must "
                                         "agree in batch size")
        if self.labels.min(initial=0) < 0:
            raise UnresolvedLabelError(f"label {self.labels.min()} is negative")
        if self.cameras.min(initial=-1) < -1:
            raise DimensionMismatchError(f"camera {self.cameras.min()} is "
                                         "neither -1 nor >= 0")
        if np.any(self.multi[1:] > self.multi[:-1]):
            raise DimensionMismatchError("multi samples must precede single samples")
        seen = np.zeros((2, int(self.labels.max(initial=-1)) + 1), dtype=bool)
        seen[self.multi.astype(np.int64), self.labels] = True  # by source
        if np.any(seen.all(axis=0)):
            raise DimensionMismatchError("a label cannot be both multi-camera "
                                         "and single-camera")
        self.batch_labels = np.flatnonzero(seen.any(axis=0))

    @property
    def size(self) -> int:
        return self.f.shape[0]


@dataclass
class CentroidBank:
    label_centroids: np.ndarray  # (L, E) unit centroid of each label
    camera_centroids: np.ndarray  # (I, C, E) per (multi label, camera)
    camera_present: np.ndarray  # (I, C) which (label, camera) pairs have one


def _sums(keys: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Sums of the rows by flat key into shape + (E,), added in row order."""
    d = rows.shape[1]
    flat = (keys[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, rows.ravel(), np.prod(shape, dtype=int) * d)
    # bincount gives int64 zeros when there is no key
    return sums.astype(np.float64, copy=False).reshape(shape + (d,))


def build_centroids(
    embeddings: np.ndarray,
    labels: np.ndarray,
    cameras: np.ndarray,
) -> CentroidBank:
    """Normalized per-label means over dense labels 0..L-1, and normalized
    per-(label, camera) means over the rows with a camera (>= 0).

    Embeddings are 2-D with one label and one camera per row, else
    DimensionMismatchError; a negative label raises UnresolvedLabelError.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    cameras = np.asarray(cameras)
    if embeddings.ndim != 2 or not (
            labels.shape == cameras.shape == embeddings.shape[:1]):
        raise DimensionMismatchError(
            f"embeddings {embeddings.shape} need one label and one camera "
            f"per row, got labels {labels.shape}, cameras {cameras.shape}")
    if len(labels) == 0:
        raise EmptyLabelError("cannot build centroids from an empty batch")
    if labels.min() < 0:
        raise UnresolvedLabelError(f"label {labels.min()} is negative")
    counts = np.bincount(labels)
    if not counts.all():
        raise EmptyLabelError(f"label {int(np.argmin(counts))} has no members")
    sums = _sums(labels, embeddings, counts.shape)
    label_centroids = normalize_rows(sums / counts[:, None])
    has_cam = cameras >= 0
    y, c = labels[has_cam], cameras[has_cam]
    shape = (int(y.max(initial=-1)) + 1, int(c.max(initial=-1)) + 1)
    cam_sums = _sums(y * shape[1] + c, embeddings[has_cam], shape)
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
) -> tuple[float, np.ndarray]:
    """Masked multi-positive log-softmax of each anchor against `proxies`.

    `pos` and `neg` are (B, P) masks and `tau` is the (B,) temperature. Row
    i scores positive j against {j} plus the negatives, which is the
    negatives alone when j is one of them; its loss is the mean of -log
    softmax over its positives. The result is averaged over the rows with
    at least one positive, and is exactly zero when there are none or when
    no pool holds more than its own positive.
    """
    z = f @ proxies.T
    z /= tau[:, None]
    top = np.where(neg, z, -np.inf).max(axis=1, initial=-np.inf)
    shift = np.where(np.isfinite(top), top, 0.0)  # no -inf - -inf on empty rows
    # z - shift <= 0 on the negatives; the clip keeps exp finite (and off
    # numpy's slow path for -inf) on the entries the mask then zeroes
    e = z - shift[:, None]  # one buffer: exp, then dL/dz
    np.exp(np.minimum(e, 0.0, out=e), out=e)
    e *= neg
    s = e.sum(axis=1)
    with np.errstate(divide="ignore"):
        lse_neg = shift + np.log(s)  # -inf where a row has no negative
    # only the positives carry weight: work on their own vectors (at flat
    # indices k, rows i), and sum those
    k = np.flatnonzero(pos)
    i = k // pos.shape[1]
    n_pos = np.bincount(i, minlength=len(pos))
    w = 1.0 / n_pos[i]
    n_anchors = max(int(np.count_nonzero(n_pos)), 1)
    z_p, lr, in_neg = z.ravel()[k], lse_neg[i], neg.ravel()[k]
    lse = np.where(in_neg, lr, np.logaddexp(z_p, lr))  # per (i, j) pool
    loss = float(np.sum(w * (lse - z_p))) / n_anchors
    # dL/dz: each pool's softmax weighted by w, less w at its positive. A
    # positive outside the negatives gets -w times the negatives' share
    # of its pool, not w * (softmax - 1), which cancels when the positive
    # dominates; inside them, the share is 1
    share = w * np.exp(lr - lse)
    c = np.bincount(i, share, minlength=len(pos))
    e *= (c / np.where(s > 0.0, s, 1.0))[:, None]
    e.ravel()[k] -= share  # ravel is a view of e
    e /= (tau * n_anchors)[:, None]
    return loss, e @ proxies


def instance_loss(
    view: BatchView,
    tau_m: float,
    tau_s: float,
) -> tuple[float, np.ndarray]:
    """Anchor-to-positive-instances loss, averaged over positives and anchors.

    Positives of anchor i are all j with the same label, the self-pair
    included. Negatives are same-source batch members with a different
    label.
    """
    labels, multi = view.labels, view.multi
    pos = labels[:, None] == labels[None, :]
    neg = ~pos & (multi[:, None] == multi[None, :])
    tau = np.where(multi, tau_m, tau_s)
    return _contrastive(view.f, view.m, pos, neg, tau)


def augmentation_loss(view: BatchView, tau_aug: float) -> tuple[float, np.ndarray]:
    """Pulls each augmented embedding to its own momentum original; negatives
    are all different-label batch members from either source."""
    pos = np.eye(view.size, dtype=bool)
    neg = view.labels[:, None] != view.labels[None, :]
    tau = np.full(view.size, tau_aug)
    return _contrastive(view.f, view.m, pos, neg, tau)


def centroids_loss(
    view: BatchView, bank: CentroidBank, tau_m: float, tau_s: float
) -> tuple[float, np.ndarray]:
    """Pulls each anchor to its label centroid against the centroids of all
    distinct labels present in the batch."""
    labels = view.batch_labels
    if len(labels) and labels[-1] >= len(bank.label_centroids):
        raise UnresolvedLabelError(f"no centroid for label {labels[-1]}")
    pos = view.labels[:, None] == labels[None, :]
    tau = np.where(view.multi, tau_m, tau_s)
    return _contrastive(view.f, bank.label_centroids[labels], pos, ~pos, tau)


def camera_centroids_loss(
    view: BatchView, bank: CentroidBank, tau_cc: float
) -> tuple[float, np.ndarray]:
    """Pulls multi-camera anchors toward same-label centroids from *other*
    cameras; negatives are camera centroids of the other multi labels in the
    batch. Each positive is scored against all of them, the other positives
    included: those are negatives of the kernel too. Anchors with no
    cross-camera proxy contribute zero."""
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
    return _contrastive(view.f, proxies, pos, pos | neg, tau)


# The objective, summed in order: name -> (weight, the term at its taus).
# Each call looks its loss up in the module globals, so patches take effect.
TERMS = {
    "ins": (1.0, lambda view, bank: instance_loss(view, *TAU_INS)),
    "aug": (1.0, lambda view, bank: augmentation_loss(view, TAU_AUG)),
    "cen": (1.0, lambda view, bank: centroids_loss(view, bank, *TAU_CEN)),
    "cc": (GAMMA, lambda view, bank: camera_centroids_loss(view, bank, TAU_CC)),
}


def total_loss(
    view: BatchView, bank: CentroidBank
) -> tuple[float, np.ndarray, dict[str, float]]:
    """The weighted sum of TERMS, its gradient and each term's loss by name."""
    loss, grads, parts = 0.0, 0.0, {}
    for name, (weight, term) in TERMS.items():
        parts[name], g = term(view, bank)
        loss = loss + weight * parts[name]
        grads = grads + weight * g
    return loss, grads, parts

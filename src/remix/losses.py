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

What a term reads besides the embeddings and the bank, its pool mask, its
positives (`Positives`) and its proxies' rows of the bank, depends on the
batch's labels and cameras alone. The sampler fixes those for a whole
epoch at its start, so `LossLayout` derives them, and runs the batch
checks, once per epoch for every batch; an iteration then only gathers
the proxies and runs the kernel. `BatchView(f, m, labels, cameras)` is a
batch on its own, the one batch of a one-batch epoch.

The temperatures of the terms (multi-camera, single-camera anchors where a
term has two) and the weight GAMMA of L_cc are the module constants below.
TERMS is the objective, L = L_ins + L_aug + L_cen + GAMMA * L_cc, as
name -> (weight, the term's call at its temperatures), summed in order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class Positives(NamedTuple):
    """The positives of a (B, P) mask as the kernel reads them: their flat
    indices k into the mask, in row-major order, their rows i, the weight
    w = 1 / (positives of the row) of each, and how many rows have one (at
    least 1, the loss's divisor)."""
    k: np.ndarray
    i: np.ndarray
    w: np.ndarray
    n_anchors: int


def _epoch_positives(pos: np.ndarray, widths) -> list[Positives]:
    """The Positives of each batch t of the (n, B, W) masks `pos`, whose
    first widths[t] columns are its (B, widths[t]) mask and the rest
    False: one flatnonzero over all of them, split at the batches."""
    n, b, _ = pos.shape
    t, i, q = np.unravel_index(np.flatnonzero(pos), pos.shape)
    k = i * np.asarray(widths)[t] + q
    n_pos = np.bincount(t * b + i, minlength=n * b)
    w = 1.0 / n_pos[t * b + i]
    n_anchors = np.count_nonzero(n_pos.reshape(n, b), axis=1)
    bounds = np.searchsorted(t, np.arange(n + 1)).tolist()
    return [Positives(k[lo:hi], i[lo:hi], w[lo:hi], max(n_t, 1))
            for lo, hi, n_t in zip(bounds, bounds[1:], n_anchors.tolist())]


def _positives(mask: np.ndarray) -> Positives:
    """The Positives of one (B, P) mask."""
    return _epoch_positives(mask[None], mask.shape[1:])[0]


class LossLayout:
    """What the four terms read of an epoch's batches that the labels and
    cameras alone decide, derived once from their (iters, B) arrays: the
    checks, each term's negatives (pool) mask and Positives, and the rows
    of the centroid bank its proxies take.

    A row is multi-camera iff its camera is >= 0 (a single-camera row has
    -1). In every batch those rows come first and no label is in both
    sources, and every batch groups its rows by label and source as the
    first does, as the PK sampler lays them out, so L_ins and L_aug share
    one pair of masks. Else DimensionMismatchError, as for a camera below
    -1; a negative label raises UnresolvedLabelError.
    """

    def __init__(self, labels, cameras):
        labels = np.asarray(labels, dtype=np.int64)
        cameras = np.asarray(cameras, dtype=np.int64)
        if labels.ndim != 2 or not len(labels) or cameras.shape != labels.shape:
            raise DimensionMismatchError(
                f"labels {labels.shape} and cameras {cameras.shape} must be "
                "(iters, B) alike, with at least one batch")
        if labels.min(initial=0) < 0:
            raise UnresolvedLabelError(f"label {labels.min()} is negative")
        if cameras.min(initial=-1) < -1:
            raise DimensionMismatchError(f"camera {cameras.min()} is "
                                         "neither -1 nor >= 0")
        multi = cameras >= 0
        if np.any(multi[:, 1:] > multi[:, :-1]):
            raise DimensionMismatchError("multi samples must precede single samples")
        # the first batch's distinct labels: the first row of each, and
        # each row's label among them
        _, first, code = np.unique(labels[0], return_index=True,
                                   return_inverse=True)
        if np.any(multi[0] != multi[0, first[code]]):
            raise DimensionMismatchError("a label cannot be both multi-camera "
                                         "and single-camera")
        # each batch's labels at those rows, ascending
        self.batch_labels = np.sort(labels[:, first], axis=1)
        if (np.any(multi != multi[0]) or np.any(labels != labels[:, first[code]])
                or np.any(self.batch_labels[:, 1:] == self.batch_labels[:, :-1])):
            raise DimensionMismatchError("every batch must group its rows by "
                                         "label and source as the first does")
        self.labels, self.cameras, self.multi = labels, cameras, multi[0]
        # (Positives, negatives) of a term, for every batch or per batch
        same = code[:, None] == code[None, :]
        same_source = self.multi[:, None] == self.multi[None, :]
        self.ins = _positives(same), ~same & same_source
        self.aug = _positives(np.eye(len(code), dtype=bool)), ~same
        pos = labels[:, :, None] == self.batch_labels[:, None, :]
        self.cen = list(zip(_epoch_positives(pos, [len(first)] * len(pos)),
                            ~pos))
        self._cc = None  # (the bank's camera_present, its camera_pairs)

    def camera_pairs(self, present: np.ndarray
                     ) -> list[tuple[np.ndarray, np.ndarray, Positives]]:
        """Per batch, L_cc's proxies against the (I, C) table `present` of
        a bank's camera centroids: their flat rows in the (I * C, E)
        centroids, the present pairs of the batch's labels by label, then
        camera; the pool mask, every pair but its own for a multi row,
        none for a single one; and the positives, a multi row's label's
        pairs but its own. Built for all batches on the first call with a
        table, and kept."""
        if self._cc is not None and self._cc[0] is present:
            return self._cc[1]
        n_ids, n_cams = present.shape
        iters, b = self.labels.shape
        ids = self.batch_labels
        known = ids < n_ids
        has = np.zeros(ids.shape + (n_cams,), dtype=bool)  # (iters, P, C)
        has[known] = present[ids[known]]
        # batch t's pairs in the first widths[t] columns of (iters, Q)
        # labels and cameras, the rest label -1, which no row has
        t, p, cam = np.nonzero(has)
        widths = np.count_nonzero(has.reshape(iters, -1), axis=1)
        col = np.arange(len(t)) - (np.cumsum(widths) - widths)[t]
        pair = np.full((2, iters, widths.max(initial=0)), -1)
        pair[:, t, col] = ids[t, p], cam
        # the multi rows come first
        n_m = int(np.count_nonzero(self.multi))
        same = self.labels[:, :n_m, None] == pair[0][:, None, :]
        own = same & (self.cameras[:, :n_m, None] == pair[1][:, None, :])
        pos = np.zeros((iters, b, pair.shape[2]), dtype=bool)
        pos[:, :n_m] = same & ~own
        pool = np.zeros_like(pos)
        pool[:, :n_m] = ~own
        rows = pair[0] * n_cams + pair[1]
        self._cc = present, [
            (rows[it, :q], np.ascontiguousarray(pool[it, :, :q]), positives)
            for it, (q, positives) in enumerate(
                zip(widths.tolist(), _epoch_positives(pos, widths)))]
        return self._cc[1]

    def view(self, it: int, f: np.ndarray, m: np.ndarray) -> "BatchView":
        """Batch `it` with its embeddings, no check repeated."""
        view = BatchView.__new__(BatchView)
        view._bind(self, it, f, m)
        return view


class BatchView:
    """One batch as the losses see it: f, the (B, E) encoder embeddings of
    its augmented inputs, m, the momentum embeddings of its originals, and
    batch `it` of an epoch's LossLayout. labels (a bank row each), cameras,
    multi and batch_labels (the distinct labels, ascending) are the
    layout's."""

    def __init__(self, f, m, labels, cameras):
        """A batch on its own: the one batch of a one-batch epoch."""
        self._bind(LossLayout(np.asarray(labels)[None],
                              np.asarray(cameras)[None]), 0, f, m)

    def _bind(self, layout: LossLayout, it: int, f, m) -> None:
        self.f = np.asarray(f, dtype=np.float64)
        self.m = np.asarray(m, dtype=np.float64)
        if self.f.shape != self.m.shape \
                or self.f.shape[:1] != layout.labels.shape[1:]:
            raise DimensionMismatchError("f, m, labels and cameras must "
                                         "agree in batch size")
        self.layout, self.it = layout, it
        self.labels, self.cameras = layout.labels[it], layout.cameras[it]
        self.multi, self.batch_labels = layout.multi, layout.batch_labels[it]

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
    pos: Positives,
    neg: np.ndarray,
    tau: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Masked multi-positive log-softmax of each anchor against `proxies`.

    `pos` is the Positives of a (B, P) mask, `neg` a (B, P) mask and `tau`
    the (B,) temperature. Row
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
    k, i, w, n_anchors = pos
    z_p, lr, in_neg = z.ravel()[k], lse_neg[i], neg.ravel()[k]
    lse = np.where(in_neg, lr, np.logaddexp(z_p, lr))  # per (i, j) pool
    loss = float(np.sum(w * (lse - z_p))) / n_anchors
    # dL/dz: each pool's softmax weighted by w, less w at its positive. A
    # positive outside the negatives gets -w times the negatives' share
    # of its pool, not w * (softmax - 1), which cancels when the positive
    # dominates; inside them, the share is 1
    share = w * np.exp(lr - lse)
    c = np.bincount(i, share, minlength=len(f))
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
    pos, neg = view.layout.ins
    tau = np.where(view.multi, tau_m, tau_s)
    return _contrastive(view.f, view.m, pos, neg, tau)


def augmentation_loss(view: BatchView, tau_aug: float) -> tuple[float, np.ndarray]:
    """Pulls each augmented embedding to its own momentum original; negatives
    are all different-label batch members from either source."""
    pos, neg = view.layout.aug
    return _contrastive(view.f, view.m, pos, neg, np.full(view.size, tau_aug))


def centroids_loss(
    view: BatchView, bank: CentroidBank, tau_m: float, tau_s: float
) -> tuple[float, np.ndarray]:
    """Pulls each anchor to its label centroid against the centroids of all
    distinct labels present in the batch."""
    labels = view.batch_labels
    if len(labels) and labels[-1] >= len(bank.label_centroids):
        raise UnresolvedLabelError(f"no centroid for label {labels[-1]}")
    pos, neg = view.layout.cen[view.it]
    tau = np.where(view.multi, tau_m, tau_s)
    return _contrastive(view.f, bank.label_centroids[labels], pos, neg, tau)


def camera_centroids_loss(
    view: BatchView, bank: CentroidBank, tau_cc: float
) -> tuple[float, np.ndarray]:
    """Pulls multi-camera anchors toward same-label centroids from *other*
    cameras; negatives are camera centroids of the other multi labels in the
    batch. Each positive is scored against all of them, the other positives
    included: those are negatives of the kernel too. Anchors with no
    cross-camera proxy contribute zero."""
    rows, pool, pos = view.layout.camera_pairs(bank.camera_present)[view.it]
    cents = bank.camera_centroids
    proxies = cents.reshape(-1, cents.shape[-1])[rows]
    return _contrastive(view.f, proxies, pos, pool, np.full(view.size, tau_cc))


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

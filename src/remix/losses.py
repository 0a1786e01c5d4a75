"""The four loss terms and the combined objective.

Each anchor i scores every positive proxy j by -log softmax of
f_i . p_j / tau_i over a pool, averages that over its positives, and a
term's loss averages over the anchors that have at least one positive. f
holds the encoder embeddings of the augmented batch inputs; momentum
embeddings and centroids are gradient constants, no gradient ever flows
through them. Per term (anchor label y, camera c):

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

The objective is one pass of that computation (`_contrastive`) over one
(B, W) matrix of logits: each term is a block of columns, one per proxy,
and the four sit side by side, L_ins | L_aug | L_cen | L_cc, in TERMS
order. A term's function returns its block's proxies, and `total_loss`
runs the pass over all four at one weight per term. A term alone is the
same pass at weight 1 on that term and 0 on the others.

Everything a pass reads besides the embeddings, the blocks' negatives and
positives side by side (`Columns`), the rows of the bank the L_cen and
L_cc proxies take and each anchor's temperature in each block, depends
on the batch's labels and cameras and the epoch's centroid bank alone.
The sampler fixes the first two for a whole epoch at its start, after the
bank is built, so `LossLayout` runs the checks and derives all of it once
per epoch, for every batch at once, in one (B, W) layout that L_cc pads
to the epoch's most camera pairs; an iteration then only gathers the
proxies and runs the pass. `BatchView(f, m, labels, cameras, bank)` is a
batch on its own, the one batch of a one-batch epoch.

The temperatures of the terms (multi-camera, single-camera anchors where a
term has two), read when a layout is built, and the weight GAMMA of L_cc
are the module constants below. TERMS is the objective, L = L_ins + L_aug
+ L_cen + GAMMA * L_cc, as name -> (weight, the term's call), summed in
order; `total_loss` takes other weights, one per term in TERMS order.
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

_LOWEST = np.finfo(np.float64).min


class Columns(NamedTuple):
    """One batch's blocks side by side as the kernel reads them.

    neg is the (B, W) mask of each block's negatives. The blocks with
    columns start at `starts`, are `widths` wide and are `blocks` (their
    indices in TERMS). A pool is one row of one of them,
    pool i * len(blocks) + block. The positives, in row-major order, are
    their flat indices k into the matrix, their pools, and whether each is
    among its pool's negatives; w is 1 / (positives in the pool) per pool,
    and n_anchors the rows with a positive per block (at least 1, the
    block's divisor)."""
    neg: np.ndarray
    starts: np.ndarray
    widths: np.ndarray
    blocks: tuple
    k: np.ndarray
    pool: np.ndarray
    in_neg: np.ndarray
    w: np.ndarray
    n_anchors: np.ndarray


def _epoch_columns(pos: np.ndarray, neg: np.ndarray, widths) -> list[Columns]:
    """The Columns of each batch t of an epoch from the (iters, B, W) mask
    of its negatives, neg[t], its blocks side by side, `widths` wide, and
    the flat indices `pos` of its positives in that array, ascending; a
    block of width 0 is left out."""
    iters, b, width = neg.shape
    blocks = tuple(j for j, w in enumerate(widths) if w)
    widths = np.asarray(widths)[list(blocks)]
    nb = len(blocks)
    # the positives in row-major order: their int32 batch, index into the
    # batch's matrix and pool
    in_neg = neg.reshape(-1)[pos]
    flat = pos.astype(np.int32)
    t = flat // (b * width)
    k = flat - t * (b * width)
    pool_at = np.arange(b, dtype=np.int32)[:, None] * nb + np.repeat(
        np.arange(nb, dtype=np.int32), widths)  # (B, W): each entry's pool
    pool = pool_at.reshape(-1)[k.astype(np.intp)]
    n_pos = np.bincount(t * (b * nb) + pool,
                        minlength=iters * b * nb).reshape(iters, b * nb)
    # counted along the last axis of a contiguous copy: numpy's reduction
    # over the middle axis runs an inner loop of nb elements
    n_anchors = np.maximum(np.count_nonzero(
        n_pos.reshape(iters, b, nb).transpose(0, 2, 1).copy(), axis=2), 1)
    with np.errstate(divide="ignore"):  # a pool without positives: unread
        w = 1.0 / n_pos
    ends = np.cumsum(n_pos.sum(axis=1)).tolist()
    starts = np.cumsum(widths) - widths
    return [Columns(neg[it], starts, widths, blocks, k[s:e], pool[s:e],
                    in_neg[s:e], w[it], n_anchors[it])
            for it, (s, e) in enumerate(zip([0] + ends, ends))]


class LossLayout:
    """What a pass reads of an epoch's batches besides their embeddings,
    derived once from their (iters, B) labels and cameras and the epoch's
    CentroidBank: the checks; `columns`, each batch's Columns of the four
    blocks in one (B, W) layout for the epoch, L_cc's block holding, for a
    multi row, every pair but its own as the pool and its label's other
    pairs as the positives, and none for a single row or a padding column;
    `cc_rows`, the L_cc proxies' flat rows in the bank's (I * C, E) camera
    centroids, an (iters, Q) array: batch t's present pairs of its labels,
    by label, then camera, padded to the epoch's most, Q, with row 0; and
    `tau`, the (B, blocks) temperature of each row in each block, read from
    the module's constants. A block with no column in the epoch is left
    out of it.

    A row is multi-camera iff its camera is >= 0 (a single-camera row has
    -1). In every batch those rows come first and no label is in both
    sources, and every batch groups its rows by label and source as the
    first does, as the PK sampler lays them out. Else
    DimensionMismatchError, as for a camera below -1; a negative label, or
    one the bank has no centroid for, raises UnresolvedLabelError.
    """

    def __init__(self, labels, cameras, bank: CentroidBank):
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
        ids = self.batch_labels = np.sort(labels[:, first], axis=1)
        if (np.any(multi != multi[0]) or np.any(labels != labels[:, first[code]])
                or np.any(ids[:, 1:] == ids[:, :-1])):
            raise DimensionMismatchError("every batch must group its rows by "
                                         "label and source as the first does")
        if ids.max(initial=-1) >= len(bank.label_centroids):
            raise UnresolvedLabelError(f"no centroid for label {ids.max()}")
        self.labels, self.cameras, self.multi = labels, cameras, multi[0]
        self.bank = bank
        n_ids, n_cams = bank.camera_present.shape
        iters, b = labels.shape
        known = ids < n_ids
        has = np.zeros(ids.shape + (n_cams,), dtype=bool)  # (iters, P, C)
        has[known] = bank.camera_present[ids[known]]
        # batch t's pairs in its first columns of (iters, Q) labels and
        # cameras, the rest label -1, which no row has
        t, p, cam = np.nonzero(has)
        counts = np.count_nonzero(has.reshape(iters, -1), axis=1)
        col = np.arange(len(t)) - (np.cumsum(counts) - counts)[t]
        pair = np.full((2, iters, counts.max(initial=0)), -1)
        pair[:, t, col] = ids[t, p], cam
        n_l, n_m = ids.shape[1], int(np.count_nonzero(self.multi))
        cen, cc = slice(2 * b, 2 * b + n_l), slice(2 * b + n_l, None)
        same = labels[:, :n_m, None] == pair[0][:, None, :]
        other_cam = cameras[:, :n_m, None] != pair[1][:, None, :]
        # one (iters, B, W) mask: the positives, then, in place, the
        # negatives; the multi rows come first
        same_label = code[:, None] == code[None, :]  # L_ins's positives
        mask = np.empty((iters, b, 2 * b + n_l + pair.shape[2]), dtype=bool)
        mask[:, :, :2 * b] = np.hstack([same_label, np.eye(b, dtype=bool)])
        np.equal(labels[:, :, None], ids[:, None, :], out=mask[:, :, cen])
        mask[:, n_m:, cc] = False
        np.logical_and(same, other_cam, out=mask[:, :n_m, cc])
        pos = np.flatnonzero(mask)
        same_source = self.multi[:, None] == self.multi[None, :]
        mask[:, :, :2 * b] = np.hstack([~same_label & same_source, ~same_label])
        np.logical_not(mask[:, :, cen], out=mask[:, :, cen])
        mask[:, :n_m, cc] = (other_cam | ~same) & (pair[0] >= 0)[:, None, :]
        del same, other_cam  # not held through the build
        self.columns = _epoch_columns(pos, mask, [b, b, n_l, pair.shape[2]])
        self.cc_rows = np.where(pair[0] >= 0, pair[0] * n_cams + pair[1], 0)
        # a multi-camera row takes the first of a term's two temperatures
        tau = np.where(self.multi[:, None],
                       [TAU_INS[0], TAU_AUG, TAU_CEN[0], TAU_CC],
                       [TAU_INS[1], TAU_AUG, TAU_CEN[1], TAU_CC])
        self.tau = tau[:, list(self.columns[0].blocks)]

    def view(self, it: int, f: np.ndarray, m: np.ndarray) -> "BatchView":
        """Batch `it` with its embeddings, no check repeated."""
        view = BatchView.__new__(BatchView)
        view._bind(self, it, f, m)
        return view


class BatchView:
    """One batch as the losses see it: f, the (B, E) encoder embeddings of
    its augmented inputs, m, the momentum embeddings of its originals, and
    batch `it` of an epoch's LossLayout, which holds the bank. labels (a
    bank row each), cameras, multi and batch_labels (the distinct labels,
    ascending) are the layout's."""

    def __init__(self, f, m, labels, cameras, bank: CentroidBank):
        """A batch on its own: the one batch of a one-batch epoch."""
        self._bind(LossLayout(np.asarray(labels)[None],
                              np.asarray(cameras)[None], bank), 0, f, m)

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
    tau: np.ndarray,
    cols: Columns,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked multi-positive log-softmax of each anchor against the
    blocks of `cols`, side by side, in one pass.

    `proxies` are those blocks' (W, E) proxies side by side, `tau` the
    (B, blocks) temperature of each anchor in each and `scale` the weight
    of each. Row i scores positive j of a block against {j} plus its
    negatives in the block, which is the negatives alone when j is one of
    them; its loss is the mean of -log softmax over its positives there.
    A block's loss averages over its rows with a positive, and is exactly
    zero when there are none or when no pool holds more than its own
    positive. Returns each block's loss and the gradient of their sum,
    weighted by `scale`, with respect to f.
    """
    b, nb = tau.shape
    neg, starts, widths, in_neg = cols.neg, cols.starts, cols.widths, cols.in_neg
    # kept as int32, gathered by as intp: numpy casts other indices per use
    k, pool = cols.k.astype(np.intp), cols.pool.astype(np.intp)
    z = f @ proxies.T
    z /= np.repeat(tau, widths, axis=1)
    # each pool's max, the lowest float for an empty one, so that z - shift
    # stays finite there too
    shift = np.maximum.reduceat(np.where(neg, z, _LOWEST), starts, axis=1)
    z_p = z.ravel()[k]
    # the positives at the top of their pool, which holds them: their share
    # of it, 1 - softmax, is the rest of the pool's mass, summed without
    # their own term, over the whole (1 - softmax itself loses it)
    tops = np.flatnonzero(in_neg & (z_p == shift.ravel()[pool]))
    e = z  # one buffer: the logits, then exp, then dL/dz
    e -= np.repeat(shift, widths, axis=1)
    # e <= 0 on the negatives; the clip keeps exp finite on the entries the
    # mask then zeroes
    np.exp(np.minimum(e, 0.0, out=e), out=e)
    e *= neg
    if tops.size:
        e.ravel()[k[tops]] = 0.0  # ravel is a view of e
    s = np.add.reduceat(e, starts, axis=1).ravel()
    if tops.size:  # each top's pool without it, then the pools whole
        p = pool[tops]
        n_top = np.bincount(p, minlength=s.size)
        rest = s[p] + (n_top[p] - 1)
        s += n_top
    with np.errstate(divide="ignore"):
        lse_neg = shift.ravel() + np.log(s)  # -inf where a pool is empty
    # only the positives carry weight: work on their own vectors, and sum
    # those by pool and block
    w, lr = cols.w[pool], lse_neg[pool]
    lse = np.where(in_neg, lr, np.logaddexp(z_p, lr))  # per (i, j) pool
    losses = (np.bincount(pool % nb, w * (lse - z_p), minlength=nb)
              / cols.n_anchors)
    # dL/dz: each pool's softmax weighted by w, less w at its positive: a
    # positive outside the negatives gets -w times the negatives' share of
    # its pool, a top one -w times the rest's (its share is w)
    share = w * np.exp(lr - lse)
    c = np.bincount(pool, share, minlength=s.size)
    g = ((scale / cols.n_anchors) / tau).ravel()
    # a pool holds no mass (s = 0) or at least its top's, 1
    e *= np.repeat((c / np.maximum(s, 1.0) * g).reshape(b, nb), widths,
                   axis=1)
    own = -share
    if tops.size:
        own[tops] = ((c[p] - w[tops]) - w[tops] * rest) / s[p]
    e.ravel()[k] += own * g[pool]
    return losses, e @ proxies


def instance_loss(view: BatchView) -> np.ndarray:
    """L_ins's proxies: the momentum embeddings. Positives of anchor i are
    all j with the same label, the self-pair included; negatives are
    same-source batch members with a different label."""
    return view.m


def augmentation_loss(view: BatchView) -> np.ndarray:
    """L_aug's proxies: pulls each augmented embedding to its own momentum
    original; negatives are all different-label batch members from either
    source."""
    return view.m


def centroids_loss(view: BatchView) -> np.ndarray:
    """L_cen's proxies: pulls each anchor to its label centroid against the
    centroids of all distinct labels present in the batch."""
    return view.layout.bank.label_centroids[view.batch_labels]


def camera_centroids_loss(view: BatchView) -> np.ndarray:
    """L_cc's proxies: pulls multi-camera anchors toward same-label
    centroids from *other* cameras; negatives are camera centroids of the
    other multi labels in the batch. Each positive is scored against all
    of them, the other positives included: those are negatives of the
    kernel too. Anchors with no cross-camera proxy contribute zero."""
    cents = view.layout.bank.camera_centroids
    return cents.reshape(-1, cents.shape[-1])[view.layout.cc_rows[view.it]]


# The objective, summed in order: name -> (weight, the term's proxies).
# Each call looks its loss up in the module globals, so patches take effect.
TERMS = {
    "ins": (1.0, lambda view: instance_loss(view)),
    "aug": (1.0, lambda view: augmentation_loss(view)),
    "cen": (1.0, lambda view: centroids_loss(view)),
    "cc": (GAMMA, lambda view: camera_centroids_loss(view)),
}


def total_loss(
    view: BatchView, weights=None
) -> tuple[float, np.ndarray, dict[str, float]]:
    """The sum of TERMS at `weights`, one per term in TERMS order (TERMS'
    own by default), its gradient and each term's loss by name: every
    term's proxies, then one pass over them all at the layout's columns
    and temperatures. The losses do not depend on the weights; a term
    alone is the pass at its one-hot weights."""
    if weights is None:
        weights = [weight for weight, _ in TERMS.values()]
    if len(weights) != len(TERMS):
        raise DimensionMismatchError(f"{len(weights)} weights for "
                                     f"{len(TERMS)} terms")
    proxies = np.concatenate([term(view) for _, term in TERMS.values()])
    cols = view.layout.columns[view.it]
    parts = dict.fromkeys(TERMS, 0.0)
    if not cols.blocks:  # an empty batch
        return 0.0, np.zeros_like(view.f), parts
    on = list(cols.blocks)
    losses, grads = _contrastive(view.f, proxies, view.layout.tau, cols,
                                 np.asarray(weights, dtype=np.float64)[on])
    names = list(TERMS)
    parts.update(zip([names[j] for j in on], losses.tolist()))
    loss = sum(weight * parts[name] for name, weight in zip(TERMS, weights))
    return loss, grads, parts

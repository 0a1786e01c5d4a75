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
and the four sit side by side, L_ins | L_aug | L_cen | L_cc (ORDER). A
term's function returns its block (`Block`: its proxies and each
anchor's temperature), and `one_pass` runs the blocks it is given; a
term alone is the same pass over its one block (`term_loss`).

What a pass reads besides the embeddings and the bank, the blocks'
negatives and positives side by side (`Columns`) and the rows of the
bank the L_cen and L_cc proxies take, depends on the batch's labels and
cameras and the bank's table of camera centroids alone. The sampler
fixes the first two for a whole epoch at its start and the bank is built
once per epoch, so `LossLayout` runs the batch checks and derives them
once per epoch, for every batch at once; an iteration then only gathers
the proxies and runs the pass. `BatchView(f, m, labels, cameras)` is a
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

# the terms' blocks in the order they sit side by side
ORDER = ("ins", "aug", "cen", "cc")
# the camera table of a layout no bank has been given yet: no L_cc proxy
_NO_PAIRS = np.zeros((0, 0), dtype=bool)
_LOWEST = np.finfo(np.float64).min


class Block(NamedTuple):
    """A term's columns of a pass: its name in ORDER, its (P, E) proxies
    and the (B,) temperature of each anchor."""
    name: str
    proxies: np.ndarray
    tau: np.ndarray


class Columns(NamedTuple):
    """One batch's blocks side by side as the kernel reads them.

    neg is the (B, W) mask of each block's negatives in parts side by
    side: each run of blocks whose masks are the same in every batch is
    one part, shared by the batches, and each run of the others is one.
    The non-empty blocks start at columns `starts`, are `widths` wide and
    are `blocks` (their indices in the blocks asked for). A pool is one
    row of one non-empty block, pool i * len(blocks) + block. The
    positives are their flat indices k into the matrix, their pools, and
    whether each is among its pool's negatives; w is 1 / (positives in
    the pool) per pool, and n_anchors the rows with a positive per block
    (at least 1, the block's divisor)."""
    neg: tuple
    starts: np.ndarray
    widths: np.ndarray
    blocks: tuple
    k: np.ndarray
    pool: np.ndarray
    in_neg: np.ndarray
    w: np.ndarray
    n_anchors: np.ndarray


def _epoch_columns(pos: list, neg: list, widths) -> list[Columns]:
    """The Columns of each batch t of an epoch: block b's positive and
    negative masks are pos[b] and neg[b], both (B, P) if the same in every
    batch, else both (n, B, P), and widths the (n, blocks) widths. Only the
    last block's width may vary across batches; its columns past
    widths[t] are False in both masks. A batch's positives are its
    blocks' in turn, each block's in row-major order."""
    widths = np.asarray(widths, dtype=np.int64)
    n, n_blocks = widths.shape
    b = pos[0].shape[-2]
    runs = []  # the negatives: runs of blocks alike in every batch or not
    for x in neg:
        if runs and runs[-1][-1].ndim == x.ndim:
            runs[-1].append(x)
        else:
            runs.append([x])
    *head, tail = [np.concatenate(run, axis=-1) for run in runs]
    starts = np.cumsum(widths[0]) - widths[0]  # the same in every batch
    total, full = widths.sum(axis=1), widths > 0
    n_full = np.count_nonzero(full, axis=1)
    slot = np.cumsum(full, axis=1) - 1  # a block's index among the non-empty
    # each block's positives: (row, column) pairs of a mask alike in every
    # batch, else flat indices into the (n, B, P) mask
    n_pos = np.zeros((n, b, n_blocks), dtype=np.int32)
    found = []
    for blk, mask in enumerate(pos):
        if mask.ndim == 2:
            found.append(np.nonzero(mask))
            n_pos[:, :, blk] = np.count_nonzero(mask, axis=1)
        else:
            found.append(np.flatnonzero(mask))
            n_pos[:, :, blk] = np.bincount(found[-1] // mask.shape[2],
                                           minlength=n * b).reshape(n, b)
    # batch t's positives in row t, each block's in turn from column off
    counts = n_pos.sum(axis=1)
    off = np.cumsum(counts, axis=1) - counts
    per = counts.sum(axis=1)
    k = np.empty((n, per.max(initial=0)), dtype=np.int32)
    pools, in_neg = np.empty_like(k), np.empty(k.shape, dtype=bool)
    for blk, (hits, mask, rest) in enumerate(zip(found, pos, neg)):
        if mask.ndim == 2:
            (i, q), t = hits, np.arange(n)[:, None]
            is_neg = np.broadcast_to(rest[i, q], (n, len(i)))
        else:
            is_neg = rest.reshape(-1)[hits]
            t, q = np.divmod(hits, mask.shape[2])
            t, i = np.divmod(t, b)
        c, o = counts[:, blk], off[:, blk]
        if np.ptp(c) == 0 and np.ptp(o) == 0:  # the same columns of each row
            at, shape = (slice(None), slice(o[0], o[0] + c[0])), (n, c[0])
        else:
            shape = is_neg.shape
            rank = np.arange(is_neg.size).reshape(shape)
            at = t, o[t] + rank - (np.cumsum(c) - c)[t]
        for out, found_b in ((k, i * total[t] + (starts[blk] + q)),
                             (pools, i * n_full[t] + slot[t, blk]),
                             (in_neg, is_neg)):
            out[at] = found_b.reshape(shape)
    n_anchors = np.maximum(np.count_nonzero(n_pos, axis=1), 1)
    with np.errstate(divide="ignore"):  # a pool without positives: unread
        w = 1.0 / n_pos
    tail_at = sum(x.shape[-1] for x in head)
    cols = []
    for it, on in enumerate(full.tolist()):
        blocks = tuple(j for j, x in enumerate(on) if x)
        sel = slice(None) if all(on) else list(blocks)
        parts = [x if x.ndim == 2 else x[it] for x in (*head, tail)]
        parts[-1] = parts[-1][:, :total[it] - tail_at]
        cols.append(Columns(tuple(parts), starts[sel], widths[it, sel],
                            blocks, k[it, :per[it]], pools[it, :per[it]],
                            in_neg[it, :per[it]], w[it][:, sel].reshape(-1),
                            n_anchors[it, sel]))
    return cols


def _subset(cols: Columns, keep: list) -> Columns:
    """The Columns of the blocks `keep` of `cols` (indices into the blocks
    it was asked for, ascending) alone."""
    span = dict(zip(cols.blocks, zip(cols.starts.tolist(),
                                     cols.widths.tolist())))
    cuts = [slice(s, s + w) for s, w in (span.get(j, (0, 0)) for j in keep)]
    neg = np.concatenate(cols.neg, axis=1)
    pos = np.zeros(neg.shape, dtype=bool)
    pos.ravel()[cols.k] = True
    return _epoch_columns([pos[:, c] for c in cuts], [neg[:, c] for c in cuts],
                          [[c.stop - c.start for c in cuts]])[0]


class LossLayout:
    """What a pass reads of an epoch's batches that the labels and cameras
    (and the bank's camera table) alone decide, derived once from their
    (iters, B) arrays: the checks, each batch's Columns of the four blocks
    and the rows of the bank the L_cc proxies take.

    A row is multi-camera iff its camera is >= 0 (a single-camera row has
    -1). In every batch those rows come first and no label is in both
    sources, and every batch groups its rows by label and source as the
    first does, as the PK sampler lays them out, so L_ins and L_aug have
    the same columns in every batch. Else DimensionMismatchError, as for a
    camera below -1; a negative label raises UnresolvedLabelError.
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
        self._same = code[:, None] == code[None, :]  # L_ins's positives
        self._cols = None  # (camera table, Columns per batch, L_cc rows)
        self._parts = {}  # (batch, blocks) -> Columns of part of ORDER

    def camera_pairs(self, present: np.ndarray) -> list[np.ndarray]:
        """Per batch, the L_cc proxies' flat rows in the (I * C, E) camera
        centroids of a bank whose (I, C) table of present centroids is
        `present`: the present pairs of the batch's labels, by label, then
        camera. The first call with a table builds every batch's Columns,
        L_cc's block holding, for a multi row, every pair but its own as
        the pool and its label's other pairs as the positives, and none
        for a single one; they are kept for that table."""
        if self._cols is not None and self._cols[0] is present:
            return self._cols[2]
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
        other_cam = self.cameras[:, :n_m, None] != pair[1][:, None, :]
        cc_pos = np.zeros((iters, b, pair.shape[2]), dtype=bool)
        cc_pos[:, :n_m] = same & other_cam
        cc_pool = np.zeros_like(cc_pos)
        cc_pool[:, :n_m] = (other_cam | ~same) & (pair[0] >= 0)[:, None, :]
        del same, other_cam  # not held through the build
        cen_pos = self.labels[:, :, None] == ids[:, None, :]
        same_source = self.multi[:, None] == self.multi[None, :]
        cols = _epoch_columns(
            [self._same, np.eye(b, dtype=bool), cen_pos, cc_pos],
            [~self._same & same_source, ~self._same, ~cen_pos, cc_pool],
            np.stack(np.broadcast_arrays(b, b, ids.shape[1], widths), axis=1))
        rows = pair[0] * n_cams + pair[1]
        self._parts = {}
        self._cols = present, cols, [
            rows[it, :q] for it, q in enumerate(widths.tolist())]
        return self._cols[2]

    def columns(self, it: int, names: tuple = ORDER) -> Columns:
        """Batch `it`'s Columns of the blocks `names`, a part of ORDER in
        its order: the four built for the last camera table (none before
        the first), or those of a part of them, kept once derived."""
        if self._cols is None:
            self.camera_pairs(_NO_PAIRS)
        cols = self._cols[1][it]
        if names == ORDER:
            return cols
        if (it, names) not in self._parts:
            keep = [ORDER.index(name) for name in names]
            if keep != sorted(set(keep)):
                raise ValueError(f"blocks {names} are not in the order {ORDER}")
            self._parts[it, names] = _subset(cols, keep)
        return self._parts[it, names]

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
    tau: np.ndarray,
    cols: Columns,
    scale: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked multi-positive log-softmax of each anchor against the
    non-empty blocks of `cols`, side by side, in one pass.

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
    starts, widths, in_neg = cols.starts, cols.widths, cols.in_neg
    neg = np.concatenate(cols.neg, axis=1)
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


def instance_loss(view: BatchView, tau_m: float, tau_s: float) -> Block:
    """L_ins's block: the momentum embeddings. Positives of anchor i are
    all j with the same label, the self-pair included; negatives are
    same-source batch members with a different label."""
    return Block("ins", view.m, np.where(view.multi, tau_m, tau_s))


def augmentation_loss(view: BatchView, tau_aug: float) -> Block:
    """L_aug's block: pulls each augmented embedding to its own momentum
    original; negatives are all different-label batch members from either
    source."""
    return Block("aug", view.m, np.full(view.size, tau_aug))


def centroids_loss(view: BatchView, bank: CentroidBank, tau_m: float,
                   tau_s: float) -> Block:
    """L_cen's block: pulls each anchor to its label centroid against the
    centroids of all distinct labels present in the batch."""
    labels = view.batch_labels
    if len(labels) and labels[-1] >= len(bank.label_centroids):
        raise UnresolvedLabelError(f"no centroid for label {labels[-1]}")
    return Block("cen", bank.label_centroids[labels],
                 np.where(view.multi, tau_m, tau_s))


def camera_centroids_loss(view: BatchView, bank: CentroidBank,
                          tau_cc: float) -> Block:
    """L_cc's block: pulls multi-camera anchors toward same-label centroids
    from *other* cameras; negatives are camera centroids of the other
    multi labels in the batch. Each positive is scored against all of
    them, the other positives included: those are negatives of the kernel
    too. Anchors with no cross-camera proxy contribute zero."""
    rows = view.layout.camera_pairs(bank.camera_present)[view.it]
    cents = bank.camera_centroids
    return Block("cc", cents.reshape(-1, cents.shape[-1])[rows],
                 np.full(view.size, tau_cc))


def one_pass(view: BatchView, blocks: list, weights=None
             ) -> tuple[dict[str, float], np.ndarray]:
    """One `_contrastive` pass over `blocks` (in ORDER's order) of batch
    `view`: each block's loss by name, and the gradient of their sum
    weighted by `weights` (1 each by default)."""
    names = tuple(block.name for block in blocks)
    cols = view.layout.columns(view.it, names)
    parts = dict.fromkeys(names, 0.0)
    if not cols.blocks:
        return parts, np.zeros_like(view.f)
    on = list(cols.blocks)
    scale = np.ones(len(on)) if weights is None else np.asarray(weights)[on]
    tau = np.concatenate([blocks[j].tau for j in on]).reshape(len(on), -1)
    losses, grads = _contrastive(
        view.f, np.concatenate([block.proxies for block in blocks]), tau.T,
        cols, scale)
    parts.update(zip([names[j] for j in on], losses.tolist()))
    return parts, grads


def term_loss(view: BatchView, block: Block) -> tuple[float, np.ndarray]:
    """A term alone: the pass over its one block, (loss, dL/df)."""
    parts, grads = one_pass(view, [block])
    return parts[block.name], grads


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
    """The weighted sum of TERMS, its gradient and each term's loss by
    name: every term's block, then one pass over them all."""
    blocks = [term(view, bank) for _, term in TERMS.values()]
    parts, grads = one_pass(view, blocks,
                            [weight for weight, _ in TERMS.values()])
    loss = 0.0
    for name, (weight, _) in TERMS.items():
        loss = loss + weight * parts[name]
    return loss, grads, parts

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    reference_augmentation_loss,
    reference_build_centroids,
    reference_camera_centroids_loss,
    reference_centroids_loss,
    reference_contrastive,
    reference_instance_loss,
    term_alone,
)
from remix.errors import (
    DimensionMismatchError,
    EmptyLabelError,
    UnresolvedLabelError,
)
import remix
from remix import encoder as enc
from remix import gradcheck, losses
from remix.datamodel import LabelGroups, draw_epoch
from remix.gradcheck import max_relative_errors
from remix.losses import (
    GAMMA,
    TAU_AUG,
    TAU_CC,
    TAU_CEN,
    TAU_INS,
    TERMS,
    BatchView,
    LossLayout,
    _contrastive,
    _epoch_columns,
    build_centroids,
    total_loss,
)
from remix.numcore import finite_diff_grad, normalize_rows, substream


def bank_for(labels, cameras, dim, seed=10):
    """A bank over the batch's labels and cameras, of random unit rows."""
    rng = substream(seed, "gradcheck")
    m = normalize_rows(rng.standard_normal((len(labels), dim)))
    return build_centroids(m, labels, cameras)


def random_view(seed=0, n_multi=6, n_single=6, dim=5, n_labels=2, n_cams=3,
                bank=bank_for):
    """A mixed batch over the bank `bank(labels, cameras, dim)`."""
    rng = substream(seed, "gradcheck")
    b = n_multi + n_single
    f = normalize_rows(rng.standard_normal((b, dim)))
    m = normalize_rows(rng.standard_normal((b, dim)))
    # single-camera labels follow the multi-camera ones
    offset = min(n_multi, n_labels)
    labels = [i % n_labels for i in range(n_multi)]
    labels += [offset + i % n_labels for i in range(n_single)]
    cameras = np.array([int(rng.integers(n_cams)) for _ in range(n_multi)]
                       + [-1] * n_single)
    return BatchView(f, m, labels, cameras, bank(labels, cameras, dim))


# a centroid for each of the labels 0-9
TEN = build_centroids(np.eye(10), np.arange(10), np.zeros(10, dtype=int))


class TestBatchView:
    def test_single_before_multi_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [1, 0], np.array([-1, 0]), TEN)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BatchView(np.eye(2), np.eye(3), [0, 0], np.zeros(2), TEN)

    def test_label_in_both_sources_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [0, 0], np.array([0, -1]), TEN)

    def test_negative_label_rejected(self):
        # a label of -1 would index the last column of the per-source
        # table, and its anchor would fall out of the batch's labels
        f = np.eye(3)
        with pytest.raises(UnresolvedLabelError, match="-1"):
            BatchView(f, f, [0, 0, -1], [0, 1, 2], TEN)

    def test_camera_below_minus_one_rejected(self):
        f = np.eye(3)
        with pytest.raises(DimensionMismatchError, match="-2"):
            BatchView(f, f, [0, 0, 1], [0, 1, -2], TEN)

    def test_codes_number_distinct_labels(self):
        f = np.eye(4)
        v = BatchView(f, f, [5, 2, 5, 9], [0, 1, 2, -1], TEN)
        assert v.batch_labels.tolist() == [2, 5, 9]

    def test_source_is_read_from_the_camera(self):
        f = np.eye(4)
        v = BatchView(f, f, [0, 0, 1, 2], [2, 0, -1, -1], TEN)
        assert v.multi.tolist() == [True, True, False, False]
        with pytest.raises(TypeError):  # the source is not an argument
            BatchView(f, f, [0, 0, 1, 2], v.multi, [2, 0, -1, -1], TEN)

    def test_counts(self):
        v = random_view(n_multi=4, n_single=2)
        assert v.size == 6


def identity_rows(cams_of):
    """LabelGroups of multi-camera identities, identity y with 3 rows on
    each camera of cams_of[y]; no features."""
    cams = [np.repeat(c, 3) for c in cams_of]
    sizes = [len(c) for c in cams]
    return LabelGroups(np.zeros((sum(sizes), 1)),
                       np.concatenate(([0], np.cumsum(sizes))),
                       np.concatenate(cams))


def pseudo_rows(n_labels, rows_per_label):
    n = n_labels * rows_per_label
    return LabelGroups(np.zeros((n, 1)), np.arange(0, n + 1, rows_per_label),
                       np.full(n, -1))


def absent_pair_cams(rng):
    """12 identities on 2 or 3 of 4 cameras: camera pairs are missing."""
    return [np.sort(rng.choice(4, int(rng.integers(2, 4)), replace=False))
            for _ in range(12)]


# (groups, sizes, iters): the default joint and labeled-only batches, a
# refresh epoch's large pseudo pool, identities with cameras missing, and
# pseudo labels alone, no L_cc column in the epoch
EPOCH_SHAPES = {
    "joint": (lambda rng: identity_rows([range(4)] * 60).then(
        pseudo_rows(30, 8)), (8, 4, 8, 4), 50),
    "labeled_only": (lambda rng: identity_rows([range(4)] * 60),
                     (8, 4, 0, 4), 50),
    "refresh": (lambda rng: identity_rows([range(4)] * 60).then(
        pseudo_rows(480, 16)), (8, 4, 8, 4), 5),
    "absent_pairs": (lambda rng: identity_rows(absent_pair_cams(rng)).then(
        pseudo_rows(10, 3)), (4, 4, 4, 2), 20),
    "corpus_only": (lambda rng: identity_rows([range(4)] * 60).then(
        pseudo_rows(30, 8)), (0, 4, 8, 4), 50),
}


def drawn_epoch(shape, seed):
    """An epoch's draws at the shape, and a bank over all its rows."""
    rng = substream(seed, "gradcheck")
    make, sizes, iters = EPOCH_SHAPES[shape]
    groups = make(rng)
    draws = draw_epoch(groups, sizes, iters, rng)
    embs = normalize_rows(rng.standard_normal((len(groups.cameras), 6)))
    return draws, build_centroids(embs, groups.labels(), groups.cameras)


def batch_masks(labels, cameras, bank):
    """Per term, (positive mask, negative mask, proxies) of one batch, built
    from its labels and cameras alone; the camera term's negatives are the
    other labels' pairs, its pool positives and negatives."""
    multi = cameras >= 0
    same = labels[:, None] == labels[None, :]
    batch_labels = np.unique(labels)
    ids = batch_labels[batch_labels < len(bank.camera_present)]
    which, proxy_cams = np.nonzero(bank.camera_present[ids])
    proxy_labels = ids[which]
    same_id = multi[:, None] & (labels[:, None] == proxy_labels[None, :])
    cen_pos = labels[:, None] == batch_labels[None, :]
    return {
        "ins": (same, ~same & (multi[:, None] == multi[None, :]), None),
        "aug": (np.eye(len(labels), dtype=bool), ~same, None),
        "cen": (cen_pos, ~cen_pos, bank.label_centroids[batch_labels]),
        "cc": (same_id & (cameras[:, None] != proxy_cams[None, :]),
               multi[:, None] & ~same_id,
               bank.camera_centroids[proxy_labels, proxy_cams]),
    }


def assert_columns_of(cols, masks):
    """cols holds the (positive, negative) masks of its blocks side by side:
    the negatives, each block's place, and the positives in row-major
    order, with their pools, weights and anchor counts."""
    widths = [p.shape[1] for p, _ in masks]
    on = [j for j, w in enumerate(widths) if w]
    pos, neg = (np.hstack([x[side] for x in masks]) for side in (0, 1))
    starts = (np.cumsum(widths) - widths)[on]
    assert np.array_equal(cols.neg, neg)
    assert cols.blocks == tuple(on)
    assert cols.starts.tolist() == starts.tolist()
    assert cols.widths.tolist() == [widths[j] for j in on]
    i, q = np.nonzero(pos)
    slot = np.searchsorted(starts, q, side="right") - 1
    n_pos = np.stack([masks[j][0].sum(axis=1) for j in on], axis=1)
    assert cols.k.tolist() == (i * neg.shape[1] + q).tolist()
    assert cols.pool.tolist() == (i * len(on) + slot).tolist()
    assert cols.in_neg.tolist() == neg[i, q].tolist()
    assert cols.w[cols.pool].tolist() == (1.0 / n_pos[i, slot]).tolist()
    assert cols.n_anchors.tolist() \
        == np.maximum(np.count_nonzero(n_pos, axis=0), 1).tolist()


def masks_of(want, q):
    """(positive, pool negatives) masks of the terms of batch_masks, in
    TERMS order: L_cc's pool is its positives and negatives, and both its
    masks are padded with False to q columns, the epoch's most camera
    pairs."""
    masks = []
    for name in TERMS:
        pos, neg = want[name][:2]
        if name == "cc":
            pos, neg = (np.pad(x, ((0, 0), (0, q - x.shape[1])))
                        for x in (pos, pos | neg))
        masks.append((pos, neg))
    return masks


# each term's temperature per row
TERM_TAUS = {
    "ins": lambda multi: np.where(multi, *TAU_INS),
    "aug": lambda multi: np.full(len(multi), TAU_AUG),
    "cen": lambda multi: np.where(multi, *TAU_CEN),
    "cc": lambda multi: np.full(len(multi), TAU_CC),
}


class TestLossLayout:
    """An epoch's layout, built once from its draws, against each batch's
    masks built from that batch's labels and cameras alone."""

    @pytest.mark.parametrize("shape", list(EPOCH_SHAPES))
    def test_each_batch_matches_its_own_masks(self, shape):
        for seed in range(2):
            draws, bank = drawn_epoch(shape, seed)
            layout = LossLayout(draws.labels, draws.cameras, bank)
            pairs = layout.cc_rows
            wants = [batch_masks(labels, cameras, bank)
                     for labels, cameras in zip(draws.labels, draws.cameras)]
            counts = [len(want["cc"][2]) for want in wants]
            q = max(counts)
            for it, want in enumerate(wants):
                assert layout.batch_labels[it].tolist() \
                    == np.unique(draws.labels[it]).tolist()
                cols = layout.columns[it]
                assert_columns_of(cols, masks_of(want, q))
                assert np.array_equal(bank.camera_centroids.reshape(
                    -1, bank.camera_centroids.shape[-1])[pairs[it]][
                        :counts[it]], want["cc"][2])
                # L_cc's padding: in no pool, no positive there
                pad = cols.neg.shape[1] - (q - counts[it])
                assert not cols.neg[:, pad:].any()
                assert np.all(cols.k % cols.neg.shape[1] < pad)
            # with cameras missing, batches differ in their proxy count but
            # not in their columns
            assert (len(set(counts)) > 1) == (shape == "absent_pairs")
            assert len({tuple(cols.widths) for cols in layout.columns}) == 1
            assert pairs.shape == (len(wants), q)
            # each row's temperature in each block the epoch has
            names = list(TERMS)
            assert np.array_equal(layout.tau, np.stack(
                [TERM_TAUS[names[j]](draws.cameras[0] >= 0)
                 for j in layout.columns[0].blocks], axis=1))

    @pytest.mark.parametrize("shape", list(EPOCH_SHAPES))
    def test_terms_match_the_loops(self, shape):
        # the first, a middle and the last batch of the epoch, each term
        # against the kernel's contract, pair by pair
        draws, bank = drawn_epoch(shape, 2)
        layout = LossLayout(draws.labels, draws.cameras, bank)
        rng = substream(3, "gradcheck")
        iters, b = draws.labels.shape
        u = np.finfo(np.float64).eps / 2
        for it in (0, iters // 2, iters - 1):
            f = normalize_rows(rng.standard_normal((b, 6)))
            m = normalize_rows(rng.standard_normal((b, 6)))
            view = layout.view(it, f, m)
            masks = batch_masks(draws.labels[it], draws.cameras[it], bank)
            for name, taus in TERM_TAUS.items():
                pos, neg, proxies = masks[name]
                tau = taus(draws.cameras[it] >= 0)
                want, want_grads = reference_contrastive(
                    f, m if proxies is None else proxies, pos, neg, tau,
                    name == "cc")
                loss, grads = term_alone(view, name)
                assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))
                bound = 32 * u / tau * np.maximum(
                    1.0, np.max(np.abs(want_grads), axis=1))
                assert np.all(np.max(np.abs(grads - want_grads), axis=1)
                              <= bound)

    def test_absent_pairs_keep_the_camera_proxies_compact(self):
        # identity 0 lacks camera 1, identity 1 has only cameras 1 and 3:
        # the batch's proxies are the 5 pairs there are, by identity, then
        # camera, and none of the missing ones
        groups = identity_rows([[0, 2, 3], [1, 3]])
        embs = normalize_rows(substream(4, "gradcheck").standard_normal(
            (len(groups.cameras), 5)))
        bank = build_centroids(embs, groups.labels(), groups.cameras)
        labels, cameras = np.array([1, 1, 0, 0]), np.array([3, 1, 2, 0])
        layout = LossLayout(labels[None], cameras[None], bank)
        rows = layout.cc_rows[0]
        assert rows.tolist() == [0 * 4 + 0, 0 * 4 + 2, 0 * 4 + 3,
                                 1 * 4 + 1, 1 * 4 + 3]
        # L_cc's block, the last of the four, from its start
        cols = layout.columns[0]
        assert cols.blocks == (0, 1, 2, 3)
        start = int(cols.starts[3])
        assert cols.neg[:, start:].tolist() == [
            [1, 1, 1, 1, 0], [1, 1, 1, 0, 1], [1, 0, 1, 1, 1], [0, 1, 1, 1, 1]]
        # (row, column): each row's own identity's other cameras
        i, c = np.divmod(cols.k[cols.pool % 4 == 3], cols.neg.shape[1])
        assert (i * 5 + c - start).tolist() == [
            0 * 5 + 3, 1 * 5 + 4, 2 * 5 + 0, 2 * 5 + 2, 3 * 5 + 1, 3 * 5 + 2]
        assert_matches_loops(BatchView(embs[:4], embs[4:8], labels, cameras,
                                       bank))

    def test_gradcheck_builds_one_layout_per_case(self, monkeypatch):
        built = []

        class Counted(LossLayout):
            def __init__(self, labels, cameras, bank):
                built.append((labels.shape, len(bank.label_centroids)))
                super().__init__(labels, cameras, bank)

        monkeypatch.setattr(gradcheck, "LossLayout", Counted)
        max_relative_errors(seed=0, n_batches=2)
        # the case's four labels, each with its centroid
        assert built == [((1, gradcheck.BATCH), 4)] * 2

    def test_layout_memory_at_the_joint_shape(self):
        # a joint epoch, 50 batches of 64, camera pairs included:
        # the four blocks' negatives side by side, (50, 64, 176) bools, and
        # 24,000 positives; not the (iters, B, W) positive mask beside them
        draws, bank = drawn_epoch("joint", 0)
        tracemalloc.start()
        try:
            layout = LossLayout(draws.labels, draws.cameras, bank)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.labels.shape == (50, 64)
        assert layout.columns[0].neg.shape == (64, 176)
        assert retained <= 2**20 and peak <= 2 * 2**20

    @pytest.mark.parametrize("labels, cameras, error", [
        (np.zeros((0, 4)), np.zeros((0, 4)), DimensionMismatchError),
        ([0, 0], [0, 1], DimensionMismatchError),  # one batch, not an epoch
        ([[0, 0], [1, 1]], [[0, 1], [0, -1]], DimensionMismatchError),
        ([[0, 0], [1, 2]], [[0, 1], [0, 1]], DimensionMismatchError),
        ([[0, 1], [2, 2]], [[0, 1], [0, 1]], DimensionMismatchError),
    ], ids=["no_batch", "one_dim", "sources_differ", "pattern_splits",
            "pattern_joins"])
    def test_bad_epochs_rejected(self, labels, cameras, error):
        # TestBatchView's cases are one-batch epochs of the same checks
        with pytest.raises(error):
            LossLayout(labels, cameras, TEN)


class TestBuildCentroids:
    def test_centroids_are_normalized_means(self):
        rng = substream(0, "init")
        m = normalize_rows(rng.standard_normal((4, 3)))
        bank = build_centroids(m, [0, 1, 0, 1], np.array([0, 1, 0, 0]))
        mean = m[[0, 2]].mean(axis=0)
        assert np.allclose(bank.label_centroids[0],
                           mean / np.linalg.norm(mean))
        # label 1 has one row on camera 0
        assert np.allclose(bank.camera_centroids[1, 0], m[3])

    def test_camera_centroids_only_for_multi(self):
        rng = substream(1, "init")
        m = normalize_rows(rng.standard_normal((4, 3)))
        bank = build_centroids(m, [0, 0, 1, 2], np.array([0, 1, -1, -1]))
        assert set(zip(*np.nonzero(bank.camera_present))) == {(0, 0), (0, 1)}
        assert len(bank.label_centroids) == 3
        no_cams = build_centroids(m, [0, 0, 1, 2], np.full(4, -1))
        assert no_cams.camera_present.size == 0

    def test_empty_embeddings_rejected(self):
        with pytest.raises(EmptyLabelError):
            build_centroids(np.zeros((0, 3)), [], [])
        with pytest.raises(EmptyLabelError):  # label 1 has no member
            build_centroids(np.eye(3)[:2], [0, 2], [-1, -1])

    @pytest.mark.parametrize("embeddings, labels, cameras", [
        (np.ones(3), [0, 0, 0], [0, 0, 0]),  # 1-D embeddings
        (np.ones((3, 2, 2)), [0, 0, 0], [0, 0, 0]),
        (np.eye(3), [0, 1], [-1, -1, -1]),  # one label short
        (np.eye(3), [0, 1, 2, 0], [-1, -1, -1, -1]),
        (np.eye(3), [0, 1, 2], [-1, -1]),  # one camera short
        (np.eye(2), [[0, 1]], [[-1, -1]]),  # 2-D labels and cameras
    ])
    def test_one_label_and_camera_per_row(self, embeddings, labels, cameras):
        with pytest.raises(DimensionMismatchError):
            build_centroids(embeddings, labels, cameras)

    def test_negative_label_rejected(self):
        with pytest.raises(UnresolvedLabelError, match="-1"):
            build_centroids(np.eye(3), [0, -1, 1], [0, 0, 0])


def assert_same_bank(got, want):
    """Bit for bit: dtype, shape and bytes of each of the bank's arrays."""
    for name in ("label_centroids", "camera_centroids", "camera_present"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


class TestBuildCentroidsAgainstOracle:
    def test_refresh_sized_bank(self):
        # a refresh epoch's bank: 60 identities x 4 cameras x 3 rows, then
        # 480 pseudo labels x 16 frames without cameras, in shuffled order
        rng = substream(6, "gradcheck")
        labels = np.r_[np.repeat(np.arange(60), 12),
                       60 + rng.permutation(np.repeat(np.arange(480), 16))]
        cameras = np.r_[np.tile(np.repeat(np.arange(4), 3), 60),
                        np.full(480 * 16, -1)]
        order = rng.permutation(len(labels))
        embs = normalize_rows(rng.standard_normal((len(labels), 16)))
        bank = build_centroids(embs, labels[order], cameras[order])
        assert bank.camera_present.all()
        assert_same_bank(bank, reference_build_centroids(
            embs, labels[order], cameras[order]))

    def test_label_with_cameras_missing(self):
        # label 0 lacks camera 1, label 1 has only camera 1 beside a row
        # without one, and the highest label has no camera row at all
        rng = substream(7, "gradcheck")
        embs = normalize_rows(rng.standard_normal((7, 5)))
        labels, cameras = [0, 1, 0, 2, 1, 0, 2], [2, -1, 0, -1, 1, 2, -1]
        bank = build_centroids(embs, labels, cameras)
        assert bank.camera_present.tolist() == [[True, False, True],
                                                [False, True, False]]
        assert not bank.camera_centroids[0, 1].any()
        assert_same_bank(bank, reference_build_centroids(embs, labels,
                                                         cameras))

    def test_no_camera_rows(self):
        rng = substream(8, "gradcheck")
        embs = normalize_rows(rng.standard_normal((6, 4)))
        labels, cameras = [1, 0, 2, 1, 0, 2], np.full(6, -1)
        bank = build_centroids(embs, labels, cameras)
        assert bank.camera_centroids.shape == (0, 0, 4)
        assert_same_bank(bank, reference_build_centroids(embs, labels,
                                                         cameras))

    def test_random_banks(self):
        rng = substream(9, "gradcheck")
        for _ in range(50):
            n, dim = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))  # labels 0..k-1, none empty
            labels = rng.permutation(np.r_[np.arange(k),
                                           rng.integers(0, k, n - k)])
            cameras = rng.integers(-1, 4, n)
            embs = rng.standard_normal((n, dim)) * rng.uniform(0.1, 10.0)
            assert_same_bank(build_centroids(embs, labels, cameras),
                             reference_build_centroids(embs, labels, cameras))


def reference_terms(view):
    """Each term's (loss, dL/df) by the loops over the view's bank, in
    TERMS order, at the module's temperatures as they are when called."""
    bank = view.layout.bank
    return [reference_instance_loss(view, *losses.TAU_INS),
            reference_augmentation_loss(view, losses.TAU_AUG),
            reference_centroids_loss(view, bank, *losses.TAU_CEN),
            reference_camera_centroids_loss(view, bank, losses.TAU_CC)]


def oracle_pairs(view):
    """(kernel, loop) results for every term."""
    return list(zip([term_alone(view, name) for name in TERMS],
                    reference_terms(view)))


def assert_matches_loops(view):
    """Each loss and gradient within 1e-12 of the loops, at the module's
    temperatures, with no overflow or invalid value on the way."""
    with np.errstate(invalid="raise", over="raise"):
        pairs = oracle_pairs(view)
    for (loss, grads), (want, want_grads) in pairs:
        assert abs(loss - want) <= 1e-12
        assert np.max(np.abs(grads - want_grads)) <= 1e-12


def bank_with_absent_label(labels, cameras, dim, seed=10):
    """Bank over the batch's labels plus a multi label the batch lacks."""
    rng = substream(seed, "gradcheck")
    absent = int(max(labels)) + 1
    labels = np.concatenate([labels, [absent] * 3])
    cams = np.concatenate([cameras, [0, 1, 2]])
    m = normalize_rows(rng.standard_normal((len(labels), dim)))
    return build_centroids(m, labels, cams)


def batch_shaped_view(seed, n_pseudo, dim=16):
    """A batch at the trainer's default shape over its bank: 8 of 20
    identities x 4 rows, one per camera of 4, then n_pseudo of 30 pseudo
    labels x 4 rows. The bank holds every identity (8 rows on random
    cameras, so some camera centroids are missing) and, when the batch has
    pseudo labels, all 30 of them (4 rows each)."""
    rng = substream(seed, "gradcheck")
    ids = np.sort(rng.choice(20, 8, replace=False))
    pseudo = 20 + np.sort(rng.choice(30, n_pseudo, replace=False))
    labels = np.concatenate([np.repeat(ids, 4), np.repeat(pseudo, 4)])
    cameras = np.concatenate([rng.permutation(4) for _ in ids]
                             + [np.full(4 * n_pseudo, -1)])
    f = normalize_rows(rng.standard_normal((len(labels), dim)))
    m = normalize_rows(rng.standard_normal((len(labels), dim)))
    n_bank_pseudo = 30 if n_pseudo else 0
    bank_labels = np.concatenate([np.repeat(np.arange(20), 8),
                                  20 + np.repeat(np.arange(n_bank_pseudo), 4)])
    bank_cams = np.concatenate([rng.integers(4, size=160),
                                np.full(4 * n_bank_pseudo, -1)])
    embs = normalize_rows(rng.standard_normal((len(bank_labels), dim)))
    return BatchView(f, m, labels, cameras,
                     build_centroids(embs, bank_labels, bank_cams))


def one_block(f, proxies, pos, neg, tau):
    """The kernel's pass over one block of (B, P) masks, (loss, grads)."""
    cols = _epoch_columns(np.flatnonzero(pos), neg[None], [pos.shape[1]])[0]
    losses, grads = _contrastive(f, proxies, tau[:, None], cols, np.ones(1))
    return float(losses[0]), grads


@st.composite
def kernel_cases(draw):
    """(pos, neg, tau, shared, seed): b x p masks, b temperatures, the pool
    rule and the seed of the unit anchors and proxies."""
    b, p = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    masks = st.lists(st.lists(st.booleans(), min_size=p, max_size=p),
                     min_size=b, max_size=b)
    tau = st.lists(st.sampled_from([1e-4, 1e-3, 0.07, 0.5, 1.0]),
                   min_size=b, max_size=b)
    return (draw(masks), draw(masks), draw(tau), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


class TestKernelAgainstLoops:
    """The vectorised losses against the per-anchor loops in oracles.py."""

    @pytest.mark.parametrize("shape", [
        dict(),
        dict(n_multi=8, n_single=0),
        dict(n_multi=0, n_single=8),
        dict(n_labels=6),  # K=1: every label once per source
        dict(n_cams=1),
        dict(n_labels=1),  # same-source rows without negatives
    ], ids=["mixed", "multi_only", "single_only", "k1", "one_camera",
            "one_label"])
    def test_loss_and_gradient(self, shape):
        for seed in range(10):
            view = random_view(seed, bank=lambda *batch: bank_with_absent_label(
                *batch, seed + 100), **shape)
            assert_matches_loops(view)

    @pytest.mark.parametrize("n_pseudo", [8, 0], ids=["joint", "labeled_only"])
    def test_batch_shape(self, n_pseudo):
        # 64 rows (32 with labels only) against banks of 50 (20) labels: the
        # shapes the trainer runs, beside the 12-row views above
        for seed in range(5):
            view = batch_shaped_view(seed, n_pseudo)
            assert view.size == 32 + 4 * n_pseudo
            assert len(view.layout.bank.label_centroids) \
                > len(view.batch_labels)
            assert_matches_loops(view)

    def test_peak_stays_below_three_matrices(self):
        # beside its inputs, a pass over four blocks at B = 256 holds two
        # (B, W) float matrices at a time: the one buffer that takes the
        # logits, exp and then the gradient, and either the masked logits
        # of the negatives' max or a block-wise expansion of the
        # temperatures, the shifts or the pools' coefficients
        rng = substream(0, "gradcheck")
        b = 256
        labels = np.arange(b) // 4
        same = labels[:, None] == labels[None, :]
        cen = labels[:, None] == np.arange(b // 4)[None, :]
        cams = np.arange(b) % 4
        cc_pos = same & (cams[:, None] != cams[None, :])
        pos = np.hstack([same, np.eye(b, dtype=bool), cen, cc_pos])
        neg = np.hstack([~same, ~same, ~cen, ~np.eye(b, dtype=bool)])
        cols = _epoch_columns(np.flatnonzero(pos), neg[None],
                              [b, b, b // 4, b])[0]
        w = cols.neg.shape[1]
        f = normalize_rows(rng.standard_normal((b, 16)))
        proxies = normalize_rows(rng.standard_normal((w, 16)))
        args = (f, proxies, np.full((b, 4), 0.1), cols, np.ones(4))
        _contrastive(*args)
        tracemalloc.start()
        try:
            _contrastive(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * b * w * 8

    def test_large_magnitudes(self, monkeypatch):
        # tau = 1e-4 puts logits near 1e4: the max shift keeps every loss
        # and gradient finite and equal to the loops. A layout reads the
        # temperatures when it is built, so the patched ones take effect
        for name in ("TAU_INS", "TAU_AUG", "TAU_CEN", "TAU_CC"):
            monkeypatch.setattr(losses, name, np.multiply(
                getattr(losses, name), 1e-4 / TAU_CC))
        view = random_view(13)
        assert view.layout.tau.min() == pytest.approx(1e-4, rel=1e-15)
        with np.errstate(invalid="raise", over="raise"):
            pairs = oracle_pairs(view)
        for (loss, grads), (want, want_grads) in pairs:
            assert np.isfinite(loss) and np.all(np.isfinite(grads))
            assert loss == pytest.approx(want, rel=1e-12)
            assert np.allclose(grads, want_grads, rtol=1e-12, atol=0.0)

    # The pinned case, one anchor whose positive dominates its pool of one
    # negative at tau 1e-3: the kernel once took the positive's
    # coefficient as w * softmax - w, which cancels there, and was 5.6e-11
    # off the exact gradient (50-digit decimal; the loops 3.2e-14).
    @example(case=([[True, False]], [[False, True]], [1e-3], False, 3270))
    @settings(deadline=None, max_examples=300)
    @given(case=kernel_cases())
    def test_random_masks(self, case):
        # independent masks give rows with an empty rest, rows with no
        # positive, and positives inside the rest (always so with a shared
        # pool, which the kernel takes as negatives pos | neg);
        # temperatures reach 1e-4, i.e. logits near 1e4
        pos, neg, tau, shared, seed = case
        pos, neg, tau = np.array(pos), np.array(neg), np.array(tau)
        rng = np.random.default_rng(seed)
        f = normalize_rows(rng.standard_normal((len(tau), 4)))
        proxies = normalize_rows(rng.standard_normal((pos.shape[1], 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                loss, grads = one_block(f, proxies, pos,
                                        pos | neg if shared else neg, tau)
        want, want_grads = reference_contrastive(f, proxies, pos, neg, tau,
                                                 shared)
        assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))
        # a logit of unit vectors has |z| <= 1/tau and a rounding error of
        # a few u / tau (u = 2**-53), and each row's gradient moves by as
        # much relative to its size, floored at 1
        u = np.finfo(np.float64).eps / 2
        bound = 32 * u / tau * np.maximum(1.0, np.max(np.abs(want_grads),
                                                      axis=1))
        assert np.all(np.max(np.abs(grads - want_grads), axis=1) <= bound)

    def test_top_positive_in_its_pool(self):
        # One anchor whose positive is the top of a pool that holds it and
        # one negative, at tau 1e-3 (the seed gives the positive the higher
        # logit): its 1 - softmax is the negative's share alone. Taken as
        # w - w * softmax it cancelled, 1.0e-13 off the 50-digit gradient
        # (1.5e-10 relative); the loops take it as the rest's share too
        pos, pool = np.array([[True, False]]), np.array([[True, True]])
        tau = np.array([1e-3])
        rng = np.random.default_rng(2715)
        f = normalize_rows(rng.standard_normal((1, 4)))
        proxies = normalize_rows(rng.standard_normal((2, 4)))
        assert f @ proxies[0] > f @ proxies[1]
        loss, grads = one_block(f, proxies, pos, pool, tau)
        want, want_grads = reference_contrastive(f, proxies, pos, ~pos, tau,
                                                 True)
        assert loss == pytest.approx(want, rel=1e-15, abs=1e-300)
        ulp = np.spacing(np.max(np.abs(want_grads)))
        assert np.max(np.abs(grads - want_grads)) <= 4 * ulp

    def test_pool_rules(self):
        # one anchor label, two positives of equal similarity, no negatives:
        # instance scores each positive against itself alone (loss 0), the
        # camera term against both positives (loss ln 2)
        f = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bank = build_centroids(m, [0, 0], np.array([1, 2]))
        view = BatchView(f, m, [0, 0], np.array([0, 0]), bank)
        assert term_alone(view, "ins")[0] == 0.0
        assert term_alone(view, "cc")[0] \
            == pytest.approx(np.log(2.0), abs=1e-15)


class TestInstanceLossOracle:
    def test_hand_computed_two_identities(self):
        # anchors 0,1 share a label, anchor 2 is the lone negative
        f = np.eye(3)
        m = normalize_rows(np.array([[1.0, 0.2, 0.0],
                                     [0.1, 1.0, 0.0],
                                     [0.0, 0.3, 1.0]]))
        view = BatchView(f, m, [0, 0, 1], np.array([0, 1, 0]),
                         build_centroids(m, [0, 0, 1], np.array([0, 1, 0])))
        tau = TAU_INS[0]  # every anchor is multi-camera
        sims = f @ m.T

        def lse(z):
            mx = max(z)
            return mx + np.log(sum(np.exp(x - mx) for x in z))

        expect = 0.0
        for i, pos, neg in ((0, [0, 1], [2]), (1, [0, 1], [2]), (2, [2], [0, 1])):
            per_anchor = 0.0
            for j in pos:
                pool = [sims[i, j] / tau] + [sims[i, k] / tau for k in neg]
                per_anchor -= (sims[i, j] / tau - lse(pool)) / len(pos)
            expect += per_anchor / 3
        loss, _ = term_alone(view, "ins")
        assert loss == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_negatives_stay_within_source(self, seed):
        # an anchor sees only its own source, so a mixed batch's loss is
        # the anchor-weighted mean of its two single-source sub-batches,
        # and each sub-batch's gradient rows scale by its share of anchors
        view = random_view(seed, n_multi=6, n_single=4)
        bank = view.layout.bank  # holds the sub-batches' labels too
        loss, grads = term_alone(view, "ins")
        parts = []
        for rows in (view.multi, ~view.multi):
            sub = BatchView(view.f[rows], view.m[rows], view.labels[rows],
                            view.cameras[rows], bank)
            sub_loss, sub_grads = term_alone(sub, "ins")
            share = sub.size / view.size
            assert np.max(np.abs(grads[rows] - share * sub_grads)) <= 1e-12
            parts.append(share * sub_loss)
        assert abs(loss - sum(parts)) <= 1e-12


class TestDegenerateZeros:
    def test_instance_single_label_no_negatives(self):
        rng = substream(3, "init")
        f = normalize_rows(rng.standard_normal((3, 4)))
        view = BatchView(f, f, [0] * 3, np.array([0, 1, 2]),
                         build_centroids(f, [0] * 3, np.array([0, 1, 2])))
        loss, grads = term_alone(view, "ins")
        assert loss == 0.0
        assert np.allclose(grads, 0.0)

    def test_augmentation_no_negatives(self):
        rng = substream(4, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = BatchView(f, f, [0] * 2, np.array([0, 1]),
                         build_centroids(f, [0] * 2, np.array([0, 1])))
        loss, grads = term_alone(view, "aug")
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_centroids_single_label(self):
        rng = substream(5, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = BatchView(f, f, [0] * 2, np.array([0, 1]),
                         build_centroids(f, [0] * 2, np.array([0, 1])))
        loss, grads = term_alone(view, "cen")
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_camera_centroids_single_camera(self):
        rng = substream(6, "init")
        f = normalize_rows(rng.standard_normal((4, 4)))
        view = BatchView(f, f, [0, 0, 1, 1], np.zeros(4, dtype=int),
                         build_centroids(f, [0, 0, 1, 1], np.zeros(4, dtype=int)))
        loss, grads = term_alone(view, "cc")
        assert loss == 0.0 and np.allclose(grads, 0.0)


class TestGradients:
    """dL/df against central differences, loss by loss."""

    def check(self, name):
        view = random_view(7)
        _, grads = term_alone(view, name)

        def scalar(flat):
            v2 = BatchView(flat.reshape(view.f.shape), view.m, view.labels,
                           view.cameras, view.layout.bank)
            return term_alone(v2, name)[0]

        fd = finite_diff_grad(scalar, view.f.reshape(-1)).reshape(view.f.shape)
        assert np.allclose(grads, fd, atol=1e-7)

    def test_instance(self):
        self.check("ins")

    def test_augmentation(self):
        self.check("aug")

    def test_centroids(self):
        self.check("cen")

    def test_camera_centroids(self):
        self.check("cc")


class TestCentroidsLoss:
    def test_unresolved_label(self):
        # the batch's labels are 0-3: the layout, built once per epoch,
        # names the one the bank lacks
        view = random_view(8)
        bank = dataclasses.replace(
            view.layout.bank,
            label_centroids=view.layout.bank.label_centroids[:-1])
        with pytest.raises(UnresolvedLabelError,
                           match="no centroid for label 3"):
            LossLayout(view.layout.labels, view.layout.cameras, bank)
        # in an epoch, a label only a later batch draws
        with pytest.raises(UnresolvedLabelError,
                           match="no centroid for label 3"):
            LossLayout([[0, 0], [3, 3]], [[0, 1], [0, 1]], bank)

    def test_pool_is_batch_labels_only(self):
        view = random_view(9)
        bank = view.layout.bank
        # a centroid for a label absent from the batch must not matter
        loss_a, _ = term_alone(view, "cen")
        wide = dataclasses.replace(bank, label_centroids=np.vstack(
            [bank.label_centroids, np.ones(5) / np.sqrt(5)]))
        layout = LossLayout(view.layout.labels, view.layout.cameras, wide)
        loss_b, _ = term_alone(layout.view(0, view.f, view.m), "cen")
        assert loss_a == loss_b


class TestTotalLoss:
    def test_linearity(self):
        view = random_view(11)
        loss, grads, parts = total_loss(view)
        expect = (parts["ins"] + parts["aug"] + parts["cen"]
                  + GAMMA * parts["cc"])
        assert abs(loss - expect) <= 1e-12

        g = (term_alone(view, "ins")[1] + term_alone(view, "aug")[1]
             + term_alone(view, "cen")[1] + GAMMA * term_alone(view, "cc")[1])
        assert np.max(np.abs(grads - g)) <= 1e-12

    def test_constants_keep_the_config_defaults_they_replaced(self):
        assert (TAU_INS, TAU_AUG, TAU_CEN, TAU_CC, GAMMA) \
            == ((0.1, 0.2), 0.1, (0.5, 0.6), 0.07, 0.5)

    def test_terms_are_the_objective_in_order(self):
        assert [(name, weight) for name, (weight, _) in TERMS.items()] \
            == [("ins", 1.0), ("aug", 1.0), ("cen", 1.0), ("cc", GAMMA)]

    @pytest.mark.parametrize("n", [3, 5])
    def test_weights_are_one_per_term(self, n):
        view = random_view(11)
        with pytest.raises(DimensionMismatchError, match=f"{n} weights"):
            total_loss(view, np.ones(n))


class TestOnePass:
    """total_loss runs the kernel once, over the four blocks side by side,
    and that pass is the weighted sum of the terms alone, each by the
    loops, at any non-negative weights."""

    def test_total_loss_runs_one_kernel_pass(self, monkeypatch):
        passes = []

        def counted(*args, _real=losses._contrastive):
            passes.append(args[3].blocks)
            return _real(*args)

        monkeypatch.setattr(losses, "_contrastive", counted)
        view = random_view(12)
        for n in (1, 2):
            total_loss(view)
            assert passes == [(0, 1, 2, 3)] * n

    @pytest.mark.parametrize("shape", list(EPOCH_SHAPES))
    def test_pass_is_the_weighted_sum_of_the_terms_alone(self, shape):
        # the first, a middle and the last batch of the epoch, at TERMS'
        # weights, each one-hot vector and a random non-negative one
        draws, bank = drawn_epoch(shape, 4)
        layout = LossLayout(draws.labels, draws.cameras, bank)
        rng = substream(5, "gradcheck")
        iters, b = draws.labels.shape
        u = np.finfo(np.float64).eps / 2
        arms = [[weight for weight, _ in TERMS.values()],
                *np.eye(len(TERMS)), rng.uniform(0.0, 2.0, len(TERMS))]
        for it in (0, iters // 2, iters - 1):
            f = normalize_rows(rng.standard_normal((b, 6)))
            m = normalize_rows(rng.standard_normal((b, 6)))
            view = layout.view(it, f, m)
            wants = reference_terms(view)
            for want, name in zip(wants, TERMS):
                part = total_loss(view)[2][name]
                assert abs(part - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
            # each term's bound of test_terms_match_the_loops, weighted
            bounds = [32 * u / TERM_TAUS[name](view.multi) * np.maximum(
                1.0, np.max(np.abs(g), axis=1)) for name, (_, g)
                in zip(TERMS, wants)]
            for weights in arms:
                loss, grads, parts = total_loss(view, weights)
                assert parts == total_loss(view)[2]
                want_loss = sum(w * want for w, (want, _) in zip(weights, wants))
                assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
                want_grads = sum(w * g for w, (_, g) in zip(weights, wants))
                bound = sum(w * x for w, x in zip(weights, bounds))
                assert np.all(np.max(np.abs(grads - want_grads), axis=1)
                              <= bound)


# the loss each term of TERMS calls
LOSS_OF = {"ins": "instance_loss", "aug": "augmentation_loss",
           "cen": "centroids_loss", "cc": "camera_centroids_loss"}


class TestTermCalls:
    """Every term is computed through its loss, looked up in `losses` when
    it runs, so a wrapper patched onto the module sees every call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        for fn_name in LOSS_OF.values():
            def counted(*args, _real=getattr(losses, fn_name), _name=fn_name):
                seen.append(_name)
                return _real(*args)
            monkeypatch.setattr(losses, fn_name, counted)
        return seen

    def test_total_loss_calls_each_loss_once_in_terms_order(self, calls):
        view = random_view(12)
        for n in (1, 2):
            total_loss(view)
            assert calls == [LOSS_OF[name] for name in TERMS] * n

    def test_gradcheck_calls_one_loss_per_term_evaluation(self, calls,
                                                          monkeypatch):
        # per batch, one pass at each of two central differences per
        # parameter and one at each term's one-hot weights; every pass runs
        # the four losses in TERMS order
        passes = []

        def counted(*args, _real=gradcheck.total_loss):
            passes.append(args)
            return _real(*args)

        monkeypatch.setattr(gradcheck, "total_loss", counted)
        n_batches = 2
        errors = max_relative_errors(seed=0, n_batches=n_batches)
        assert list(errors) == list(TERMS)
        n_params = enc.init_params(gradcheck.FEAT_DIM, [gradcheck.HIDDEN],
                                   gradcheck.EMB_DIM,
                                   substream(0, "init")).flat.size
        assert len(passes) == n_batches * (2 * n_params + len(TERMS))
        assert calls == [LOSS_OF[name] for name in TERMS] * len(passes)


def test_time_loss_script():
    # the timing script of the pass: one epoch at each setting, one repeat
    script = Path(__file__).resolve().parents[1] / "scripts" / "time_loss.py"
    env = dict(os.environ, PYTHONPATH=str(Path(remix.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script), "--reps", "1"],
                         env=env, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    assert (doc["seed"], doc["reps"]) == (0, 1)
    for setting, batch in (("joint", 64), ("labeled_only", 32)):
        assert (doc[setting]["batch"], doc[setting]["iters"]) == (batch, 50)
        assert doc[setting]["total_loss_us"] > 0
        assert doc[setting]["layout_ms"] > 0
        assert 0 < doc[setting]["layout_retained_bytes"] \
            <= doc[setting]["layout_peak_bytes"]

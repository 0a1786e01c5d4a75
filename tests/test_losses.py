import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_augmentation_loss,
    reference_camera_centroids_loss,
    reference_centroids_loss,
    reference_contrastive,
    reference_instance_loss,
)
from remix.errors import (
    DimensionMismatchError,
    EmptyLabelError,
    UnresolvedLabelError,
)
from remix.losses import (
    BatchView,
    _contrastive,
    augmentation_loss,
    build_centroids,
    camera_centroids_loss,
    centroids_loss,
    instance_loss,
    total_loss,
)
from remix.numcore import finite_diff_grad, normalize_rows, substream

TAUS = dict(tau_ins_m=0.1, tau_ins_s=0.2, tau_aug=0.1,
            tau_cen_m=0.5, tau_cen_s=0.6, tau_cc=0.07, gamma=0.5)


def random_view(seed=0, n_multi=6, n_single=6, dim=5, n_labels=2, n_cams=3):
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
    return BatchView(f, m, labels, np.arange(b) < n_multi, cameras)


def bank_for(view, seed=10):
    rng = substream(seed, "gradcheck")
    m = normalize_rows(rng.standard_normal(view.m.shape))
    return build_centroids(m, view.labels, view.cameras)


def multi_view(f, m, labels, cameras):
    """A view of multi-camera samples only."""
    return BatchView(f, m, labels, np.ones(len(labels), dtype=bool), cameras)


class TestBatchView:
    def test_single_before_multi_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [1, 0], [False, True], np.array([-1, 0]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multi_view(np.eye(2), np.eye(3), [0, 0], np.zeros(2))

    def test_label_in_both_sources_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [0, 0], [True, False], np.array([0, -1]))

    def test_codes_number_distinct_labels(self):
        f = np.eye(4)
        v = BatchView(f, f, [5, 2, 5, 9], [True, True, True, False],
                      [0, 1, 2, -1])
        assert v.batch_labels.tolist() == [2, 5, 9]
        assert v.codes.tolist() == [1, 0, 1, 2]

    def test_counts(self):
        v = random_view(n_multi=4, n_single=2)
        assert v.size == 6


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
        assert build_centroids(m, [0, 0, 1, 2]).camera_present.size == 0

    def test_empty_embeddings_rejected(self):
        with pytest.raises(EmptyLabelError):
            build_centroids(np.zeros((0, 3)), [], None)
        with pytest.raises(EmptyLabelError):  # label 1 has no member
            build_centroids(np.eye(3)[:2], [0, 2], None)


def oracle_pairs(view, bank, tau_scale=1.0):
    """(kernel, loop) results for every loss variant at scaled taus."""
    t = {k: v * tau_scale for k, v in TAUS.items() if k != "gamma"}
    return [
        (instance_loss(view, t["tau_ins_m"], t["tau_ins_s"]),
         reference_instance_loss(view, t["tau_ins_m"], t["tau_ins_s"])),
        (instance_loss(view, t["tau_ins_m"], t["tau_ins_s"], True),
         reference_instance_loss(view, t["tau_ins_m"], t["tau_ins_s"], True)),
        (augmentation_loss(view, t["tau_aug"]),
         reference_augmentation_loss(view, t["tau_aug"])),
        (centroids_loss(view, bank, t["tau_cen_m"], t["tau_cen_s"]),
         reference_centroids_loss(view, bank, t["tau_cen_m"], t["tau_cen_s"])),
        (camera_centroids_loss(view, bank, t["tau_cc"]),
         reference_camera_centroids_loss(view, bank, t["tau_cc"])),
    ]


def bank_with_absent_label(view, seed=10):
    """Bank over the batch's labels plus a multi label the batch lacks."""
    rng = substream(seed, "gradcheck")
    absent = int(view.labels.max()) + 1
    labels = np.concatenate([view.labels, [absent] * 3])
    cams = np.concatenate([view.cameras, [0, 1, 2]])
    m = normalize_rows(rng.standard_normal((len(labels), view.m.shape[1])))
    return build_centroids(m, labels, cams)


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
            view = random_view(seed, **shape)
            bank = bank_with_absent_label(view, seed + 100)
            with np.errstate(invalid="raise", over="raise"):
                pairs = oracle_pairs(view, bank)
            for (loss, grads), (want, want_grads) in pairs:
                assert abs(loss - want) <= 1e-12
                assert np.max(np.abs(grads - want_grads)) <= 1e-12

    def test_large_magnitudes(self):
        # tau = 1e-4 puts logits near 1e4: the max shift keeps every loss
        # and gradient finite and equal to the loops
        view = random_view(13)
        bank = bank_for(view)
        with np.errstate(invalid="raise", over="raise"):
            pairs = oracle_pairs(view, bank, tau_scale=1e-4 / TAUS["tau_cc"])
        for (loss, grads), (want, want_grads) in pairs:
            assert np.isfinite(loss) and np.all(np.isfinite(grads))
            assert loss == pytest.approx(want, rel=1e-12)
            assert np.allclose(grads, want_grads, rtol=1e-12, atol=0.0)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_random_masks(self, data):
        # independent masks give rows with an empty rest, rows with no
        # positive, and positives inside the rest (always so with a shared
        # pool); temperatures reach 1e-4, i.e. logits near 1e4
        b, p = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        pos = np.array(data.draw(st.lists(st.booleans(), min_size=b * p,
                                          max_size=b * p))).reshape(b, p)
        neg = np.array(data.draw(st.lists(st.booleans(), min_size=b * p,
                                          max_size=b * p))).reshape(b, p)
        tau = np.array(data.draw(st.lists(
            st.sampled_from([1e-4, 1e-3, 0.07, 0.5, 1.0]),
            min_size=b, max_size=b)))
        shared = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        f = normalize_rows(rng.standard_normal((b, 4)))
        proxies = normalize_rows(rng.standard_normal((p, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                loss, grads = _contrastive(f, proxies, pos, neg, tau, shared)
        want, want_grads = reference_contrastive(f, proxies, pos, neg, tau,
                                                 shared)
        assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))
        assert np.max(np.abs(grads - want_grads)) <= \
            1e-12 * max(1.0, np.max(np.abs(want_grads)))

    def test_pool_rules(self):
        # one anchor label, two positives of equal similarity, no negatives:
        # instance scores each positive against itself alone (loss 0), the
        # camera term against both positives (loss ln 2)
        f = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        view = multi_view(f, m, [0, 0], np.array([0, 0]))
        bank = build_centroids(m, [0, 0], np.array([1, 2]))
        assert instance_loss(view, 0.1, 0.2)[0] == 0.0
        assert camera_centroids_loss(view, bank, 0.07)[0] == \
            pytest.approx(np.log(2.0), abs=1e-15)


class TestInstanceLossOracle:
    def test_hand_computed_two_identities(self):
        # anchors 0,1 share a label, anchor 2 is the lone negative
        f = np.eye(3)
        m = normalize_rows(np.array([[1.0, 0.2, 0.0],
                                     [0.1, 1.0, 0.0],
                                     [0.0, 0.3, 1.0]]))
        view = multi_view(f, m, [0, 0, 1], np.array([0, 1, 0]))
        tau = 0.1
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
        loss, _ = instance_loss(view, tau, 0.2)
        assert loss == pytest.approx(expect, abs=1e-12)

    def test_negatives_stay_within_source_by_default(self):
        view = random_view(2)
        # same-label singles are invisible to multi anchors unless the
        # cross-source toggle is on, so the losses must differ
        l_within, _ = instance_loss(view, 0.1, 0.2, cross_source_negatives=False)
        l_cross, _ = instance_loss(view, 0.1, 0.2, cross_source_negatives=True)
        assert l_within != pytest.approx(l_cross)


class TestDegenerateZeros:
    def test_instance_single_label_no_negatives(self):
        rng = substream(3, "init")
        f = normalize_rows(rng.standard_normal((3, 4)))
        view = multi_view(f, f, [0] * 3, np.array([0, 1, 2]))
        loss, grads = instance_loss(view, 0.1, 0.2)
        assert loss == 0.0
        assert np.allclose(grads, 0.0)

    def test_augmentation_no_negatives(self):
        rng = substream(4, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = multi_view(f, f, [0] * 2, np.array([0, 1]))
        loss, grads = augmentation_loss(view, 0.1)
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_centroids_single_label(self):
        rng = substream(5, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = multi_view(f, f, [0] * 2, np.array([0, 1]))
        bank = build_centroids(f, view.labels, view.cameras)
        loss, grads = centroids_loss(view, bank, 0.5, 0.6)
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_camera_centroids_single_camera(self):
        rng = substream(6, "init")
        f = normalize_rows(rng.standard_normal((4, 4)))
        view = multi_view(f, f, [0, 0, 1, 1], np.zeros(4, dtype=int))
        bank = build_centroids(f, view.labels, view.cameras)
        loss, grads = camera_centroids_loss(view, bank, 0.07)
        assert loss == 0.0 and np.allclose(grads, 0.0)


class TestGradients:
    """dL/df against central differences, loss by loss."""

    def check(self, fn):
        view = random_view(7)
        bank = bank_for(view)
        _, grads = fn(view, bank)

        def scalar(flat):
            v2 = BatchView(flat.reshape(view.f.shape), view.m, view.labels,
                           view.multi, view.cameras)
            return fn(v2, bank)[0]

        fd = finite_diff_grad(scalar, view.f.reshape(-1)).reshape(view.f.shape)
        assert np.allclose(grads, fd, atol=1e-7)

    def test_instance(self):
        self.check(lambda v, b: instance_loss(v, 0.1, 0.2))

    def test_instance_cross_source(self):
        self.check(lambda v, b: instance_loss(v, 0.1, 0.2, True))

    def test_augmentation(self):
        self.check(lambda v, b: augmentation_loss(v, 0.1))

    def test_centroids(self):
        self.check(lambda v, b: centroids_loss(v, b, 0.5, 0.6))

    def test_camera_centroids(self):
        self.check(lambda v, b: camera_centroids_loss(v, b, 0.07))


class TestCentroidsLoss:
    def test_unresolved_label(self):
        view = random_view(8)
        bank = bank_for(view)
        bank.label_centroids = bank.label_centroids[:-1]  # drop the last label
        with pytest.raises(UnresolvedLabelError):
            centroids_loss(view, bank, 0.5, 0.6)

    def test_pool_is_batch_labels_only(self):
        view = random_view(9)
        bank = bank_for(view)
        # a centroid for a label absent from the batch must not matter
        loss_a, _ = centroids_loss(view, bank, 0.5, 0.6)
        bank.label_centroids = np.vstack([bank.label_centroids,
                                          np.ones(5) / np.sqrt(5)])
        loss_b, _ = centroids_loss(view, bank, 0.5, 0.6)
        assert loss_a == loss_b


class TestTotalLoss:
    def test_linearity(self):
        view = random_view(11)
        bank = bank_for(view)
        loss, grads, parts = total_loss(view, bank, **TAUS)
        expect = parts["ins"] + parts["aug"] + parts["cen"] + 0.5 * parts["cc"]
        assert abs(loss - expect) <= 1e-12

        g = (instance_loss(view, 0.1, 0.2)[1]
             + augmentation_loss(view, 0.1)[1]
             + centroids_loss(view, bank, 0.5, 0.6)[1]
             + 0.5 * camera_centroids_loss(view, bank, 0.07)[1])
        assert np.max(np.abs(grads - g)) <= 1e-12

    def test_gamma_zero_skips_camera_term(self):
        view = random_view(12)
        bank = bank_for(view)
        args = dict(TAUS)
        args["gamma"] = 0.0
        loss, _, parts = total_loss(view, bank, **args)
        assert parts["cc"] == 0.0
        assert loss == pytest.approx(parts["ins"] + parts["aug"] + parts["cen"])

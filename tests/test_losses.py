import tracemalloc
import warnings

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
)
from remix.errors import (
    DimensionMismatchError,
    EmptyLabelError,
    UnresolvedLabelError,
)
from remix import losses
from remix.gradcheck import max_relative_errors
from remix.losses import (
    GAMMA,
    TAU_AUG,
    TAU_CC,
    TAU_CEN,
    TAU_INS,
    TERMS,
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

TAUS = dict(tau_ins_m=TAU_INS[0], tau_ins_s=TAU_INS[1], tau_aug=TAU_AUG,
            tau_cen_m=TAU_CEN[0], tau_cen_s=TAU_CEN[1], tau_cc=TAU_CC)


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
    return BatchView(f, m, labels, cameras)


def bank_for(view, seed=10):
    rng = substream(seed, "gradcheck")
    m = normalize_rows(rng.standard_normal(view.m.shape))
    return build_centroids(m, view.labels, view.cameras)


class TestBatchView:
    def test_single_before_multi_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [1, 0], np.array([-1, 0]))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BatchView(np.eye(2), np.eye(3), [0, 0], np.zeros(2))

    def test_label_in_both_sources_rejected(self):
        f = np.eye(2)
        with pytest.raises(DimensionMismatchError):
            BatchView(f, f, [0, 0], np.array([0, -1]))

    def test_negative_label_rejected(self):
        # a label of -1 would index the last column of the per-source
        # table, and its anchor would fall out of the batch's labels
        f = np.eye(3)
        with pytest.raises(UnresolvedLabelError, match="-1"):
            BatchView(f, f, [0, 0, -1], [0, 1, 2])

    def test_camera_below_minus_one_rejected(self):
        f = np.eye(3)
        with pytest.raises(DimensionMismatchError, match="-2"):
            BatchView(f, f, [0, 0, 1], [0, 1, -2])

    def test_codes_number_distinct_labels(self):
        f = np.eye(4)
        v = BatchView(f, f, [5, 2, 5, 9], [0, 1, 2, -1])
        assert v.batch_labels.tolist() == [2, 5, 9]

    def test_source_is_read_from_the_camera(self):
        f = np.eye(4)
        v = BatchView(f, f, [0, 0, 1, 2], [2, 0, -1, -1])
        assert v.multi.tolist() == [True, True, False, False]
        with pytest.raises(TypeError):  # the source is not an argument
            BatchView(f, f, [0, 0, 1, 2], v.multi, [2, 0, -1, -1])

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


def oracle_pairs(view, bank, tau_scale=1.0):
    """(kernel, loop) results for every loss variant at scaled taus."""
    t = {k: v * tau_scale for k, v in TAUS.items()}
    return [
        (instance_loss(view, t["tau_ins_m"], t["tau_ins_s"]),
         reference_instance_loss(view, t["tau_ins_m"], t["tau_ins_s"])),
        (augmentation_loss(view, t["tau_aug"]),
         reference_augmentation_loss(view, t["tau_aug"])),
        (centroids_loss(view, bank, t["tau_cen_m"], t["tau_cen_s"]),
         reference_centroids_loss(view, bank, t["tau_cen_m"], t["tau_cen_s"])),
        (camera_centroids_loss(view, bank, t["tau_cc"]),
         reference_camera_centroids_loss(view, bank, t["tau_cc"])),
    ]


def assert_matches_loops(view, bank):
    """Each loss and gradient within 1e-12 of the loops, at the module's
    temperatures, with no overflow or invalid value on the way."""
    with np.errstate(invalid="raise", over="raise"):
        pairs = oracle_pairs(view, bank)
    for (loss, grads), (want, want_grads) in pairs:
        assert abs(loss - want) <= 1e-12
        assert np.max(np.abs(grads - want_grads)) <= 1e-12


def bank_with_absent_label(view, seed=10):
    """Bank over the batch's labels plus a multi label the batch lacks."""
    rng = substream(seed, "gradcheck")
    absent = int(view.labels.max()) + 1
    labels = np.concatenate([view.labels, [absent] * 3])
    cams = np.concatenate([view.cameras, [0, 1, 2]])
    m = normalize_rows(rng.standard_normal((len(labels), view.m.shape[1])))
    return build_centroids(m, labels, cams)


def batch_shaped_view(seed, n_pseudo, dim=16):
    """A batch at the trainer's default shape, with its bank: 8 of 20
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
    return (BatchView(f, m, labels, cameras),
            build_centroids(embs, bank_labels, bank_cams))


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
            view = random_view(seed, **shape)
            assert_matches_loops(view, bank_with_absent_label(view, seed + 100))

    @pytest.mark.parametrize("n_pseudo", [8, 0], ids=["joint", "labeled_only"])
    def test_batch_shape(self, n_pseudo):
        # 64 rows (32 with labels only) against banks of 50 (20) labels: the
        # shapes the trainer runs, beside the 12-row views above
        for seed in range(5):
            view, bank = batch_shaped_view(seed, n_pseudo)
            assert view.size == 32 + 4 * n_pseudo
            assert len(bank.label_centroids) > len(view.batch_labels)
            assert_matches_loops(view, bank)

    def test_peak_stays_below_three_matrices(self):
        # beside its inputs, one call at (256, 256) holds two float
        # matrices at a time: the logits and either the masked logits of
        # the negatives' max or the one buffer that takes exp and then the
        # gradient
        rng = substream(0, "gradcheck")
        b = p = 256
        f = normalize_rows(rng.standard_normal((b, 16)))
        proxies = normalize_rows(rng.standard_normal((p, 16)))
        labels = np.arange(b) // 4
        pos = labels[:, None] == labels[None, :]
        args = (f, proxies, pos, ~pos, np.full(b, 0.1))
        _contrastive(*args)
        tracemalloc.start()
        try:
            _contrastive(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * b * p * 8

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
                loss, grads = _contrastive(f, proxies, pos,
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

    def test_pool_rules(self):
        # one anchor label, two positives of equal similarity, no negatives:
        # instance scores each positive against itself alone (loss 0), the
        # camera term against both positives (loss ln 2)
        f = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        view = BatchView(f, m, [0, 0], np.array([0, 0]))
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
        view = BatchView(f, m, [0, 0, 1], np.array([0, 1, 0]))
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

    @pytest.mark.parametrize("seed", range(5))
    def test_negatives_stay_within_source(self, seed):
        # an anchor sees only its own source, so a mixed batch's loss is
        # the anchor-weighted mean of its two single-source sub-batches,
        # and each sub-batch's gradient rows scale by its share of anchors
        view = random_view(seed, n_multi=6, n_single=4)
        loss, grads = instance_loss(view, 0.1, 0.2)
        parts = []
        for rows in (view.multi, ~view.multi):
            sub = BatchView(view.f[rows], view.m[rows], view.labels[rows],
                            view.cameras[rows])
            sub_loss, sub_grads = instance_loss(sub, 0.1, 0.2)
            share = sub.size / view.size
            assert np.max(np.abs(grads[rows] - share * sub_grads)) <= 1e-12
            parts.append(share * sub_loss)
        assert abs(loss - sum(parts)) <= 1e-12


class TestDegenerateZeros:
    def test_instance_single_label_no_negatives(self):
        rng = substream(3, "init")
        f = normalize_rows(rng.standard_normal((3, 4)))
        view = BatchView(f, f, [0] * 3, np.array([0, 1, 2]))
        loss, grads = instance_loss(view, 0.1, 0.2)
        assert loss == 0.0
        assert np.allclose(grads, 0.0)

    def test_augmentation_no_negatives(self):
        rng = substream(4, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = BatchView(f, f, [0] * 2, np.array([0, 1]))
        loss, grads = augmentation_loss(view, 0.1)
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_centroids_single_label(self):
        rng = substream(5, "init")
        f = normalize_rows(rng.standard_normal((2, 4)))
        view = BatchView(f, f, [0] * 2, np.array([0, 1]))
        bank = build_centroids(f, view.labels, view.cameras)
        loss, grads = centroids_loss(view, bank, 0.5, 0.6)
        assert loss == 0.0 and np.allclose(grads, 0.0)

    def test_camera_centroids_single_camera(self):
        rng = substream(6, "init")
        f = normalize_rows(rng.standard_normal((4, 4)))
        view = BatchView(f, f, [0, 0, 1, 1], np.zeros(4, dtype=int))
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
                           view.cameras)
            return fn(v2, bank)[0]

        fd = finite_diff_grad(scalar, view.f.reshape(-1)).reshape(view.f.shape)
        assert np.allclose(grads, fd, atol=1e-7)

    def test_instance(self):
        self.check(lambda v, b: instance_loss(v, 0.1, 0.2))

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
        loss, grads, parts = total_loss(view, bank)
        expect = (parts["ins"] + parts["aug"] + parts["cen"]
                  + GAMMA * parts["cc"])
        assert abs(loss - expect) <= 1e-12

        g = (instance_loss(view, *TAU_INS)[1]
             + augmentation_loss(view, TAU_AUG)[1]
             + centroids_loss(view, bank, *TAU_CEN)[1]
             + GAMMA * camera_centroids_loss(view, bank, TAU_CC)[1])
        assert np.max(np.abs(grads - g)) <= 1e-12

    def test_constants_keep_the_config_defaults_they_replaced(self):
        assert (TAU_INS, TAU_AUG, TAU_CEN, TAU_CC, GAMMA) \
            == ((0.1, 0.2), 0.1, (0.5, 0.6), 0.07, 0.5)

    def test_terms_are_the_objective_in_order(self):
        assert [(name, weight) for name, (weight, _) in TERMS.items()] \
            == [("ins", 1.0), ("aug", 1.0), ("cen", 1.0), ("cc", GAMMA)]


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
        bank = bank_for(view)
        for n in (1, 2):
            total_loss(view, bank)
            assert calls == [LOSS_OF[name] for name in TERMS] * n

    def test_gradcheck_calls_one_loss_per_term_evaluation(self, calls,
                                                          monkeypatch):
        evaluated = []
        for name, (weight, term) in list(TERMS.items()):
            def counted(view, bank, _term=term, _name=name):
                evaluated.append(_name)
                return _term(view, bank)
            monkeypatch.setitem(TERMS, name, (weight, counted))
        errors = max_relative_errors(seed=0, n_batches=1)
        assert list(errors) == list(TERMS)
        assert calls == [LOSS_OF[name] for name in evaluated]
        # term by term in TERMS order, each evaluated as often
        n = len(evaluated) // len(TERMS)
        assert n > 1 and evaluated == [name for name in TERMS
                                       for _ in range(n)]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remix import encoder as enc
from remix import pseudolabel
from remix.datamodel import (
    SINGLE,
    GeneratorConfig,
    PersonSample,
    SingleCamCorpus,
    synth_generate,
)
from remix.errors import BudgetUnreachableError
from remix.numcore import normalize_rows, substream
from remix.pseudolabel import (
    NOISE,
    dbscan,
    default_budget,
    pseudo_label_epoch,
)


from oracles import reference_dbscan


def random_points(rng, n, dim=4):
    return normalize_rows(rng.standard_normal((n, dim)))


def clumps_on_arcs(rng, n):
    """(points, eps): n unit points in clumps of 1-6 along arcs of great
    circles in orthogonal planes. Within a clump, points are a fifth of the
    eps angle apart. The gap after a clump either joins it to the next one,
    keeps them apart, or holds one point just within eps of the last point
    of this clump and the first of the next."""
    eps = float(rng.uniform(0.05, 0.3))
    theta = np.arccos(1.0 - eps)
    angles, planes = [], []
    a, plane = 0.0, 0
    while len(angles) < n:
        for _ in range(int(rng.integers(1, 7))):
            angles.append(a)
            planes.append(plane)
            a += theta / 5
        a -= theta / 5
        gap = int(rng.integers(3))
        if gap == 2:
            angles.append(a + 0.9 * theta)
            planes.append(plane)
            a += 1.8 * theta
        else:
            a += (0.8, 2.5)[gap] * theta
        if a > np.pi - 2 * theta:  # keep each arc within half a circle
            a, plane = 0.0, plane + 1
    angles, planes = np.array(angles[:n]), np.array(planes[:n])
    pts = np.zeros((n, 2 * planes.max() + 2))
    pts[np.arange(n), 2 * planes] = np.cos(angles)
    pts[np.arange(n), 2 * planes + 1] = np.sin(angles)
    return pts[rng.permutation(n)], eps


class TestDbscan:
    def test_matches_reference_randomized(self):
        rng = substream(0, "gradcheck")
        for _ in range(100):
            n = int(rng.integers(1, 40))
            pts = random_points(rng, n)
            eps = float(rng.uniform(0.05, 1.5))
            min_pts = int(rng.integers(1, 5))
            got = dbscan(pts, eps, min_pts)
            want = reference_dbscan(pts, eps, min_pts)
            assert np.array_equal(got, want), (n, eps, min_pts)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(1, 24),
           st.floats(0.05, 1.5), st.integers(1, 4))
    def test_matches_reference_property(self, seed, n, eps, min_pts):
        pts = random_points(substream(seed, "gradcheck"), n)
        assert np.array_equal(dbscan(pts, eps, min_pts),
                              reference_dbscan(pts, eps, min_pts))

    def test_clumps_with_shared_borders(self):
        # up to 300 points in many components, with border points that
        # touch two clusters and must take the lower-numbered one
        rng = substream(1, "gradcheck")
        shared = 0
        for _ in range(40):
            pts, eps = clumps_on_arcs(rng, int(rng.integers(1, 301)))
            min_pts = int(rng.integers(1, 5))
            want = reference_dbscan(pts, eps, min_pts)
            assert np.array_equal(dbscan(pts, eps, min_pts), want), \
                (len(pts), eps, min_pts)
            neigh = 1.0 - np.clip(pts @ pts.T, -1.0, 1.0) <= eps
            core = neigh.sum(axis=1) >= min_pts
            shared += sum(len(set(want[neigh[i] & core])) > 1
                          for i in np.nonzero(~core)[0])
        assert shared >= 10

    def test_border_takes_lowest_cluster_number(self):
        # two clumps of four on a circle, one point between them in reach
        # of one end of each. In the last order the border's first core
        # neighbour by index is in cluster 1, yet it joins cluster 0.
        theta = np.arccos(1.0 - 0.01)
        a = [0.0, 0.2, 0.4, 0.6]
        b = [2.4, 2.6, 2.8, 3.0]
        for order, want in (
                (a + b, [0, 0, 0, 0, 1, 1, 1, 1]),
                (b + a, [0, 0, 0, 0, 1, 1, 1, 1]),
                (a[:1] + b + a[1:], [0, 1, 1, 1, 1, 0, 0, 0])):
            ang = theta * np.array(order + [1.5])
            pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
            assert np.array_equal(dbscan(pts, 0.01, 4), want + [0])

    def test_empty_input(self):
        labels = dbscan(np.zeros((0, 4)), 0.5, 2)
        assert labels.shape == (0,) and labels.dtype == np.int64

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.8])
    def test_refresh_sized_video(self, eps):
        # one video of 16 identities x 16 frames, embedded by a fresh
        # encoder as at the first epoch
        cfg = GeneratorConfig(n_single_identities=16, n_videos=1,
                              frames_per_identity=16)
        _, corpus, _ = synth_generate(cfg, 0)
        (_, frames), = corpus.videos
        params = enc.init_params(cfg.dim, [64], 16, substream(0, "init"))
        embs, _ = enc.forward_batch(params,
                                    np.stack([s.features for s in frames]))
        assert len(embs) == 256
        assert np.array_equal(dbscan(embs, eps, 4),
                              reference_dbscan(embs, eps, 4))

    def test_tight_cluster_single_label(self):
        pts = np.tile(np.array([1.0, 0.0, 0.0]), (6, 1))
        assert np.array_equal(dbscan(pts, 0.5, 4), np.zeros(6, dtype=int))

    def test_all_noise_when_min_pts_exceeds_n(self):
        pts = random_points(substream(1, "gradcheck"), 3)
        assert np.all(dbscan(pts, 0.5, 4) == NOISE)

    def test_two_separated_clusters(self):
        a = np.tile(np.array([1.0, 0.0]), (4, 1))
        b = np.tile(np.array([-1.0, 0.0]), (4, 1))
        labels = dbscan(np.vstack([a, b]), 0.5, 3)
        assert np.array_equal(labels, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_bad_parameters(self):
        pts = random_points(substream(2, "gradcheck"), 4)
        with pytest.raises(ValueError):
            dbscan(pts, 0.0, 2)
        with pytest.raises(ValueError):
            dbscan(pts, 0.5, 0)


def _corpus(n_videos=4, n_groups=2, frames_per_group=5, dim=6, seed=0):
    """Videos whose frames form tight groups, so clustering is unambiguous."""
    rng = substream(seed, "generator")
    videos = []
    sid = 0
    hid = 0
    for v in range(n_videos):
        frames = []
        for _ in range(n_groups):
            center = rng.standard_normal(dim)
            for _ in range(frames_per_group):
                feat = center + 1e-3 * rng.standard_normal(dim)
                frames.append(PersonSample(sid, feat, None, None, SINGLE, v,
                                           hidden_identity=hid))
                sid += 1
            hid += 1
        videos.append((v, frames))
    return SingleCamCorpus(videos)


def _params(dim=6, seed=0):
    return enc.init_params(dim, [8], 4, substream(seed, "init"))


@pytest.fixture
def dbscan_calls(monkeypatch):
    """Records the point count of every dbscan call pseudo_label_epoch makes."""
    calls = []

    def spy(points, eps, min_pts):
        calls.append(len(points))
        return dbscan(points, eps, min_pts)

    monkeypatch.setattr(pseudolabel, "dbscan", spy)
    return calls


class TestPseudoLabelEpoch:
    def test_budget_and_fresh_labels(self):
        corpus = _corpus()
        pool = pseudo_label_epoch(corpus, _params(), eps=0.3, min_pts=3,
                                  budget=30, rng=substream(0, "videos"))
        assert len(pool.embeddings) >= 30
        assert sorted(pool.entries) == list(range(len(pool.entries)))
        for pl, members in pool.entries.items():
            videos = {s.video_id for s, _ in members}
            assert len(videos) == 1  # clusters never span videos

    def test_arrays_follow_entries(self):
        # label pl's rows of the arrays are its entries' frames, in order
        pool = pseudo_label_epoch(_corpus(), _params(), 0.3, 3, 20,
                                  substream(1, "videos"))
        start = pool.frames.start
        assert start.tolist()[-1] == len(pool.embeddings)
        assert pool.frames.n_labels == len(pool.entries)
        for pl, members in pool.entries.items():
            rows = slice(start[pl], start[pl + 1])
            assert np.array_equal(pool.frames.features[rows],
                                  np.stack([s.features for s, _ in members]))
            assert np.array_equal(pool.embeddings[rows],
                                  np.stack([e for _, e in members]))

    def test_budget_beyond_corpus_labels_each_frame_once(self, dbscan_calls):
        # budget larger than the corpus: one pass, each video clustered
        # once, no frame under two pseudo labels
        corpus = _corpus(n_videos=3, n_groups=2, frames_per_group=4)
        pool = pseudo_label_epoch(corpus, _params(), 0.3, 3, 1000,
                                  substream(2, "videos"))
        ids = [s.sample_id for members in pool.entries.values()
               for s, _ in members]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == [s.sample_id for _, frames in corpus.videos
                               for s in frames]
        assert len(dbscan_calls) == len(corpus.videos)

    def test_budget_is_a_cap(self, dbscan_calls):
        # a budget below one video's yield stops after that video
        corpus = _corpus(n_videos=3, n_groups=2, frames_per_group=4)
        pool = pseudo_label_epoch(corpus, _params(), 0.3, 3, 3,
                                  substream(2, "videos"))
        assert len(dbscan_calls) == 1
        assert len({s.video_id for members in pool.entries.values()
                    for s, _ in members}) == 1
        assert len(pool.embeddings) == 8

    def test_unreachable_budget(self):
        corpus = _corpus(n_videos=2, n_groups=1, frames_per_group=2)
        with pytest.raises(BudgetUnreachableError):
            pseudo_label_epoch(corpus, _params(), 0.3, 10, 5,
                               substream(3, "videos"))

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            pseudo_label_epoch(_corpus(), _params(), 0.3, 3, 0,
                               substream(4, "videos"))

    def test_default_budget(self):
        assert default_budget(32, 50) == 1600

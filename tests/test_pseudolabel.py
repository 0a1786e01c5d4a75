import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remix import encoder as enc
from remix import pseudolabel
from remix.datamodel import SINGLE, PersonSample, SingleCamCorpus
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


class TestDbscan:
    def test_matches_reference_randomized(self):
        rng = substream(0, "gradcheck")
        for _ in range(50):
            n = int(rng.integers(2, 40))
            pts = random_points(rng, n)
            eps = float(rng.uniform(0.2, 1.2))
            min_pts = int(rng.integers(2, 5))
            got = dbscan(pts, eps, min_pts)
            want = reference_dbscan(pts, eps, min_pts)
            assert np.array_equal(got, want), (n, eps, min_pts)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 24),
           st.floats(0.2, 1.2), st.integers(2, 4))
    def test_matches_reference_property(self, seed, n, eps, min_pts):
        pts = random_points(substream(seed, "gradcheck"), n)
        assert np.array_equal(dbscan(pts, eps, min_pts),
                              reference_dbscan(pts, eps, min_pts))

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
        assert pool.n_labeled >= 30
        assert sorted(pool.entries) == list(range(len(pool.entries)))
        for pl, members in pool.entries.items():
            videos = {s.video_id for s, _ in members}
            assert len(videos) == 1  # clusters never span videos

    def test_centroids_are_unit_norm(self):
        pool = pseudo_label_epoch(_corpus(), _params(), 0.3, 3, 20,
                                  substream(1, "videos"))
        for c in pool.centroids.values():
            assert np.linalg.norm(c) == pytest.approx(1.0)

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
        assert pool.n_labeled == 8

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

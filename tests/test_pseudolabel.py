import contextlib
import signal
import tracemalloc

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
from remix.errors import (
    BudgetUnreachableError,
    DimensionMismatchError,
    NonFiniteEvaluationError,
)
from remix.numcore import normalize_rows, substream
from remix.pseudolabel import (
    NOISE,
    dbscan,
    pseudo_label_epoch,
)


from oracles import reference_dbscan, reference_neighbours


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


def chains(rng, n_chains, length, eps):
    """Unit points on n_chains arcs in orthogonal planes, `length` points
    per arc 0.6 of the eps angle apart, in random order: each point reaches
    itself and its neighbours on its arc, and nothing else."""
    theta = 0.6 * np.arccos(1.0 - eps)
    assert theta * (length - 1) < np.pi
    pts = np.zeros((n_chains * length, 2 * n_chains))
    for k in range(n_chains):
        arc = slice(k * length, (k + 1) * length)
        pts[arc, 2 * k] = np.cos(theta * np.arange(length))
        pts[arc, 2 * k + 1] = np.sin(theta * np.arange(length))
    return pts[rng.permutation(len(pts))]


def neighbour_counts(pts, eps):
    return np.count_nonzero(1.0 - np.clip(pts @ pts.T, -1.0, 1.0) <= eps,
                            axis=1)


def passes(s, eps):
    """The neighbour test of one similarity as the distance 1 - clip(s, -1,
    1) <= eps, in numpy float64."""
    return bool(1.0 - np.clip(np.float64(s), -1.0, 1.0) <= eps)


@contextlib.contextmanager
def deadline(seconds=5.0):
    """Fails the block after `seconds` instead of hanging the suite: a
    threshold search that walks one double at a time never ends near eps
    1, where about 2**62 similarities give the same distance. A search by
    bisection takes about a millisecond."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def refresh_video_embeddings():
    """One video of 16 identities x 16 frames, embedded by a fresh encoder
    as at the first epoch of the refresh workload."""
    cfg = GeneratorConfig(n_single_identities=16, n_videos=1,
                          frames_per_identity=16)
    _, corpus, _ = synth_generate(cfg, 0)
    (_, frames), = corpus.videos
    params = enc.init_params(cfg.dim, [64], 16, substream(0, "init"))
    embs, _ = enc.forward_batch(params, np.stack([s.features for s in frames]))
    assert len(embs) == 256
    return embs


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
        embs = refresh_video_embeddings()
        assert np.array_equal(dbscan(embs, eps, 4),
                              reference_dbscan(embs, eps, 4))

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.8])
    def test_core_and_border_at_refresh_size(self, eps):
        # the refresh video jittered on the scale of eps, with min_pts the
        # median neighbour count: about half the points are core, and many
        # of the others are border points
        rng = substream(1, "gradcheck")
        embs = refresh_video_embeddings()
        pts = normalize_rows(
            embs + 0.25 * np.sqrt(eps) * rng.standard_normal(embs.shape))
        counts = neighbour_counts(pts, eps)
        min_pts = int(np.median(counts))
        want = reference_dbscan(pts, eps, min_pts)
        core = counts >= min_pts
        assert core.any() and np.count_nonzero(~core & (want != NOISE)) >= 50
        assert np.array_equal(dbscan(pts, eps, min_pts), want)

    @pytest.mark.parametrize("n_chains", [1, 6])
    def test_every_point_core(self, n_chains):
        # shuffled chains: a label crosses one link per propagation round,
        # so the components take several rounds to settle
        pts = chains(substream(2, "gradcheck"), n_chains, 12, 0.1)
        assert neighbour_counts(pts, 0.1).min() >= 2
        labels = dbscan(pts, 0.1, 2)
        assert labels.max() + 1 == n_chains
        assert np.array_equal(labels, reference_dbscan(pts, 0.1, 2))

    @pytest.mark.parametrize("n_chains, min_pts", [(1, 2), (8, 3)])
    def test_long_shuffled_chains(self, monkeypatch, n_chains, min_pts):
        # 256 shuffled points on chains: a point's lowest neighbour joins it
        # to a short run of its chain, and the chain of runs is contracted
        # and solved again, over at least two contractions. With min_pts 3
        # the two ends of each chain are border points.
        pts = chains(substream(7, "gradcheck"), n_chains, 256 // n_chains,
                     1e-4)
        levels = []
        solve = pseudolabel._components

        def spy(graph):
            levels.append(len(graph))
            return solve(graph)

        monkeypatch.setattr(pseudolabel, "_components", spy)
        labels = dbscan(pts, 1e-4, min_pts)
        assert len(levels) >= 3 and levels[-1] == n_chains
        border = neighbour_counts(pts, 1e-4) < min_pts
        assert np.count_nonzero(border) == (min_pts - 2) * 2 * n_chains
        assert labels.max() + 1 == n_chains and np.all(labels != NOISE)
        assert np.array_equal(labels, reference_dbscan(pts, 1e-4, min_pts))

    def test_every_point_core_needs_no_copy_of_the_graph(self, monkeypatch):
        # dbscan peaks while it builds the neighbour mask: the (n, n) float
        # similarities, the (n, n) boolean mask and the band mask of the
        # pairs just below the threshold, which makes the mask symmetric
        # without a transposed copy: about 10.0 * n * n bytes. A band built
        # out of place reads 12.0 * n * n, and a second float matrix fails
        # the bound by far. The similarities are freed before the components
        # run, so what dbscan takes after the mask is bounded on its own:
        # packed rows and their bit counts, about 0.4 * n * n bytes, where
        # a core-core copy of the graph would add n * n more.
        n = 512
        pts = random_points(substream(3, "gradcheck"), n, dim=8)
        assert neighbour_counts(pts, 0.5).min() >= 1
        marks = []  # (held, peak) as the mask is returned

        def mark(*args, real=pseudolabel._neighbours):
            neigh = real(*args)
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return neigh

        monkeypatch.setattr(pseudolabel, "_neighbours", mark)
        dbscan(pts, 0.5, 1)
        tracemalloc.start()
        try:
            dbscan(pts, 0.5, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held, mask_peak = marks[-1]
        assert max(mask_peak, peak) < (8 + 2.5) * n * n
        assert peak - held < 1.0 * n * n

    def test_points_off_the_unit_sphere(self):
        # the reference is defined for any vectors: a short one can be core
        # through its neighbours while too far from itself to count
        rng = substream(5, "gradcheck")
        self_less = 0
        for _ in range(60):
            n = int(rng.integers(2, 40))
            pts = random_points(rng, n) * rng.uniform(0.3, 1.0, (n, 1))
            eps = float(rng.uniform(0.3, 1.2))
            min_pts = int(rng.integers(1, 4))
            want = reference_dbscan(pts, eps, min_pts)
            assert np.array_equal(dbscan(pts, eps, min_pts), want)
            core = neighbour_counts(pts, eps) >= min_pts
            reaches_self = 1.0 - (pts * pts).sum(axis=1) <= eps
            self_less += np.count_nonzero(core & ~reaches_self)
        assert self_less >= 10

    def test_no_core_point(self):
        # twenty pairs: each point reaches itself and its twin, one short
        # of min_pts, so nothing is core and every point is noise
        pts = chains(substream(4, "gradcheck"), 20, 2, 0.1)
        assert neighbour_counts(pts, 0.1).tolist() == [2] * 40
        assert np.all(dbscan(pts, 0.1, 3) == NOISE)
        assert np.array_equal(dbscan(pts, 0.1, 3),
                              reference_dbscan(pts, 0.1, 3))

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

    def test_pair_at_exactly_eps(self):
        # the first two points are exactly 0.5 apart both ways: neighbours
        # at eps 0.5 (the boundary is inclusive), not one ulp below it
        pts = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)], [-1.0, 0.0]])
        for eps, want in ((0.5, [0, 0, NOISE]),
                          (np.nextafter(0.5, 0.0), [NOISE] * 3)):
            assert np.array_equal(dbscan(pts, eps, 2), want)
            assert np.array_equal(reference_dbscan(pts, eps, 2), want)

    def test_pair_rounded_apart_across_the_diagonal(self):
        # the product as dbscan forms it can round one pair's similarity
        # differently above and below the diagonal. With eps between the
        # two distances the pair must be no neighbour either way, whichever
        # side holds the nearer one. Each input plants one close pair
        # i < j, and every other pair is farther apart. With OpenBLAS at one
        # thread 10 of the 200 pairs round apart; with a BLAS whose product
        # is exactly symmetric, this checks the boundary only.
        rng = substream(11, "gradcheck")
        for _ in range(200):
            n = int(rng.integers(8, 65))
            pts = random_points(rng, n, dim=16)
            i, j = np.sort(rng.choice(n, 2, replace=False))
            pts[j] = normalize_rows(pts[i] + 0.01 * rng.standard_normal(16))
            d = 1.0 - np.clip(pts @ pts.T.copy(), -1.0, 1.0)
            far = np.partition((d + 2.0 * np.eye(n)).ravel(), 2)[2]
            assert far > max(d[i, j], d[j, i])
            for eps in (min(d[i, j], d[j, i]), max(d[i, j], d[j, i])):
                near = max(d[i, j], d[j, i]) <= eps
                want = np.arange(n)
                if near:
                    want[j:] -= 1
                    want[j] = i
                assert np.array_equal(dbscan(pts, eps, 1), want)
                pair = np.full(n, NOISE)
                pair[[i, j]] = 0 if near else NOISE
                assert np.array_equal(dbscan(pts, eps, 2), pair)

    @pytest.mark.parametrize("points", [np.ones(4), np.ones((2, 2, 2)),
                                        np.float64(1.0)])
    def test_points_must_be_2d(self, points):
        with pytest.raises(DimensionMismatchError):
            dbscan(points, 0.5, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named(self, bad):
        # a NaN row would otherwise reach nothing and be labelled noise
        pts = random_points(substream(6, "gradcheck"), 5)
        pts[3, 1] = bad
        with pytest.raises(NonFiniteEvaluationError, match="point 3"):
            dbscan(pts, 0.5, 2)

    def test_bad_parameters(self):
        pts = random_points(substream(2, "gradcheck"), 4)
        with pytest.raises(ValueError):
            dbscan(pts, 0.0, 2)
        with pytest.raises(ValueError, match="eps must be > 0"):
            dbscan(pts, np.nan, 2)  # would label every point noise
        with pytest.raises(ValueError):
            dbscan(pts, 0.5, 0)


class TestThreshold:
    """`sim >= t` is the distance test: t passes it, the double below not."""

    @staticmethod
    def check(eps):
        with deadline():
            t = pseudolabel._threshold.__wrapped__(eps)  # uncached
        assert passes(t, eps)
        if eps >= 2.0:  # every similarity passes, even far below -1
            assert t == -np.inf
        else:
            assert -1.0 < t <= 1.0
            assert not passes(np.nextafter(t, -np.inf), eps)

    @pytest.mark.parametrize("eps", [1.0, 0.8, 0.3, 0.1, 2.0,
                                     np.nextafter(2.0, 0.0), 5e-324,
                                     2.0**-53, np.inf])
    def test_least_passing_double(self, eps):
        self.check(eps)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.0, 3.0, exclude_min=True))
    def test_least_passing_double_drawn(self, eps):
        self.check(eps)

    def test_found_once_per_eps(self):
        pseudolabel._threshold.cache_clear()
        pts = random_points(substream(8, "gradcheck"), 6)
        for eps in (0.3, 0.8, 0.3, 0.8):
            dbscan(pts, eps, 2)
        assert pseudolabel._threshold.cache_info().misses == 2


class TestNeighbourMask:
    """dbscan's neighbour mask bit for bit against the direct one of
    tests/oracles.reference_neighbours."""

    @staticmethod
    def check(pts, eps):
        pseudolabel._threshold.cache_clear()  # search under the deadline
        with deadline():
            got = pseudolabel._neighbours(np.asarray(pts, dtype=float), eps)
        assert np.array_equal(got, reference_neighbours(pts, eps)), eps

    def test_norms_from_1e_3_to_1e3(self):
        # similarities far outside [-1, 1], and eps on a pair's distance
        rng = substream(12, "gradcheck")
        for _ in range(60):
            n = int(rng.integers(2, 60))
            pts = random_points(rng, n, dim=int(rng.integers(1, 20)))
            pts *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
            d = 1.0 - np.clip(pts @ pts.T.copy(), -1.0, 1.0)
            for eps in (float(rng.uniform(0.01, 2.5)), 1.0,
                        float(d[rng.integers(n), rng.integers(n)]) or 0.5):
                self.check(pts, eps)

    def test_duplicated_rows(self):
        rng = substream(13, "gradcheck")
        for _ in range(40):
            base = random_points(rng, int(rng.integers(1, 6)), dim=16)
            pts = base[rng.integers(len(base), size=int(rng.integers(1, 70)))]
            for eps in (5e-324, 2.0**-53, 2.0**-50, 0.3):
                self.check(pts, eps)

    def test_pairs_rounded_apart_off_the_sphere(self):
        # one close pair i < j per input, both rows scaled by the same
        # c < 1, so their similarity is about c**2 and the two directions
        # of the general product can round apart. eps is set to each
        # direction's distance in turn. With OpenBLAS at one thread 8 of
        # the 200 pairs round apart; with a BLAS whose product is exactly
        # symmetric, this checks the boundary only.
        rng = substream(14, "gradcheck")
        for _ in range(200):
            n = int(rng.integers(8, 65))
            pts = random_points(rng, n, dim=16)
            i, j = np.sort(rng.choice(n, 2, replace=False))
            pts[j] = normalize_rows(pts[i] + 0.01 * rng.standard_normal(16))
            pts[[i, j]] *= rng.uniform(0.1, 1.0)
            d = 1.0 - np.clip(pts @ pts.T.copy(), -1.0, 1.0)
            for eps in (d[i, j], d[j, i]):
                self.check(pts, eps)

    @pytest.mark.parametrize("eps", [1e-3, 0.5, 1.0, 1.9, 2.0, 5.0])
    def test_one_point_and_none(self, eps):
        for pts in ([[0.6, 0.8]], [[1e-3, 0.0]], [[30.0, -40.0]],
                    np.zeros((0, 3))):
            self.check(pts, eps)

    @pytest.mark.parametrize("eps", [2.0, 3.0, np.inf])
    def test_eps_of_two_or_more_joins_every_pair(self, eps):
        # antipodal rows of norms up to 1e3: similarities down to -1e6
        rng = substream(15, "gradcheck")
        pts = random_points(rng, 20, dim=4) * 10.0 ** rng.uniform(-3, 3,
                                                                 (20, 1))
        pts = np.vstack([pts, -pts])
        assert (pts @ pts.T).min() < -1e3
        self.check(pts, eps)
        assert reference_neighbours(pts, eps).all()
        assert np.array_equal(dbscan(pts, eps, 40), np.zeros(40))


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
        pool = pseudo_label_epoch(corpus.grouped(), _params(), eps=0.3,
                                  min_pts=3, budget=30,
                                  rng=substream(0, "videos"))
        assert len(pool.embeddings) >= 30
        assert sorted(pool.entries) == list(range(len(pool.entries)))
        for pl, members in pool.entries.items():
            videos = {s.video_id for s, _ in members}
            assert len(videos) == 1  # clusters never span videos

    def test_arrays_follow_entries(self):
        # label pl's rows of the arrays are its entries' frames, in order
        pool = pseudo_label_epoch(_corpus().grouped(), _params(), 0.3, 3,
                                  20, substream(1, "videos"))
        start = pool.frames.start
        assert start.tolist()[-1] == len(pool.embeddings)
        assert pool.frames.n_labels == len(pool.entries)
        for pl, members in pool.entries.items():
            rows = slice(start[pl], start[pl + 1])
            assert np.array_equal(pool.frames.features[rows],
                                  np.stack([s.features for s, _ in members]))
            assert np.array_equal(pool.embeddings[rows],
                                  np.stack([e for _, e in members]))
        with pytest.raises(TypeError):
            pool.entries[0] = []  # a read-only view

    def test_budget_beyond_corpus_labels_each_frame_once(self, dbscan_calls):
        # budget larger than the corpus: one pass, each video clustered
        # once, no frame under two pseudo labels
        corpus = _corpus(n_videos=3, n_groups=2, frames_per_group=4)
        pool = pseudo_label_epoch(corpus.grouped(), _params(), 0.3, 3, 1000,
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
        pool = pseudo_label_epoch(corpus.grouped(), _params(), 0.3, 3, 3,
                                  substream(2, "videos"))
        assert len(dbscan_calls) == 1
        assert len({s.video_id for members in pool.entries.values()
                    for s, _ in members}) == 1
        assert len(pool.embeddings) == 8

    @pytest.mark.parametrize("min_labels", [0, 1, 2, 3, 4, 100])
    def test_walk_goes_on_to_min_labels(self, dbscan_calls, min_labels):
        # the budget alone stops the walk after one video; it goes on until
        # min_labels labels exist, and never past the last video
        corpus = _corpus(n_videos=3, n_groups=2, frames_per_group=4)
        frames = corpus.grouped()
        pool = pseudo_label_epoch(frames, _params(), 0.3, 3, 3,
                                  substream(2, "videos"), min_labels)
        n = pool.frames.n_labels
        # labels are numbered in walk order; the video of each
        video = [frames.samples[pool.rows[a]].video_id
                 for a in pool.frames.start[:-1]]
        assert len(dbscan_calls) == len(set(video))
        assert n >= min_labels or len(dbscan_calls) == 3
        # the walk stopped at the first video that was enough
        assert len(dbscan_calls) == 1 or video.count(video[-1]) + min_labels > n

    def test_unreachable_budget(self):
        corpus = _corpus(n_videos=2, n_groups=1, frames_per_group=2)
        with pytest.raises(BudgetUnreachableError):
            pseudo_label_epoch(corpus.grouped(), _params(), 0.3, 10, 5,
                               substream(3, "videos"))

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            pseudo_label_epoch(_corpus().grouped(), _params(), 0.3, 3, 0,
                               substream(4, "videos"))

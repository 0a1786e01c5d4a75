import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remix.datamodel import (
    MULTI,
    SINGLE,
    GeneratorConfig,
    LabelGroups,
    MultiCamDataset,
    PersonSample,
    SingleCamCorpus,
    augment,
    compose_batch,
    draw_epoch,
    load_corpus,
    load_multicam,
    load_samples,
    save_dataset,
    synth_generate,
)
from remix.errors import (
    InsufficientLabelsError,
    InvalidConfigError,
    VersionMismatchError,
)
from remix.numcore import substream

from oracles import reference_synth_generate


def _ms(sid, ident, cam, dim=4):
    return PersonSample(sid, np.ones(dim), ident, cam, MULTI, None,
                        hidden_identity=ident)


def small_cfg(**kw):
    base = dict(dim=8, n_identities=6, n_cameras=3, samples_per_id_per_cam=2,
                n_single_identities=8, n_videos=4, frames_per_identity=3,
                n_target_identities=5, n_target_cameras=2,
                target_samples_per_id_per_cam=2, multi_subspace_dim=4)
    base.update(kw)
    return GeneratorConfig(**base)


class TestPersonSample:
    def test_multi_requires_identity_and_camera(self):
        with pytest.raises(InvalidConfigError):
            PersonSample(0, np.ones(4), None, 0, MULTI, None, 0)
        with pytest.raises(InvalidConfigError):
            PersonSample(0, np.ones(4), 1, None, MULTI, None, 0)

    def test_single_requires_video_and_no_camera(self):
        with pytest.raises(InvalidConfigError):
            PersonSample(0, np.ones(4), None, 2, SINGLE, 1, 0)
        with pytest.raises(InvalidConfigError):
            PersonSample(0, np.ones(4), None, None, SINGLE, None, 0)

    def test_unknown_source(self):
        with pytest.raises(InvalidConfigError):
            PersonSample(0, np.ones(4), 1, 0, "other", None, 0)


class TestMultiCamDataset:
    def test_identity_needs_two_samples(self):
        with pytest.raises(InvalidConfigError):
            MultiCamDataset([_ms(0, 0, 0), _ms(1, 0, 1), _ms(2, 1, 0)])

    def test_ids_must_be_dense(self):
        samples = [_ms(0, 0, 0), _ms(1, 0, 1), _ms(2, 5, 0), _ms(3, 5, 1)]
        with pytest.raises(InvalidConfigError):
            MultiCamDataset(samples)

    def test_grouped(self):
        samples = [_ms(0, 1, 0), _ms(1, 0, 1), _ms(2, 1, 1), _ms(3, 0, 0)]
        for s in samples:
            s.features = np.full(4, float(s.sample_id))
        rows = MultiCamDataset(samples).grouped()
        assert rows.start.tolist() == [0, 2, 4]
        assert rows.features[:, 0].tolist() == [1, 3, 0, 2]  # stable
        assert rows.cameras.tolist() == [1, 0, 0, 1]
        assert rows.labels().tolist() == [0, 0, 1, 1]


def test_then_numbers_the_other_labels_after_these():
    a = LabelGroups(np.arange(100.0, 106.0)[:, None].repeat(4, axis=1),
                    np.array([0, 2, 5, 6]), np.array([0, 1, 1, 0, 2, 0]))
    b = _pool([2, 1, 3])
    ab = a.then(b)
    assert ab.features[:, 0].tolist() == [100, 101, 102, 103, 104, 105,
                                          0, 1, 2, 3, 4, 5]
    assert ab.start.tolist() == [0, 2, 5, 6, 8, 9, 12]
    assert ab.cameras.tolist() == [0, 1, 1, 0, 2, 0] + [-1] * 6
    assert np.array_equal(ab.labels(), np.concatenate(
        [a.labels(), a.n_labels + b.labels()]))


def test_corpus_videos_must_be_non_empty():
    frame = PersonSample(0, np.ones(4), None, None, SINGLE, 0,
                         hidden_identity=0)
    with pytest.raises(InvalidConfigError, match="non-empty"):
        SingleCamCorpus([(0, [frame]), (1, [])])


class TestSynthGenerate:
    def test_counts_and_norms(self):
        cfg = small_cfg()
        multi, corpus, target = synth_generate(cfg, 0)
        assert len(multi.samples) == 6 * 3 * 2
        assert sum(len(fr) for _, fr in corpus.videos) == 8 * 3
        assert len(corpus.videos) == 4
        assert len(target.samples) == 5 * 2 * 2
        for s in multi.samples + target.samples:
            assert np.linalg.norm(s.features) == pytest.approx(1.0)

    def test_hidden_identity_ranges_disjoint(self):
        multi, corpus, target = synth_generate(small_cfg(), 1)
        h_multi = {s.hidden_identity for s in multi.samples}
        h_single = {s.hidden_identity for _, fr in corpus.videos for s in fr}
        h_target = {s.hidden_identity for s in target.samples}
        assert h_multi.isdisjoint(h_single)
        assert h_single.isdisjoint(h_target)
        assert h_multi.isdisjoint(h_target)

    def test_each_single_identity_on_one_video(self):
        _, corpus, _ = synth_generate(small_cfg(), 2)
        seen: dict[int, int] = {}
        for v, frames in corpus.videos:
            for s in frames:
                assert seen.setdefault(s.hidden_identity, v) == v

    def test_deterministic_per_seed(self):
        a = synth_generate(small_cfg(), 5)[0]
        b = synth_generate(small_cfg(), 5)[0]
        assert all(np.array_equal(x.features, y.features)
                   for x, y in zip(a.samples, b.samples))
        c = synth_generate(small_cfg(), 6)[0]
        assert not np.array_equal(a.samples[0].features, c.samples[0].features)

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig(),
        small_cfg(n_single_identities=10),  # the last video is short
        small_cfg(frames_per_identity=1),
        small_cfg(n_cameras=1),
        small_cfg(dim=2, multi_subspace_dim=1, n_single_identities=4),
    ], ids=["default", "uneven-videos", "one-frame", "one-camera", "dim-2"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_per_sample_reference(self, cfg, seed):
        def rows(multi, corpus, target):
            frames = [s for _, fr in corpus.videos for s in fr]
            return [(s.sample_id, s.identity, s.camera, s.source, s.video_id,
                     s.hidden_identity, s.features)
                    for s in multi.samples + frames + target.samples]

        got = rows(*synth_generate(cfg, seed))
        want = rows(*reference_synth_generate(cfg, seed))
        assert [r[:-1] for r in got] == [r[:-1] for r in want]
        assert all(np.array_equal(g[-1], w[-1]) for g, w in zip(got, want))

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(n_videos=0), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(sigma_cam=-0.1), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(multi_subspace_dim=9), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(n_single_identities=2), 0)
        with pytest.raises(InvalidConfigError):  # 2 per video leaves one empty
            synth_generate(small_cfg(n_single_identities=5), 0)

    @pytest.mark.parametrize("n, v", [(5, 4), (9, 4), (7, 6), (3, 4)])
    def test_validate_rejects_a_split_with_an_empty_video(self, n, v):
        # videos take ceil(n / v) identities each, in order, so these
        # leave the last video none
        with pytest.raises(InvalidConfigError, match="video"):
            small_cfg(n_single_identities=n, n_videos=v).validate()

    @pytest.mark.parametrize("dim, n, v", [(8, 120, 10), (4, 10, 2),
                                           (12, 26, 2)])
    def test_validate_rejects_more_identities_per_video_than_dim(self, dim,
                                                                 n, v):
        # a video's ceil(n / v) prototypes are orthogonalised in R^dim: the
        # (dim + 1)-th collapses to rounding noise
        with pytest.raises(InvalidConfigError, match="generator.dim"):
            small_cfg(dim=dim, multi_subspace_dim=4, n_single_identities=n,
                      n_videos=v).validate()

    @pytest.mark.parametrize("dim, n, v", [(4, 8, 2), (12, 24, 2)])
    def test_as_many_identities_per_video_as_dim_generate(self, dim, n, v):
        cfg = small_cfg(dim=dim, multi_subspace_dim=4, n_single_identities=n,
                        n_videos=v)
        _, corpus, _ = synth_generate(cfg, 0)
        assert [len({s.hidden_identity for s in frames})
                for _, frames in corpus.videos] == [dim] * v

    @pytest.mark.parametrize("n, v", [(10, 4), (8, 4), (4, 4), (7, 4)])
    def test_every_video_of_a_valid_split_has_an_identity(self, n, v):
        cfg = small_cfg(n_single_identities=n, n_videos=v)
        cfg.validate()
        _, corpus, _ = synth_generate(cfg, 0)
        hidden = [{s.hidden_identity for s in frames}
                  for _, frames in corpus.videos]
        assert len(hidden) == v and all(hidden)
        assert sum(map(len, hidden)) == n


# one feature vector, and a (B, D) batch as the trainer augments it
SHAPES = st.sampled_from([(50,), (4, 50)])


class TestAugment:
    @settings(deadline=None)
    @given(SHAPES)
    def test_identity_when_disabled(self, shape):
        x = substream(0, "augment").standard_normal(shape)
        out = augment(x, substream(1, "augment"), sigma_aug=0.0, p_drop=0.0)
        assert np.array_equal(out, x)

    @settings(deadline=None)
    @given(SHAPES)
    def test_full_dropout_zeroes(self, shape):
        x = np.ones(shape)
        out = augment(x, substream(1, "augment"), sigma_aug=0.0, p_drop=1.0)
        assert np.array_equal(out, np.zeros(shape))

    @settings(deadline=None)
    @given(st.integers(0, 100), SHAPES)
    def test_noise_scale(self, seed, shape):
        x = np.zeros(shape)
        out = augment(x, substream(seed, "augment"), sigma_aug=0.1, p_drop=0.0)
        assert out.shape == x.shape and np.abs(out).max() < 1.0


def _toy_multi(n_ids=10, n_cams=4, per=2):
    samples = []
    sid = 0
    for y in range(n_ids):
        for c in range(n_cams):
            for _ in range(per):
                samples.append(_ms(sid, y, c))
                sid += 1
    return MultiCamDataset(samples).grouped()


def _pool(sizes):
    """Pseudo-label groups of the given sizes; a row's feature is its index."""
    n = sum(sizes)
    return LabelGroups(np.arange(n, dtype=float)[:, None].repeat(4, axis=1),
                       np.concatenate(([0], np.cumsum(sizes))), np.full(n, -1))


NO_MULTI = LabelGroups(np.zeros((0, 4)), np.zeros(1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64))


def _batches(groups, sizes, iters, rng):
    """The epoch's batches, drawn at once and gathered one by one: per
    batch its features, then its labels and cameras from the draws."""
    draws = draw_epoch(groups, sizes, iters, rng)
    return [(compose_batch(draws, it), draws.labels[it], draws.cameras[it])
            for it in range(iters)]


class TestComposeBatch:
    def test_sizes_and_order(self):
        multi = _toy_multi()
        (features, labels, cameras), = _batches(
            multi.then(_pool([5] * 9)), (8, 4, 8, 4), 1,
            substream(0, "sampler"))
        assert features.shape == (64, 4)
        assert (cameras >= 0).tolist() == [True] * 32 + [False] * 32
        assert len(set(labels[:32])) == 8
        # pseudo labels follow the 10 identities
        assert len(set(labels[32:])) == 8 and labels[32:].min() >= 10
        assert np.all(cameras[32:] == -1)

    def test_draws_hold_indices_not_features(self):
        multi = _toy_multi()
        groups = multi.then(_pool([5] * 9))
        draws = draw_epoch(groups, (8, 4, 8, 4), 7, substream(0, "sampler"))
        assert draws.groups is groups
        assert draws.rows.shape == (7, 64)
        assert all(a.dtype.kind == "i" for a in
                   (draws.rows, draws.labels, draws.cameras))
        assert draws.labels.shape == draws.cameras.shape == (7, 64)
        # no corpus, or no pseudo label per batch: multi-camera rows only
        for groups in (multi, multi.then(_pool([5]))):
            draws = draw_epoch(groups, (8, 4, 0, 4), 7,
                               substream(0, "sampler"))
            assert draws.groups is groups and draws.rows.shape == (7, 32)
            assert (draws.cameras >= 0).all()

    @pytest.mark.parametrize("groups, sizes", [
        (NO_MULTI.then(_pool([1, 3, 5, 2])), (0, 4, 3, 2)),
        (_toy_multi(n_ids=5), (3, 4, 0, 2)),
        (_toy_multi(n_ids=5).then(_pool([1, 3, 5, 2])), (3, 4, 3, 2)),
    ], ids=["no-identities", "no-pseudo-labels", "both"])
    def test_draws_read_the_row_space(self, groups, sizes):
        draws = draw_epoch(groups, sizes, 20, substream(0, "sampler"))
        n_multi = sizes[0] * sizes[1]
        assert draws.rows.shape == (20, n_multi + sizes[2] * sizes[3])
        assert np.array_equal(draws.labels, groups.labels()[draws.rows])
        assert np.array_equal(draws.cameras, groups.cameras[draws.rows])
        assert (draws.cameras[:, :n_multi] >= 0).all()
        assert (draws.cameras[:, n_multi:] < 0).all()

    def test_camera_diversity(self):
        # 4 cameras available and 4 slots: all four cameras must appear
        multi = _toy_multi(n_ids=8, n_cams=4, per=3)
        for _, labels, cameras in _batches(multi, (8, 4, 0, 0), 20,
                                           substream(3, "sampler")):
            for y in set(labels.tolist()):
                assert sorted(cameras[labels == y]) == [0, 1, 2, 3]

    def test_small_cluster_sampled_with_replacement(self):
        multi = _toy_multi(n_ids=8)
        (_, _, cameras), = _batches(multi.then(_pool([1] * 8)), (8, 4, 8, 4),
                                    1, substream(1, "sampler"))
        assert np.count_nonzero(cameras < 0) == 32  # singleton clusters repeat

    def test_insufficient_labels(self):
        multi = _toy_multi(n_ids=4)
        with pytest.raises(InsufficientLabelsError, match="8 multi-camera"):
            draw_epoch(multi, (8, 4, 0, 0), 5, substream(0, "sampler"))
        with pytest.raises(InsufficientLabelsError, match="8 pseudo"):
            draw_epoch(multi.then(_pool([3])), (4, 4, 8, 4), 5,
                       substream(0, "sampler"))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
           st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_camera_diverse_rule(self, per_cam, n_k, iters, seed):
        # one identity with 1-6 cameras of 1-4 samples each, in a random
        # row order, and n_k up to above its sample count, in each of the
        # epoch's batches
        rng = np.random.default_rng(seed)
        n = sum(per_cam)
        n_k = min(n_k, n + 3)
        cams = rng.permutation(np.repeat(np.arange(len(per_cam)), per_cam))
        rows = LabelGroups(np.arange(n, dtype=float)[:, None],
                           np.array([0, n]), cams)
        for features, _, cameras in _batches(rows, (1, n_k, 0, 0), iters,
                                             rng):
            picked = features[:, 0].astype(int)
            assert len(picked) == n_k
            assert np.array_equal(cameras, cams[picked])
            assert len(set(cameras.tolist())) == min(n_k, len(per_cam))
            assert len(set(picked.tolist())) == min(n_k, n)
            # past its sample count the order repeats: no row twice more
            # than another
            counts = np.bincount(picked, minlength=n)
            assert counts.max() - counts.min() <= 1

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_pseudo_label_fills_its_slots(self, sizes, n_k, iters, seed):
        single = _pool(sizes)
        for features, labels, cameras in _batches(
                NO_MULTI.then(single), (0, 1, len(sizes), n_k), iters,
                np.random.default_rng(seed)):
            assert not (cameras >= 0).any()
            for pl, size in enumerate(sizes):
                picked = features[labels == pl, 0].astype(int)
                assert len(picked) == n_k
                assert np.all((single.start[pl] <= picked)
                              & (picked < single.start[pl + 1]))
                if size >= n_k:  # without replacement
                    assert len(set(picked.tolist())) == n_k

    def test_label_sets_are_uniform(self):
        # 5 labels per source, 2 per batch, over 200 epochs of 50 batches:
        # each label's picks and each of the 10 label pairs' counts pass a
        # chi-square test at p = 0.001 (df 4: 18.47, df 9: 27.88)
        groups = _toy_multi(n_ids=5, n_cams=2, per=2).then(
            _pool([1, 2, 3, 4, 5]))
        rng = substream(0, "sampler")
        labels, pairs = np.zeros((2, 5)), np.zeros((2, 5, 5))
        for _ in range(200):
            draws = draw_epoch(groups, (2, 3, 2, 3), 50, rng)
            for s in range(2):
                y = draws.labels[:, 6 * s:6 * s + 6]
                # P distinct labels of K rows each
                assert np.array_equal(y, np.repeat(y[:, ::3], 3, axis=1))
                y = y[:, ::3] - 5 * s  # pseudo labels follow 5 identities
                assert np.all(y[:, 0] != y[:, 1])
                np.add.at(labels[s], y.ravel(), 1)
                np.add.at(pairs[s], (y.min(axis=1), y.max(axis=1)), 1)
        n = 200 * 50
        for s in range(2):
            expected = n * 2 / 5
            assert ((labels[s] - expected) ** 2 / expected).sum() < 18.47
            observed = pairs[s][np.triu_indices(5, 1)]
            expected = n / 10
            assert ((observed - expected) ** 2 / expected).sum() < 27.88


    def test_camera_diverse_first_row_is_uniform(self):
        # cameras with 3, 2 and 1 rows: the first row of the order is a
        # rank-0 row, one per camera, in random order, so each camera leads
        # a third of the 10,000 batches, by each of its rows equally often;
        # chi-square at p = 0.001, df 5: 20.52
        cams = np.array([0, 1, 2, 0, 1, 0])
        rows = LabelGroups(np.arange(6, dtype=float)[:, None],
                           np.array([0, 6]), cams)
        draws = draw_epoch(rows, (1, 1, 0, 0), 10_000, substream(0, "sampler"))
        counts = np.bincount(draws.rows.ravel(), minlength=6)
        expected = 10_000 / 3 / np.bincount(cams)[cams]
        assert ((counts - expected) ** 2 / expected).sum() < 20.52


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        multi, corpus, _ = synth_generate(small_cfg(), 0)
        path = tmp_path / "ds.jsonl"
        n = save_dataset(path, multi.samples, 8)
        assert n == len(multi.samples)
        back = load_multicam(path)
        assert len(back.samples) == len(multi.samples)
        for a, b in zip(multi.samples, back.samples):
            assert (a.sample_id, a.identity, a.camera, a.source, a.video_id,
                    a.hidden_identity) == (b.sample_id, b.identity, b.camera,
                                           b.source, b.video_id,
                                           b.hidden_identity)
            assert np.array_equal(a.features, b.features)

    def test_record_bytes(self, tmp_path):
        # each record is json.dumps of its fields, the features as Python
        # floats: the shortest text that reads back as the same double
        multi, corpus, _ = synth_generate(small_cfg(), 3)
        samples = multi.samples + [s for _, fr in corpus.videos for s in fr]
        path = tmp_path / "ds.jsonl"
        save_dataset(path, samples, 8)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert lines == [json.dumps({
            "sample_id": s.sample_id,
            "features": [float(x) for x in s.features],
            "identity": s.identity,
            "camera": s.camera,
            "video_id": s.video_id,
            "source": s.source,
            "hidden_identity": s.hidden_identity,
        }) for s in samples]

    def test_header_tag(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(path, [], 8)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "remix-ds", "version": 1, "dim": 8}

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps({"format": "remix-ds", "version": 2,
                                    "dim": 8}) + "\n")
        with pytest.raises(VersionMismatchError) as info:
            load_samples(path)
        assert str(path) in str(info.value)

    def test_dim_mismatch_record(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        rec = {"sample_id": 0, "features": [1.0, 2.0], "identity": 0,
               "camera": 0, "video_id": None, "source": MULTI,
               "hidden_identity": 0}
        path.write_text(
            json.dumps({"format": "remix-ds", "version": 1, "dim": 3}) + "\n"
            + json.dumps(rec) + "\n")
        with pytest.raises(VersionMismatchError):
            load_samples(path)

    def test_corpus_roundtrip_groups_videos(self, tmp_path):
        _, corpus, _ = synth_generate(small_cfg(), 0)
        path = tmp_path / "sc.jsonl"
        frames = [s for _, fr in corpus.videos for s in fr]
        save_dataset(path, frames, 8)
        back = load_corpus(path)
        assert [v for v, _ in back.videos] == [v for v, _ in corpus.videos]
        assert [len(fr) for _, fr in back.videos] == \
               [len(fr) for _, fr in corpus.videos]


class TestWrongKindOfFile:
    """A loader given the other source's file names the file and the first
    record of the wrong source."""

    def _files(self, tmp_path):
        multi, corpus, _ = synth_generate(small_cfg(), 0)
        frames = [s for _, fr in corpus.videos for s in fr]
        files = {}
        for name, samples in (("multi", multi.samples),
                              ("corpus", frames),
                              # sample ids stay distinct within a file
                              ("multi-then-corpus", multi.samples[:2] + frames[2:]),
                              ("corpus-then-multi", frames[:3] + multi.samples[3:])):
            files[name] = tmp_path / f"{name}.jsonl"
            save_dataset(files[name], samples, 8)
        return files

    @pytest.mark.parametrize("loader, name, lineno", [
        (load_multicam, "corpus", 2),
        (load_multicam, "multi-then-corpus", 4),
        (load_corpus, "multi", 2),
        (load_corpus, "corpus-then-multi", 5),
    ])
    def test_rejected(self, tmp_path, loader, name, lineno):
        path = self._files(tmp_path)[name]
        with pytest.raises(VersionMismatchError) as info:
            loader(path)
        assert str(path) in str(info.value)
        assert f"line {lineno}:" in str(info.value)


class TestMalformedMultiCamSet:
    """Records that each load but make no multi-camera set raise
    VersionMismatchError naming the file."""

    @pytest.mark.parametrize("ids_cams, why", [
        ([(0, 0), (0, 1), (1, 0)], ">= 2 samples"),  # identity 1 once
        ([(1, 0), (1, 1)], "dense"),  # no identity 0
        ([(0, 1), (0, 2)], "dense"),  # no camera 0
    ])
    def test_rejected(self, tmp_path, ids_cams, why):
        path = tmp_path / "ds.jsonl"
        save_dataset(path, [_ms(sid, ident, cam) for sid, (ident, cam)
                            in enumerate(ids_cams)], 4)
        with pytest.raises(VersionMismatchError, match=why) as info:
            load_multicam(path)
        assert str(path) in str(info.value)


def _set_feature(r, value):
    r["features"][0] = value


# each case edits record 2 of a valid three-record file, i.e. line 3
BROKEN_RECORD = {
    "missing-hidden-identity": lambda r: r.pop("hidden_identity"),
    "missing-features": lambda r: r.pop("features"),
    "duplicated-sample-id": lambda r: r.update(sample_id=0),
    "nan-feature": lambda r: _set_feature(r, float("nan")),
    "inf-feature": lambda r: _set_feature(r, float("-inf")),
    "unknown-source": lambda r: r.update(source="bogus"),
    "multi-without-camera": lambda r: r.update(camera=None),
    "integer-feature-beyond-float": lambda r: _set_feature(r, 10 ** 400),
    "boolean-feature": lambda r: _set_feature(r, True),
    "boolean-features": lambda r: r.update(features=[True, False] * 4),
    "string-sample-id": lambda r: r.update(sample_id="a"),
    "float-sample-id": lambda r: r.update(sample_id=5.0),
    "null-sample-id": lambda r: r.update(sample_id=None),
    "string-camera": lambda r: r.update(camera="0"),
    "boolean-identity": lambda r: r.update(identity=True),
    "float-video-id": lambda r: r.update(video_id=1.5),
    "null-hidden-identity": lambda r: r.update(hidden_identity=None),
    "boolean-hidden-identity": lambda r: r.update(hidden_identity=False),
    "multi-with-video-id": lambda r: r.update(video_id=7),
    "corpus-with-identity": lambda r: r.update(source=SINGLE, camera=None,
                                               video_id=0, identity=3),
}


class TestMalformedDatasetFile:
    """A broken record raises VersionMismatchError naming the file and its
    1-based line."""

    def _write(self, tmp_path):
        multi, _, _ = synth_generate(small_cfg(), 0)
        path = tmp_path / "ds.jsonl"
        save_dataset(path, multi.samples[:3], 8)
        return path, path.read_text().splitlines()

    def _raises_at(self, path, lineno):
        with pytest.raises(VersionMismatchError) as info:
            load_samples(path)
        assert str(path) in str(info.value)
        assert f"line {lineno}:" in str(info.value)

    @pytest.mark.parametrize("case", BROKEN_RECORD)
    def test_broken_record(self, tmp_path, case):
        path, lines = self._write(tmp_path)
        record = json.loads(lines[2])
        BROKEN_RECORD[case](record)
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        self._raises_at(path, 3)

    def test_truncated_record(self, tmp_path):
        path, lines = self._write(tmp_path)
        path.write_text("\n".join(lines[:3]) + "\n" + lines[3][:40])
        self._raises_at(path, 4)

    @pytest.mark.parametrize("dim", ["8", True, 8.0, 2.9, 0])
    def test_header_dim_must_be_a_positive_integer(self, tmp_path, dim):
        path, lines = self._write(tmp_path)
        header = json.loads(lines[0])
        header["dim"] = dim
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        self._raises_at(path, 1)

    def test_truncated_header(self, tmp_path):
        path, lines = self._write(tmp_path)
        path.write_text(lines[0][:20])
        self._raises_at(path, 1)

    def test_overflowing_feature(self, tmp_path):
        # finite text that parses to inf
        path, lines = self._write(tmp_path)
        record = json.loads(lines[1])
        record["features"][0] = 12345.5
        lines[1] = json.dumps(record).replace("12345.5", "1e999")
        path.write_text("\n".join(lines) + "\n")
        self._raises_at(path, 2)

    def test_large_finite_features_load(self, tmp_path):
        # their sum overflows, but every feature is finite
        path, lines = self._write(tmp_path)
        record = json.loads(lines[1])
        record["features"] = [1e308] * 8
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        samples, _ = load_samples(path)
        assert np.all(samples[0].features == 1e308)

    def test_integer_features_load(self, tmp_path):
        # JSON integers are numbers; only booleans are refused
        path, lines = self._write(tmp_path)
        record = json.loads(lines[1])
        record["features"] = [1, 0] * 4
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        samples, _ = load_samples(path)
        assert samples[0].features.tolist() == [1.0, 0.0] * 4

    def test_valid_file_still_loads(self, tmp_path):
        path, _ = self._write(tmp_path)
        samples, dim = load_samples(path)
        assert dim == 8 and [s.sample_id for s in samples] == [0, 1, 2]

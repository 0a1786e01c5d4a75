import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remix.datamodel import (
    MULTI,
    SINGLE,
    GeneratorConfig,
    MultiCamDataset,
    PersonSample,
    augment,
    compose_batch,
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
            MultiCamDataset.from_samples([_ms(0, 0, 0), _ms(1, 0, 1),
                                          _ms(2, 1, 0)])

    def test_ids_must_be_dense(self):
        samples = [_ms(0, 0, 0), _ms(1, 0, 1), _ms(2, 5, 0), _ms(3, 5, 1)]
        with pytest.raises(InvalidConfigError):
            MultiCamDataset.from_samples(samples)

    def test_by_identity(self):
        ds = MultiCamDataset.from_samples(
            [_ms(0, 0, 0), _ms(1, 0, 1), _ms(2, 1, 0), _ms(3, 1, 1)])
        groups = ds.by_identity
        assert groups is ds.by_identity  # grouped once per dataset
        assert sorted(groups) == [0, 1]
        assert all(len(v) == 2 for v in groups.values())


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

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(n_videos=0), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(sigma_cam=-0.1), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(multi_subspace_dim=9), 0)
        with pytest.raises(InvalidConfigError):
            synth_generate(small_cfg(n_single_identities=2), 0)


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
    return MultiCamDataset.from_samples(samples)


class TestComposeBatch:
    def test_sizes_and_order(self):
        multi = _toy_multi()
        pool = {pl: [PersonSample(100 + pl * 10 + i, np.ones(4), None, None,
                                  SINGLE, pl, 50 + pl) for i in range(5)]
                for pl in range(9)}
        batch = compose_batch(multi, pool, (8, 4, 8, 4), substream(0, "sampler"))
        assert len(batch.multi) == 32 and len(batch.single) == 32
        assert len({y for _, y, _ in batch.multi}) == 8
        assert len({pl for _, pl in batch.single}) == 8

    def test_camera_diversity(self):
        # 4 cameras available and 4 slots: all four cameras must appear
        multi = _toy_multi(n_ids=8, n_cams=4, per=3)
        rng = substream(3, "sampler")
        for _ in range(20):
            batch = compose_batch(multi, {}, (8, 4, 0, 0), rng)
            for y in {y for _, y, _ in batch.multi}:
                cams = [c for _, yy, c in batch.multi if yy == y]
                assert sorted(cams) == [0, 1, 2, 3]

    def test_small_cluster_sampled_with_replacement(self):
        multi = _toy_multi(n_ids=8)
        pool = {pl: [PersonSample(200 + pl, np.ones(4), None, None, SINGLE,
                                  pl, 60 + pl)] for pl in range(8)}
        batch = compose_batch(multi, pool, (8, 4, 8, 4), substream(1, "sampler"))
        assert len(batch.single) == 32  # singleton clusters repeat

    def test_insufficient_labels(self):
        multi = _toy_multi(n_ids=4)
        with pytest.raises(InsufficientLabelsError):
            compose_batch(multi, {}, (8, 4, 0, 0), substream(0, "sampler"))
        with pytest.raises(InsufficientLabelsError):
            compose_batch(multi, {0: []}, (4, 4, 8, 4), substream(0, "sampler"))


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        multi, corpus, _ = synth_generate(small_cfg(), 0)
        path = tmp_path / "ds.jsonl"
        n = save_dataset(path, multi.samples, 8)
        assert n == len(multi.samples)
        back = load_multicam(path)
        for a, b in zip(multi.samples, back.samples):
            assert a.sample_id == b.sample_id
            assert a.identity == b.identity and a.camera == b.camera
            assert np.allclose(a.features, b.features)

    def test_header_tag(self, tmp_path):
        import json
        path = tmp_path / "ds.jsonl"
        save_dataset(path, [], 8)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"format": "remix-ds", "version": 1, "dim": 8}

    def test_version_mismatch(self, tmp_path):
        import json
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps({"format": "remix-ds", "version": 2,
                                    "dim": 8}) + "\n")
        with pytest.raises(VersionMismatchError):
            load_samples(path)

    def test_dim_mismatch_record(self, tmp_path):
        import json
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

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remix
from remix import encoder as enc
from remix import evalkit
from remix.datamodel import (
    CorpusFrames,
    GeneratorConfig,
    LabelGroups,
    MultiCamDataset,
    synth_generate,
)
from remix.errors import (
    DimensionMismatchError,
    EmptyPoolError,
    NonFiniteEvaluationError,
    NoValidPositiveError,
)
from remix.evalkit import (
    _BLOCK,
    _PER_PASS,
    _query_gallery,
    _rank_queries,
    cluster_purity,
    evaluate,
    mean_ap,
    shuffled_label_baseline,
    write_report,
)
from remix.numcore import normalize_rows, substream
from remix.pseudolabel import PseudoLabeledPool


from oracles import reference_purity, reference_rankings


def angles(*degs):
    rad = np.deg2rad(degs)
    return np.stack([np.cos(rad), np.sin(rad)], axis=1)


class TestFixtures:
    def test_ap_relevant_irrelevant_relevant(self):
        # ranking [r, i, r] -> (1/1 + 2/3) / 2 = 5/6
        q = angles(0)
        g = angles(5, 20, 60)
        ap = mean_ap(q, [0], [0], g, [0, 1, 0], [1, 1, 1])
        assert ap == pytest.approx(5.0 / 6.0)

    def test_ap_perfect(self):
        q = angles(0)
        g = angles(5, 60)
        assert mean_ap(q, [0], [0], g, [0, 1], [1, 1]) == 1.0

    def test_ap_second_place(self):
        q = angles(0)
        g = angles(5, 60)
        assert mean_ap(q, [0], [0], g, [1, 0], [1, 1]) == pytest.approx(0.5)

    def test_cmc_ranks(self):
        q = angles(0)
        g = angles(5, 20, 60)
        ids = [1, 1, 0]
        # the first match is third: a miss at rank 1 and 2, a hit at 3
        first, _ = _rank_queries(q, [0], [0], g, ids, [1] * 3)
        assert first.tolist() == [3]

    def test_same_id_same_cam_masked(self):
        q = angles(0)
        # the nearest gallery item shares id and camera with the query, so
        # it must be ignored rather than counted as a hit
        g = angles(1, 30)
        ap = mean_ap(q, [0], [0], g, [0, 0], [0, 1])
        assert ap == 1.0

    def test_tie_breaks_by_gallery_index(self):
        q = angles(0)
        g = np.array([[1.0, 0.0], [1.0, 0.0]])
        # identical sims: index 0 ranks first, so relevance at index 1
        # lands at rank 2
        ap = mean_ap(q, [0], [0], g, [1, 0], [1, 1])
        assert ap == pytest.approx(0.5)

    def test_no_valid_positive(self):
        q = angles(0)
        g = angles(10)
        with pytest.raises(NoValidPositiveError):
            mean_ap(q, [0], [0], g, [1], [1])
        # the first stranded query is named by its index among all queries,
        # here one in the second ranking block
        nq = 2 * _BLOCK
        q_ids = np.zeros(nq, dtype=int)
        q_ids[[_BLOCK + 3, _BLOCK + 5]] = 1
        with pytest.raises(NoValidPositiveError,
                           match=f"^query {_BLOCK + 3} has no valid positive$"):
            _rank_queries(angles(*range(nq)), q_ids, [0] * nq, g, [0], [1])

    def test_no_queries(self):
        args = (np.zeros((0, 2)), [], [], angles(10), [0], [1])
        with pytest.raises(EmptyPoolError):
            mean_ap(*args)
        with pytest.raises(EmptyPoolError):
            _rank_queries(*args)

    def test_query_ids_one_per_embedding(self):
        # 40 query embeddings with 32 identities must not rank 32 of them
        nq = 40
        with pytest.raises(DimensionMismatchError,
                           match=r"^query identities have shape \(32,\), "
                                 r"query embeddings \(40, 2\)$"):
            mean_ap(angles(*range(nq)), [0] * 32, [0] * nq, angles(10), [0],
                    [1])

    @pytest.mark.parametrize("arg", range(4))
    def test_labels_one_per_embedding(self, arg):
        # query ids, query cameras, gallery ids, gallery cameras: each one
        # entry short
        labels = [[0, 0], [0, 0], [0, 1, 0], [1, 1, 1]]
        labels[arg] = labels[arg][:-1]
        side = "query" if arg < 2 else "gallery"
        name = "cameras" if arg % 2 else "identities"
        with pytest.raises(DimensionMismatchError,
                           match=f"^{side} {name} have shape"):
            mean_ap(angles(0, 10), *labels[:2], angles(5, 20, 60),
                    *labels[2:])

    def test_labels_must_be_vectors(self):
        with pytest.raises(DimensionMismatchError,
                           match=r"^query identities have shape \(1, 1\)"):
            _rank_queries(angles(0), [[0]], [0], angles(10), [0], [1])

    def test_embedding_widths_agree(self):
        with pytest.raises(DimensionMismatchError,
                           match="^query embeddings have width 2, gallery "
                                 "embeddings 3$"):
            mean_ap(angles(0), [0], [0], np.ones((1, 3)), [0], [1])

    @pytest.mark.parametrize("arg", range(4))
    def test_labels_must_be_integers(self, arg):
        labels = [[0], [0], [0, 1, 0], [1, 1, 1]]
        labels[arg] = np.asarray(labels[arg], dtype=np.float64)
        with pytest.raises(DimensionMismatchError,
                           match="must be integers, got float64$"):
            _rank_queries(angles(0), *labels[:2], angles(5, 20, 60),
                          *labels[2:])

    @pytest.mark.parametrize("side", ["query", "gallery"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embedding(self, side, value):
        q = angles(0, 10)
        g = angles(5, 20, 60)
        (q if side == "query" else g)[1, 0] = value
        with pytest.raises(NonFiniteEvaluationError,
                           match=f"^{side} embedding 1 is not finite$"):
            mean_ap(q, [0, 1], [0, 0], g, [0, 1, 0], [1, 1, 1])


def _assert_matches(args, reference):
    """_rank_queries against the stable-sort oracle's (first, ap): each
    query's first rank exactly and its AP to 1e-12."""
    first, ap = _rank_queries(*args)
    ref_first, ref_ap = reference
    assert np.array_equal(first, ref_first)
    assert np.max(np.abs(ap - ref_ap)) <= 1e-12
    return first, ap


def _on_axis(*scores):
    """Gallery rows that score `scores` exactly against the query (1, 0)."""
    return np.array([[s, 0.0] for s in scores])


# name -> ((q_embs, q_ids, q_cams, g_embs, g_ids, g_cams), first ranks).
# Every gallery camera is 1 and every query camera 0 unless a case masks.
_HAND_CASES = {
    # query 0's positive ties with the item before it, and the two hold
    # the row's largest key; query 1's worst item is a positive, so its le
    # counts the whole row
    "tied-with-last": ((np.array([[1.0, 0.0], [-1.0, 0.0]]), [0, 1], [0, 0],
                        _on_axis(2, 0, 0), [1, 1, 0], [1, 1, 1]), [3, 1]),
    # every valid item scores 1; the masked one (same id and camera, at
    # index 0) ties too but must not count
    "all-tied": ((_on_axis(1), [0], [0], _on_axis(1, 1, 1, 1, 1),
                  [0, 1, 0, 1, 0], [0, 1, 1, 1, 1]), [2]),
    # the positive at index 2 ties with index 0 before it and index 3
    # after it
    "tied-both-sides": ((_on_axis(1), [0], [0], _on_axis(1, 2, 1, 1, 0),
                         [1, 1, 0, 1, 1], [1] * 5), [3]),
    # orthogonal rows score zero, of either sign as the BLAS kernel
    # rounds it against the negated gallery; +0 and -0 count as one key,
    # so every zero key ties
    "signed-zero": ((_on_axis(1), [0], [0],
                     np.array([[0.0, 1.0], [-0.0, -1.0], [0.0, -2.0],
                               [2.0, 0.0], [-0.0, 3.0]]),
                     [1, 0, 1, 1, 0], [1] * 5), [3]),
    # every valid item is a positive, so the query's row of thresholds is
    # full; two of them tie, and the worst one's le counts the whole row
    "only-positives": ((_on_axis(1), [0], [0], _on_axis(3, 1, 1, 0),
                        [0] * 4, [1, 2, 1, 2]), [1]),
}


def _generated_target(**generator):
    """(params, target, ranking arguments) of a generated target under a
    random encoder."""
    cfg = GeneratorConfig(**generator)
    target = synth_generate(cfg, 0)[2]
    params = enc.init_params(cfg.dim, [64], 16, substream(0, "init"))
    query, gallery = _query_gallery(params, target)
    return params, target, (*query, *gallery)


@pytest.fixture(scope="module")
def refresh_target():
    """A 1,600-query by 3,200-item target, 6 positives per query."""
    return _generated_target(n_target_identities=400)


def _ranking_peak(args):
    """tracemalloc's peak over one _rank_queries call, after a warm-up."""
    _rank_queries(*args)
    tracemalloc.start()
    try:
        _rank_queries(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _positives_per_query(q_ids, q_cams, g_ids, g_cams):
    """Per query: the gallery items of its identity on another camera."""
    same = np.asarray(q_ids)[:, None] == np.asarray(g_ids)[None, :]
    other = np.asarray(q_cams)[:, None] != np.asarray(g_cams)[None, :]
    return (same & other).sum(axis=1)


class TestAgainstOracle:
    def test_fifty_random_instances(self):
        # up to three ranking blocks and one query more; half the instances
        # draw the gallery from a few integer directions, so that many
        # similarities are exactly equal and the tie rule decides the ranks
        rng = substream(0, "gradcheck")
        checked = 0
        for _ in range(50):
            nq = int(rng.integers(1, 3 * _BLOCK + 2))
            ng = int(rng.integers(4, 60))
            n_ids = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                dirs = rng.integers(-2, 3, size=(int(rng.integers(2, 5)), 3))
                q = rng.integers(-2, 3, size=(nq, 3)).astype(np.float64)
                g = dirs[rng.integers(len(dirs), size=ng)].astype(np.float64)
            else:
                q = normalize_rows(rng.standard_normal((nq, 3)))
                g = normalize_rows(rng.standard_normal((ng, 3)))
            q_ids = rng.integers(n_ids, size=nq)
            g_ids = rng.integers(n_ids, size=ng)
            q_cams = rng.integers(2, size=nq)
            g_cams = rng.integers(2, size=ng)
            args = (q, q_ids, q_cams, g, g_ids, g_cams)
            try:
                first, ap = reference_rankings(*args)
            except NoValidPositiveError as exc:
                with pytest.raises(NoValidPositiveError, match=f"^{exc}$"):
                    mean_ap(*args)
                continue
            assert np.array_equal(_rank_queries(*args)[0], first)
            assert abs(mean_ap(*args) - np.mean(ap)) <= 1e-12
            checked += 1
        assert checked >= 40

    def test_tie_heavy_large_galleries(self):
        # integer directions, so that scores are exact and most of them
        # tie; galleries up to 300 items and queries across block
        # boundaries; per query, the first rank exactly and the AP to 1e-12
        rng = substream(1, "ties")
        checked = 0
        for _ in range(40):
            nq = int(rng.integers(_BLOCK - 2, 3 * _BLOCK + 2))
            ng = int(rng.integers(100, 300))
            n_dirs = int(rng.integers(2, 8))
            dirs = rng.integers(-2, 3, size=(n_dirs, 3)).astype(np.float64)
            q = rng.integers(-2, 3, size=(nq, 3)).astype(np.float64)
            g = dirs[rng.integers(n_dirs, size=ng)]
            n_ids = int(rng.integers(2, 6))
            args = (q, rng.integers(n_ids, size=nq), rng.integers(2, size=nq),
                    g, rng.integers(n_ids, size=ng), rng.integers(2, size=ng))
            try:
                reference = reference_rankings(*args)
            except NoValidPositiveError:
                continue
            _assert_matches(args, reference)
            checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("case", sorted(_HAND_CASES))
    def test_hand_built_ties(self, case):
        args, first = _HAND_CASES[case]
        got, _ = _assert_matches(args, reference_rankings(*args))
        assert got.tolist() == first

    def test_refresh_sized_target(self, refresh_target):
        params, target, args = refresh_target
        report = evaluate(params, target)
        first, ap = reference_rankings(*args)
        assert (report["n_query"], report["n_gallery"]) == (1600, 3200)
        for k in (1, 5, 10):
            assert report[f"rank{k}"] == np.mean(first <= k)
        assert abs(report["mAP"] - np.mean(ap)) <= 1e-12

    def test_refresh_sized_target_ungrouped(self, refresh_target):
        # the generator's gallery comes sorted by identity; permuted rows
        # make the identity grouping in _rank_queries do the work
        q_embs, q_ids, q_cams, g_embs, g_ids, g_cams = refresh_target[2]
        perm = np.random.default_rng(0).permutation(len(g_ids))
        assert np.any(np.diff(g_ids[perm]) < 0)
        args = (q_embs, q_ids, q_cams, g_embs[perm], g_ids[perm], g_cams[perm])
        _assert_matches(args, reference_rankings(*args))

    def test_peak_stays_below_four_block_arrays(self, refresh_target):
        # beside its inputs, the ranking holds a few (_BLOCK x gallery)
        # arrays' worth at once: the block's keys, the boolean buffer of
        # _PER_PASS thresholds per query and the negated gallery, not a
        # query-by-gallery matrix or full-width boolean masks
        args = refresh_target[2]
        assert _ranking_peak(args) < 4 * _BLOCK * len(args[4]) * 8

    def test_eighteen_positives_per_query(self):
        # 7 samples per identity and camera over 4 cameras: 18 positives
        # per query, so each count takes three passes of _PER_PASS
        # thresholds; the report matches the oracle, and the boolean buffer
        # keeps the peak under the same bound as at 6 positives
        params, target, args = _generated_target(
            n_target_identities=100, target_samples_per_id_per_cam=7)
        assert set(_positives_per_query(*args[1:3], *args[4:])) == {18}
        report = evaluate(params, target)
        first, ap = reference_rankings(*args)
        for k in (1, 5, 10):
            assert report[f"rank{k}"] == np.mean(first <= k)
        assert abs(report["mAP"] - np.mean(ap)) <= 1e-12
        assert _ranking_peak(args) < 4 * _BLOCK * len(args[4]) * 8

    def test_many_positives_per_query(self):
        # two identities over up to 130 gallery items: up to about 40
        # positives per query, so the thresholds span several passes of
        # _PER_PASS; half the instances score from integer directions, so
        # that many keys tie exactly
        rng = substream(2, "positives")
        checked, most = 0, 0
        for _ in range(30):
            nq = int(rng.integers(1, 2 * _BLOCK + 2))
            ng = int(rng.integers(40, 130))
            n_cams = int(rng.integers(2, 4))
            if rng.random() < 0.5:
                dirs = rng.integers(-2, 3, size=(int(rng.integers(2, 6)), 3))
                q = rng.integers(-2, 3, size=(nq, 3)).astype(np.float64)
                g = dirs[rng.integers(len(dirs), size=ng)].astype(np.float64)
            else:
                q = normalize_rows(rng.standard_normal((nq, 3)))
                g = normalize_rows(rng.standard_normal((ng, 3)))
            args = (q, rng.integers(2, size=nq), rng.integers(n_cams, size=nq),
                    g, rng.integers(2, size=ng), rng.integers(n_cams, size=ng))
            try:
                reference = reference_rankings(*args)
            except NoValidPositiveError:
                continue
            _assert_matches(args, reference)
            most = max(most, _positives_per_query(*args[1:3], *args[4:]).max())
            checked += 1
        assert checked >= 25 and most >= 4 * _PER_PASS

    def test_unequal_positives_in_one_block(self):
        # query r holds r + 1 positives, so each row of a block's
        # thresholds ends at its own column and the rest is padding, and a
        # pass compares rows whose thresholds have run out beside rows that
        # still hold some; each identity also has two items on its query's
        # camera (masked), and the scores are exact integers with many ties
        rng = substream(3, "padding")
        nq = _BLOCK + 5
        cams = [np.repeat([0, 1], [2, r + 1]) for r in range(nq)]
        g_ids = np.concatenate([np.full(len(c), r) for r, c in enumerate(cams)]
                               + [np.full(40, nq)])
        g_cams = np.concatenate(cams + [np.ones(40, dtype=np.int64)])
        perm = rng.permutation(len(g_ids))
        g_ids, g_cams = g_ids[perm], g_cams[perm]
        g = rng.integers(-3, 4, size=(len(g_ids), 4)).astype(np.float64)
        q = rng.integers(-3, 4, size=(nq, 4)).astype(np.float64)
        args = (q, np.arange(nq), np.zeros(nq, dtype=np.int64),
                g, g_ids, g_cams)
        assert np.array_equal(_positives_per_query(*args[1:3], *args[4:]),
                              np.arange(1, nq + 1))
        _assert_matches(args, reference_rankings(*args))

    def test_duplicated_rows_across_the_block_boundary(self):
        # the queries on either side of the first block boundary are one
        # row with one identity and camera, and each gallery row appears
        # three times in scattered places: every positive's key recurs, and
        # both blocks must settle the ties by gallery index alike
        rng = substream(4, "duplicates")
        nq = 2 * _BLOCK
        base = rng.integers(-3, 4, size=(40, 4)).astype(np.float64)
        perm = rng.permutation(3 * len(base))
        g = np.tile(base, (3, 1))[perm]
        g_ids = np.tile(rng.integers(3, size=len(base)), 3)[perm]
        g_cams = rng.integers(3, size=len(g_ids))
        q = rng.integers(-3, 4, size=(nq, 4)).astype(np.float64)
        q_ids = rng.integers(3, size=nq)
        q_cams = rng.integers(3, size=nq)
        edge = slice(_BLOCK - 3, _BLOCK + 3)
        q[edge], q_ids[edge], q_cams[edge] = q[_BLOCK], q_ids[_BLOCK], 0
        args = (q, q_ids, q_cams, g, g_ids, g_cams)
        first, ap = _assert_matches(args, reference_rankings(*args))
        assert len(set(first[edge])) == 1
        assert len(set(ap[edge])) == 1


def _pool(clusters, order=None):
    """An array pool whose pseudo label pl holds frames of the hidden
    identities clusters[pl]; `order` permutes the frames' corpus rows."""
    hidden = np.array([h for hids in clusters for h in hids], dtype=np.int64)
    rows = np.arange(len(hidden)) if order is None else np.asarray(order)
    corpus_hidden = np.empty_like(hidden)
    corpus_hidden[rows] = hidden
    corpus = CorpusFrames(np.ones((len(hidden), 2)), np.array([0, len(hidden)]),
                          corpus_hidden, [])
    sizes = [len(hids) for hids in clusters]
    frames = LabelGroups(np.ones((len(hidden), 2)),
                         np.concatenate(([0], np.cumsum(sizes, dtype=int))),
                         np.full(len(hidden), -1))
    return PseudoLabeledPool(frames, np.ones((len(hidden), 2)), rows, corpus)


class TestClusterPurity:
    def test_hand_computed(self):
        pool = _pool([[0, 0, 0, 1], [2, 2]])
        assert cluster_purity(pool) == pytest.approx((3 + 2) / 6)

    def test_pure_pool(self):
        assert cluster_purity(_pool([[0, 0], [1, 1, 1]])) == 1.0

    def test_empty_pool(self):
        with pytest.raises(EmptyPoolError):
            cluster_purity(_pool([]))

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.lists(st.integers(-3, 2**62), min_size=1, max_size=6)
                    .flatmap(lambda ids: st.lists(st.sampled_from(ids),
                                                  min_size=1, max_size=12)),
                    min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_counts_match_reference(self, clusters, random):
        # few distinct identities per cluster, so clusters are often mixed;
        # identities span most of int64 and the corpus rows are shuffled
        order = list(range(sum(len(c) for c in clusters)))
        random.shuffle(order)
        labels = [pl for pl, hids in enumerate(clusters) for _ in hids]
        hidden = [h for hids in clusters for h in hids]
        assert cluster_purity(_pool(clusters, order)) \
            == reference_purity(labels, hidden)


def _target(seed=0):
    cfg = GeneratorConfig(dim=8, n_identities=6, n_cameras=3,
                          samples_per_id_per_cam=2, n_single_identities=8,
                          n_videos=4, frames_per_identity=3,
                          n_target_identities=6, n_target_cameras=3,
                          target_samples_per_id_per_cam=2,
                          multi_subspace_dim=4)
    return synth_generate(cfg, seed)[2]


class TestProtocol:
    def test_split_takes_lowest_sample_id(self):
        # the generator writes records in sample_id order; shuffled, a
        # group's first record is often not its lowest sample_id
        samples = _target().samples
        perm = np.random.default_rng(0).permutation(len(samples))
        target = MultiCamDataset([samples[k] for k in perm])
        lowest = {}
        for i, s in enumerate(target.samples):
            key, rec = (s.identity, s.camera), (s.sample_id, i)
            lowest[key] = min(lowest.get(key, rec), rec)
        q_idx = sorted(i for _, i in lowest.values())
        g_idx = sorted(set(range(len(target.samples))) - set(q_idx))
        first = {}
        for i, s in enumerate(target.samples):
            first.setdefault((s.identity, s.camera), i)
        assert len(q_idx) == 6 * 3 and sorted(first.values()) != q_idx
        params = enc.init_params(8, [8], 4, substream(0, "init"))
        # one pass over the raw features, in dataset order
        embs, _ = enc.forward_batch(
            params, np.stack([s.features for s in target.samples]))
        ids = np.array([s.identity for s in target.samples])
        cams = np.array([s.camera for s in target.samples])
        for got, idx in zip(_query_gallery(params, target), (q_idx, g_idx)):
            assert np.array_equal(got[0], embs[idx])
            assert np.array_equal(got[1], ids[idx])
            assert np.array_equal(got[2], cams[idx])

    def test_evaluate_report_shape(self):
        target = _target()
        params = enc.init_params(8, [8], 4, substream(0, "init"))
        report = evaluate(params, target)
        assert set(report) == {"rank1", "rank5", "rank10", "mAP",
                               "n_query", "n_gallery", "protocol"}
        assert report["protocol"] == "cross-domain"
        assert report["n_query"] == 18
        assert 0.0 <= report["mAP"] <= 1.0
        assert report["rank1"] <= report["rank5"] <= report["rank10"]

    def test_empty_target(self):
        params = enc.init_params(8, [8], 4, substream(0, "init"))
        with pytest.raises(EmptyPoolError, match="^no queries to rank$"):
            evaluate(params, MultiCamDataset([]))

    def test_one_embedding_call_per_evaluation(self, monkeypatch):
        # the benchmark times and traces evaluation at this call site
        calls = []
        def spy(*args, real=evalkit.forward_batch):
            calls.append(len(args[1]))
            return real(*args)
        monkeypatch.setattr(evalkit, "forward_batch", spy)
        target = _target()
        params = enc.init_params(8, [16], 8, substream(1, "init"))
        evaluate(params, target)
        assert calls == [len(target.samples)]
        shuffled_label_baseline(params, target, substream(0, "baseline"))
        assert calls == [len(target.samples)] * 2

    def test_shuffled_baseline_below_real_score(self):
        target = _target()
        params = enc.init_params(8, [16], 8, substream(1, "init"))
        report = evaluate(params, target)
        base = shuffled_label_baseline(params, target, substream(0, "baseline"))
        assert 0.0 < base < report["mAP"]

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"mAP": 0.5, "protocol": "cross-domain"})
        doc = json.loads(path.read_text())
        assert doc["mAP"] == 0.5
        # a dump that fails part-way leaves the previous report as it was
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_report(path, {"mAP": 0.7, "extra": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.json"]


def test_time_evaluate_script():
    # the timing script that sizes the ranking, on a small target: 6
    # identities over 4 cameras with 4 samples per identity and camera
    script = Path(__file__).resolve().parents[1] / "scripts" / "time_evaluate.py"
    env = dict(os.environ, PYTHONPATH=str(Path(remix.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script), "--identities", "6",
                          "--per-cam", "4", "--reps", "3"], env=env,
                         capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    assert (doc["n_query"], doc["n_gallery"], doc["positives_per_query"],
            doc["reps"]) == (24, 72, 9, 3)
    assert 0 < doc["q1_s"] <= doc["median_s"] <= doc["q3_s"]

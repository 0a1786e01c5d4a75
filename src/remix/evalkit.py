"""Ranking metrics over the target: the cross-domain query/gallery split,
CMC Rank-k, mAP, and cluster purity by pair counts.

Protocol: gallery items sharing the query's identity AND camera are masked
out; equal scores break by ascending gallery index, but the BLAS product
can score identical gallery rows differently.
"""
from __future__ import annotations

import json

import numpy as np

from .datamodel import MultiCamDataset
from .encoder import EncoderParams, forward_batch
from .errors import (
    DimensionMismatchError,
    EmptyPoolError,
    NoValidPositiveError,
    NonFiniteEvaluationError,
)
from .numcore import atomic_write
from .pseudolabel import PseudoLabeledPool


# Queries per block. It bounds the temporaries at a few (32 x gallery)
# arrays, below the query-by-gallery similarity matrix.
_BLOCK = 32
# Thresholds compared per pass: the block's boolean comparison then holds
# as many bytes as one (32 x gallery) float64 array.
_PER_PASS = 8
# Permutations averaged by the shuffled-label baseline.
_SHUFFLES = 5


def _count_below(key, thr, compare, out):
    """Per row r of key and column c of thr: the number of entries x of
    key[r] with compare(x, thr[r, c]), for np.less or np.less_equal. `out`
    is a reusable (>= rows, _PER_PASS, gallery) boolean buffer."""
    counts = np.empty(thr.shape, dtype=np.int64)
    for c in range(0, thr.shape[1], _PER_PASS):
        t = thr[:, c:c + _PER_PASS]
        hits = compare(key[:, None, :], t[:, :, None],
                       out=out[:len(t), :t.shape[1]])
        # a row's count is below its gallery size, so int32 holds it
        counts[:, c:c + _PER_PASS] = np.bitwise_count(
            np.packbits(hits, axis=2)).sum(axis=2, dtype=np.int32)
    return counts


def _rank_queries(q_embs, q_ids, q_cams, g_embs, g_ids, g_cams):
    """Per query over the valid gallery: (1-based rank of the first correct
    match, average precision).

    The gallery is grouped by identity once, so a query's same-identity
    items are one slice of that order: those on the query's camera are
    masked out, the rest are its positives, in ascending gallery index. A
    positive's rank is one plus the valid gallery items that score higher,
    or score the same at a lower gallery index. Two counts over the query's
    row give it with no sort: `lt`, the keys (negated scores) strictly
    below the positive's, and `le`, those at or below it. The rank is
    1 + lt; where le - lt > 1 the key recurs, and the equal keys at a lower
    gallery index are counted and added. The work per query grows with its
    positives, each a comparison against the whole row, so past about 12
    positives per query one sort of the row would be cheaper.

    Identities and cameras are integer vectors with one entry per row of
    their side's embeddings, and both sides have the same width; anything
    else raises DimensionMismatchError.
    """
    q_embs = np.asarray(q_embs)
    g_embs = np.asarray(g_embs)
    q_ids = np.asarray(q_ids)
    q_cams = np.asarray(q_cams)
    g_ids = np.asarray(g_ids)
    g_cams = np.asarray(g_cams)
    for side, embs, ids, cams in (("query", q_embs, q_ids, q_cams),
                                  ("gallery", g_embs, g_ids, g_cams)):
        for name, arr in (("identities", ids), ("cameras", cams)):
            if embs.ndim != 2 or arr.shape != embs.shape[:1]:
                raise DimensionMismatchError(
                    f"{side} {name} have shape {arr.shape}, {side} "
                    f"embeddings {embs.shape}")
            # an empty list arrives as float64 and holds no bad value
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise DimensionMismatchError(
                    f"{side} {name} must be integers, got {arr.dtype}")
        # a NaN similarity would compare false both ways and take some
        # arbitrary rank
        bad = np.nonzero(~np.isfinite(embs).all(axis=1))[0]
        if len(bad):
            raise NonFiniteEvaluationError(
                f"{side} embedding {bad[0]} is not finite")
    if q_embs.shape[1] != g_embs.shape[1]:
        raise DimensionMismatchError(
            f"query embeddings have width {q_embs.shape[1]}, gallery "
            f"embeddings {g_embs.shape[1]}")
    if len(q_ids) == 0:
        raise EmptyPoolError("no queries to rank")
    # gallery indices by identity, ascending within one; query q's
    # same-identity items are the n_same[q] from by_id[lo[q]]
    by_id = np.argsort(g_ids, kind="stable")
    grouped = g_ids[by_id]
    lo = np.searchsorted(grouped, q_ids, side="left")
    n_same = np.searchsorted(grouped, q_ids, side="right") - lo
    # negation is exact, so q @ neg is -(q @ g.T) up to the sign of a zero,
    # and +0 and -0 compare equal
    neg = -g_embs.T
    scores = np.empty((_BLOCK, len(g_ids)))
    hits = np.empty((_BLOCK, _PER_PASS, len(g_ids)), dtype=bool)
    first = np.empty(len(q_ids), dtype=np.int64)
    ap = np.empty(len(q_ids))
    for start in range(0, len(q_ids), _BLOCK):
        b = slice(start, start + _BLOCK)
        key = np.matmul(q_embs[b], neg, out=scores[:len(q_embs[b])])
        # the block's slices of by_id end to end, tagged with their rows
        rows = np.repeat(np.arange(len(key)), n_same[b])
        skip = lo[b] - (np.cumsum(n_same[b]) - n_same[b])
        same = by_id[np.arange(len(rows)) + np.repeat(skip, n_same[b])]
        own_cam = g_cams[same] == q_cams[b][rows]
        key[rows[own_cam], same[own_cam]] = np.inf
        rows, pos = rows[~own_cam], same[~own_cam]
        n_pos = np.bincount(rows, minlength=len(key))
        if not n_pos.all():
            stranded = start + int(np.argmin(n_pos))
            raise NoValidPositiveError(f"query {stranded} has no valid positive")
        # each row's positive keys in gallery-index order, padded with -inf;
        # the padding's counts are never read
        starts = np.cumsum(n_pos) - n_pos
        col = np.arange(len(rows)) - starts[rows]
        thr = np.full((len(key), n_pos.max()), -np.inf)
        k_pos = key[rows, pos]
        thr[rows, col] = k_pos
        lt = _count_below(key, thr, np.less, hits)[rows, col]
        le = _count_below(key, thr, np.less_equal, hits)[rows, col]
        rank = 1 + lt
        for t in np.nonzero(le - lt > 1)[0]:
            rank[t] += np.count_nonzero(key[rows[t], :pos[t]] == k_pos[t])
        # positives by query, then by rank: the j-th of a query has
        # precision j / rank
        order = np.lexsort((rank, rows))
        rows, rank = rows[order], rank[order]
        j = np.arange(len(rank)) - starts[rows] + 1
        first[b] = rank[starts]
        ap[b] = np.bincount(rows, weights=j / rank, minlength=len(key)) / n_pos
    return first, ap


def mean_ap(q_embs, q_ids, q_cams, g_embs, g_ids, g_cams) -> float:
    """Mean over queries of average precision of the masked ranking."""
    _, ap = _rank_queries(q_embs, q_ids, q_cams, g_embs, g_ids, g_cams)
    return float(np.mean(ap))


def cluster_purity(pool: PseudoLabeledPool) -> float:
    """Size-weighted mean of the dominant hidden-identity fraction per
    cluster, from the count of each (pseudo label, hidden identity) pair."""
    if pool.frames.n_labels == 0:
        raise EmptyPoolError("no clusters in pool")
    _, hidden = np.unique(pool.corpus.hidden[pool.rows], return_inverse=True)
    span = int(hidden.max()) + 1
    pairs, counts = np.unique(pool.frames.labels() * span + hidden,
                              return_counts=True)
    best = np.zeros(pool.frames.n_labels, dtype=np.int64)
    np.maximum.at(best, pairs // span, counts)
    return int(best.sum()) / len(hidden)


def _query_gallery(params: EncoderParams, target: MultiCamDataset):
    """(embeddings, identities, cameras) of the queries, then of the
    gallery, both in dataset order: per (identity, camera), the lowest
    sample_id is the query and every other record is gallery. One forward
    pass embeds the whole target, with no augmentation."""
    feats = [s.features for s in target.samples]
    embs, _ = forward_batch(params, np.stack(feats) if feats
                            else np.empty((0, params.dim_in)))
    ids, cams, sids = np.array(
        [(s.identity, s.camera, s.sample_id) for s in target.samples],
        dtype=np.int64).reshape(-1, 3).T
    # by identity, camera, then sample_id: each group's first row is its query
    order = np.lexsort((sids, cams, ids))
    i, c = ids[order], cams[order]
    is_query = np.ones(len(order), dtype=bool)
    is_query[order[1:]] = (i[1:] != i[:-1]) | (c[1:] != c[:-1])
    return [(embs[m], ids[m], cams[m]) for m in (is_query, ~is_query)]


def evaluate(params: EncoderParams, target: MultiCamDataset) -> dict:
    """Cross-domain evaluation report over the target dataset."""
    query, gallery = _query_gallery(params, target)
    first, ap = _rank_queries(*query, *gallery)
    return {
        "rank1": float(np.mean(first <= 1)),
        "rank5": float(np.mean(first <= 5)),
        "rank10": float(np.mean(first <= 10)),
        "mAP": float(np.mean(ap)),
        "n_query": len(query[1]),
        "n_gallery": len(gallery[1]),
        "protocol": "cross-domain",
    }


def shuffled_label_baseline(params: EncoderParams, target: MultiCamDataset,
                            rng: np.random.Generator) -> float:
    """Chance-level mAP: permute gallery identities and re-score.

    Averaged over _SHUFFLES permutations; permutations that strand a query
    without a valid positive are redrawn.
    """
    query, (g_embs, g_ids, g_cams) = _query_gallery(params, target)
    maps = []
    attempts = 0
    while len(maps) < _SHUFFLES and attempts < 20 * _SHUFFLES:
        attempts += 1
        try:
            maps.append(mean_ap(*query, g_embs, rng.permutation(g_ids),
                                g_cams))
        except NoValidPositiveError:
            continue
    if not maps:
        raise NoValidPositiveError("no permutation left every query a positive")
    return float(np.mean(maps))


def write_report(path, report: dict) -> None:
    """Write the report as one JSON line, atomically."""
    with atomic_write(path) as fh:
        json.dump(report, fh)
        fh.write("\n")

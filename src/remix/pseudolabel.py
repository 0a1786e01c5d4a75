"""Per-video density clustering and the epoch-level pseudo-labeling loop.

Clustering is strictly per video (each person appears on only one video),
using cosine distance over momentum embeddings of the video's rows of the
corpus arrays. Pseudo label ids are fresh across the whole epoch, so
clusters from different videos never collide.
"""
from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .datamodel import CorpusFrames, LabelGroups, PersonSample
from .encoder import EncoderParams, forward_batch
from .errors import (
    BudgetUnreachableError,
    DimensionMismatchError,
    NonFiniteEvaluationError,
)

NOISE = -1


def _components(graph: np.ndarray) -> np.ndarray:
    """Component of each node of a symmetric boolean graph with a true
    diagonal, by lowest node: each node follows its lowest neighbour to a
    root, and the groups' graph (rows, then columns OR-ed) is solved next."""
    root = graph.argmax(axis=1)
    for _ in range(len(graph).bit_length()):
        root = root[root]
    head = root == np.arange(len(graph))
    if head.all():
        return root
    group = (head.cumsum() - 1)[root]
    order = np.argsort(root, kind="stable")  # a group's root comes first
    start = np.flatnonzero(head[order])
    rows = np.bitwise_or.reduceat(np.packbits(graph, axis=1)[order], start)
    cols = np.unpackbits(rows, axis=1, count=len(graph))[:, order]
    return _components(np.logical_or.reduceat(cols, start, axis=1))[group]


@functools.lru_cache
def _threshold(eps: float) -> float:
    """Least double t with 1 - clip(t, -1, 1) <= eps in float64, or -inf if
    -1 passes: bisection over [-1, 1] in bit-pattern order (63 steps)."""
    def at(k: int) -> np.float64:  # bit pattern k, or -k with the sign set
        return np.uint64(abs(k) | (k < 0) << 63).view(np.float64)
    keys = range(-0x3FF0_0000_0000_0000, 0x3FF0_0000_0000_0001)  # -1 to 1
    i = bisect.bisect_left(keys, True, key=lambda k: 1.0 - at(k) <= eps)
    return float(at(keys[i])) if i else -np.inf


def _neighbours(x: np.ndarray, eps: float) -> np.ndarray:
    """Mask of the row pairs within eps both ways. Any dot product is within
    gamma_d |x_i| |x_j| of exact: a one-way pair fails in [t - tol, t)."""
    sim = x @ x.T.copy()
    t = _threshold(eps)
    neigh = sim >= t
    tol = x.shape[1] * (2.0**-51 * sim.diagonal().max(initial=0) + 2.0**-1072)
    band = sim < t - tol  # equal to neigh (false) in the band and at NaN
    neigh.T.flat[np.flatnonzero(np.equal(band, neigh, out=band))] = False
    return neigh


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN over unit embeddings with distance 1 - cosine.

    Core iff >= min_pts neighbors within eps (self included, boundary
    inclusive). Clusters are the connected components of core points,
    numbered in ascending order of each cluster's first core point; a
    border point joins the lowest-numbered cluster that reaches it.
    Returns one label per point; NOISE (-1) marks unclustered points.

    Points must be a 2-D array (DimensionMismatchError) of finite values
    (NonFiniteEvaluationError, naming the first bad row). The similarities
    are one general matrix product (numpy's symmetric one is about three
    times slower here), each compared once with a threshold found per eps.
    The product's rounding can differ in the last bits across the diagonal,
    so a pair is neighbours only if both are within eps of each other.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError(f"points of shape {x.shape} are not 2-D")
    if not eps > 0 or min_pts < 1:
        raise ValueError("eps must be > 0 and min_pts >= 1")
    if not np.isfinite(x).all():
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))[0]
        raise NonFiniteEvaluationError(f"point {bad} is not finite")
    neigh = _neighbours(x, float(eps))
    core = np.bitwise_count(np.packbits(neigh, axis=1)).sum(axis=1) >= min_pts
    labels = np.full(x.shape[0], NOISE, dtype=np.int64)
    c = np.nonzero(core)[0]
    m = len(c)
    if m == 0:
        return labels
    adj = neigh if m == len(x) else neigh[np.ix_(c, c)]
    np.fill_diagonal(adj, True)
    cluster = _components(adj)
    labels[c] = cluster
    border = np.nonzero(~core)[0]
    owner = np.where(neigh[border][:, c], cluster, m).min(axis=1, initial=m)
    labels[border] = np.where(owner < m, owner, NOISE)
    return labels


@dataclass
class PseudoLabeledPool:
    """One epoch's labelled frames: raw features grouped by pseudo label,
    and in the same order their momentum embeddings and corpus rows."""
    frames: LabelGroups
    embeddings: np.ndarray  # (N, E)
    rows: np.ndarray  # (N,) row of each frame in `corpus`
    corpus: CorpusFrames
    noise_count: int = 0

    @property
    def entries(self) -> MappingProxyType[int, list[tuple[PersonSample, np.ndarray]]]:
        """Read-only view, built on each access: pseudo label -> its
        (frame, momentum embedding) pairs. Training never reads it."""
        samples = [self.corpus.samples[r] for r in self.rows]
        start = self.frames.start
        return MappingProxyType({g: list(zip(samples[a:b], self.embeddings[a:b]))
                                 for g, (a, b) in enumerate(zip(start, start[1:]))})


def pseudo_label_epoch(
    corpus: CorpusFrames,
    momentum: EncoderParams,
    eps: float,
    min_pts: int,
    budget: int,
    rng: np.random.Generator,
    min_labels: int = 0,
) -> PseudoLabeledPool:
    """Walk one random permutation of the videos, cluster each with DBSCAN
    over momentum embeddings, and collect its clusters under fresh pseudo
    labels. Each video is clustered at most once, so no frame carries two
    labels; the walk stops once `budget` non-noise images are labelled
    under at least `min_labels` pseudo labels, or when the videos run out."""
    if budget <= 0:
        raise ValueError("pseudo-label budget must be positive")
    kept = []  # per video: (corpus rows, embeddings, cluster sizes) by label
    noise_count = n_labeled = n_clusters = 0
    for v in rng.permutation(len(corpus.start) - 1):
        lo, hi = corpus.start[v], corpus.start[v + 1]
        embs, _ = forward_batch(momentum, corpus.features[lo:hi])
        labels = dbscan(embs, eps, min_pts)
        noise = int(np.count_nonzero(labels == NOISE))
        rows = np.argsort(labels, kind="stable")[noise:]  # clustered, by label
        sizes = np.bincount(labels[rows])
        kept.append((lo + rows, embs[rows], sizes))
        noise_count += noise
        n_labeled += len(rows)
        n_clusters += len(sizes)
        if n_labeled >= budget and n_clusters >= min_labels:
            break
    if n_labeled == 0:
        raise BudgetUnreachableError(
            "a full pass over the corpus produced zero non-noise images")
    rows, embeddings, sizes = (np.concatenate(a) for a in zip(*kept))
    frames = LabelGroups(corpus.features[rows], np.cumsum(np.r_[0, sizes]),
                         np.full(len(rows), -1))
    return PseudoLabeledPool(frames, embeddings, rows, corpus, noise_count)

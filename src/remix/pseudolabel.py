"""Per-video density clustering and the epoch-level pseudo-labeling loop.

Clustering is strictly per video (each person appears on only one video),
using cosine distance over momentum embeddings. Pseudo label ids are fresh
across the whole epoch, so clusters from different videos never collide.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import LabelGroups, PersonSample, SingleCamCorpus
from .encoder import EncoderParams, forward_batch
from .errors import BudgetUnreachableError

NOISE = -1


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN over unit embeddings with distance 1 - cosine.

    Core iff >= min_pts neighbors within eps (self included, boundary
    inclusive). Clusters are the connected components of core points,
    numbered in ascending order of each cluster's first core point; a
    border point joins the lowest-numbered cluster that reaches it.
    Returns one label per point; NOISE (-1) marks unclustered points.
    """
    x = np.asarray(points, dtype=np.float64)
    if eps <= 0 or min_pts < 1:
        raise ValueError("eps must be > 0 and min_pts >= 1")
    # in place: a fresh (n, n) temporary costs more than the arithmetic
    dist = x @ x.T
    np.clip(dist, -1.0, 1.0, out=dist)
    np.subtract(1.0, dist, out=dist)
    neigh = dist <= eps
    core = neigh.sum(axis=1) >= min_pts
    c = np.nonzero(core)[0]
    adj = neigh[c][:, c]
    # min-label propagation with pointer jumping: each core point ends
    # holding the lowest core position in its component
    m = len(c)
    root = np.arange(m)
    while True:
        new = np.minimum(root, np.where(adj, root, m).min(axis=1, initial=m))
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    _, cluster = np.unique(root, return_inverse=True)
    labels = np.full(x.shape[0], NOISE, dtype=np.int64)
    labels[c] = cluster
    border = np.nonzero(~core)[0]
    owner = np.where(neigh[border][:, c], cluster, m).min(axis=1, initial=m)
    labels[border] = np.where(owner < m, owner, NOISE)
    return labels


@dataclass
class PseudoLabeledPool:
    entries: dict[int, list[tuple[PersonSample, np.ndarray]]] = field(default_factory=dict)
    noise_count: int = 0
    # the labelled frames as arrays: raw features grouped by pseudo label,
    # and their momentum embeddings in the same order
    frames: LabelGroups | None = None
    embeddings: np.ndarray | None = None  # (N, E)


def default_budget(b_s: int, iterations: int) -> int:
    """Cap on the images pseudo-labelled per epoch: the single-camera slots
    times the iteration count. A corpus smaller than the cap is labelled
    whole, once."""
    return b_s * iterations


def pseudo_label_epoch(
    corpus: SingleCamCorpus,
    momentum: EncoderParams,
    eps: float,
    min_pts: int,
    budget: int,
    rng: np.random.Generator,
) -> PseudoLabeledPool:
    """Walk one random permutation of the videos, cluster each with DBSCAN
    over momentum embeddings, and collect its clusters under fresh pseudo
    labels. Each video is clustered at most once, so no frame carries two
    labels; the walk stops once `budget` non-noise images are labelled."""
    if budget <= 0:
        raise ValueError("pseudo-label budget must be positive")
    pool = PseudoLabeledPool()
    kept = []  # per video: (features, embeddings, cluster sizes) by label
    n_labeled = 0
    for vi in rng.permutation(len(corpus.videos)):
        _, frames = corpus.videos[int(vi)]
        x = np.stack([s.features for s in frames])
        embs, _ = forward_batch(momentum, x)
        labels = dbscan(embs, eps, min_pts)
        for c in range(int(labels.max()) + 1):
            idx = np.nonzero(labels == c)[0]
            pool.entries[len(pool.entries)] = [(frames[j], embs[j]) for j in idx]
        noise = int(np.count_nonzero(labels == NOISE))
        rows = np.argsort(labels, kind="stable")[noise:]  # clustered, by label
        kept.append((x[rows], embs[rows], np.bincount(labels[rows])))
        pool.noise_count += noise
        n_labeled += len(rows)
        if n_labeled >= budget:
            break
    if not pool.entries:
        raise BudgetUnreachableError(
            "a full pass over the corpus produced zero non-noise images")
    features, embeddings, sizes = (np.concatenate(a) for a in zip(*kept))
    pool.frames = LabelGroups(features, np.concatenate(([0], np.cumsum(sizes))),
                              np.full(len(features), -1))
    pool.embeddings = embeddings
    return pool

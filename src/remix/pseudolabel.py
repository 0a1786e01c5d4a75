"""Per-video density clustering and the epoch-level pseudo-labeling loop.

Clustering is strictly per video (each person appears on only one video),
using cosine distance over momentum embeddings. Pseudo label ids are fresh
across the whole epoch, so clusters from different videos never collide.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import PersonSample, SingleCamCorpus
from .encoder import EncoderParams, forward_batch
from .errors import BudgetUnreachableError
from .numcore import normalize

NOISE = -1


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Classic DBSCAN over unit embeddings with distance 1 - cosine.

    Core iff >= min_pts neighbors within eps (self included, boundary
    inclusive). Clusters are grown one at a time in ascending index order,
    so border points join the lowest-numbered cluster that reaches them.
    Returns one label per point; NOISE (-1) marks unclustered points.
    """
    x = np.asarray(points, dtype=np.float64)
    if eps <= 0 or min_pts < 1:
        raise ValueError("eps must be > 0 and min_pts >= 1")
    n = x.shape[0]
    dist = 1.0 - np.clip(x @ x.T, -1.0, 1.0)
    neigh = dist <= eps
    core = neigh.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    cid = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = cid
        queue = [i]
        while queue:
            j = queue.pop(0)
            for k in np.nonzero(neigh[j])[0]:
                if labels[k] == NOISE:
                    labels[k] = cid
                    if core[k]:
                        queue.append(int(k))
        cid += 1
    return labels


@dataclass
class PseudoLabeledPool:
    entries: dict[int, list[tuple[PersonSample, np.ndarray]]] = field(default_factory=dict)
    noise_count: int = 0
    centroids: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_labeled(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def samples_by_label(self) -> dict[int, list[PersonSample]]:
        return {pl: [s for s, _ in members] for pl, members in self.entries.items()}


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
    for vi in rng.permutation(len(corpus.videos)):
        _, frames = corpus.videos[int(vi)]
        embs, _ = forward_batch(momentum, np.stack([s.features for s in frames]))
        labels = dbscan(embs, eps, min_pts)
        for c in range(int(labels.max()) + 1):
            idx = np.nonzero(labels == c)[0]
            pl = len(pool.entries)
            pool.entries[pl] = [(frames[j], embs[j]) for j in idx]
            pool.centroids[pl] = normalize(embs[idx].mean(axis=0))
        pool.noise_count += int(np.sum(labels == NOISE))
        if pool.n_labeled >= budget:
            break
    if not pool.entries:
        raise BudgetUnreachableError(
            "a full pass over the corpus produced zero non-noise images")
    return pool

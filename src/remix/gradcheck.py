"""Finite-difference verification of each term of `losses.TERMS` composed
with the encoder.

Used both by the CLI `gradcheck` command and by the acceptance suite. The
probe builds random mixed batches, computes analytic parameter gradients
through each term and the encoder, and compares against central
differences on the flattened parameter vector.
"""
from __future__ import annotations

import numpy as np

from . import encoder as enc
from .losses import TERMS, BatchView, build_centroids
from .numcore import finite_diff_grad, normalize_rows, substream

# a term passes when its max relative error is at most this
TOLERANCE = 1e-4


def _random_case(rng, feat_dim, emb_dim, batch):
    """Mixed batch: the first half multi-camera (labels 0 and 1, random
    cameras), the rest single-camera (labels 2 and 3)."""
    half = batch // 2
    x = rng.standard_normal((batch, feat_dim))
    labels = np.concatenate([np.arange(half) * 2 // half,
                             2 + np.arange(batch - half) * 2 // (batch - half)])
    cameras = np.where(np.arange(batch) < half, rng.integers(3, size=batch), -1)
    m = normalize_rows(rng.standard_normal((batch, emb_dim)))
    bank = build_centroids(m, labels, cameras)
    return x, (labels, cameras), m, bank


def max_relative_errors(
    seed: int = 0,
    n_batches: int = 20,
    feat_dim: int = 16,
    emb_dim: int = 8,
    batch: int = 12,
    hidden: int = 8,
    h: float = 1e-5,
) -> dict[str, float]:
    """Max relative analytic-vs-FD parameter gradient error per term, by name."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    rng = substream(seed, "gradcheck")
    worst = {name: 0.0 for name in TERMS}
    for _ in range(n_batches):
        params = enc.init_params(feat_dim, [hidden], emb_dim, rng)
        x, rows, m, bank = _random_case(rng, feat_dim, emb_dim, batch)
        for name, (_, term) in TERMS.items():

            def scalar(flat):
                f, _ = enc.forward_batch(params.like(flat), x)
                loss, _ = term(BatchView(f, m, *rows), bank)
                return loss

            f, cache = enc.forward_batch(params, x)
            _, d_f = term(BatchView(f, m, *rows), bank)
            analytic = enc.backward_batch(params, cache, d_f).flat
            fd = finite_diff_grad(scalar, params.flat, h)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            err = float(np.max(np.abs(analytic - fd))) / scale
            worst[name] = max(worst[name], err)
    return worst

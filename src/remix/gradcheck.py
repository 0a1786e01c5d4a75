"""Finite-difference verification of each term of `losses.TERMS` composed
with the encoder.

Used both by the CLI `gradcheck` command and by the acceptance suite. The
probe builds random mixed batches, computes analytic parameter gradients
through each term and the encoder, and compares against central
differences on the flattened parameter vector. One probe per parameter
gives all four terms' differences; a term's analytic gradient is the
pass at its one-hot weights.
"""
from __future__ import annotations

import numpy as np

from . import encoder as enc
from .losses import TERMS, LossLayout, build_centroids, total_loss
from .numcore import finite_diff_grad, normalize_rows, substream

# a term passes when its max relative error is at most this
TOLERANCE = 1e-4
# the probe: rows per batch, the encoder's layer widths (input, hidden,
# embedding) and the central-difference step
BATCH = 12
FEAT_DIM, HIDDEN, EMB_DIM = 16, 8, 8
FD_STEP = 1e-5


def _random_case(rng):
    """Mixed batch: the first half multi-camera (labels 0 and 1, random
    cameras), the rest single-camera (labels 2 and 3), with its layout, a
    one-batch epoch's over a bank of m."""
    half = BATCH // 2
    x = rng.standard_normal((BATCH, FEAT_DIM))
    labels = np.concatenate([np.arange(half) * 2 // half,
                             2 + np.arange(BATCH - half) * 2 // (BATCH - half)])
    cameras = np.where(np.arange(BATCH) < half, rng.integers(3, size=BATCH), -1)
    m = normalize_rows(rng.standard_normal((BATCH, EMB_DIM)))
    bank = build_centroids(m, labels, cameras)
    return x, LossLayout(labels[None], cameras[None], bank), m


def max_relative_errors(seed: int = 0, n_batches: int = 20) -> dict[str, float]:
    """Max relative analytic-vs-FD parameter gradient error per term, by name."""
    if n_batches < 1:
        raise ValueError(f"n_batches must be >= 1, got {n_batches}")
    rng = substream(seed, "gradcheck")
    worst = {name: 0.0 for name in TERMS}
    for _ in range(n_batches):
        params = enc.init_params(FEAT_DIM, [HIDDEN], EMB_DIM, rng)
        x, layout, m = _random_case(rng)

        def parts(flat):
            f, _ = enc.forward_batch(params.like(flat), x)
            return list(total_loss(layout.view(0, f, m))[2].values())

        fd = finite_diff_grad(parts, params.flat, FD_STEP)
        f, cache = enc.forward_batch(params, x)
        view = layout.view(0, f, m)
        for j, name in enumerate(TERMS):
            _, d_f, _ = total_loss(view, np.eye(len(TERMS))[j])
            analytic = enc.backward_batch(params, cache, d_f).flat
            scale = max(float(np.max(np.abs(fd[:, j]))), 1e-12)
            err = float(np.max(np.abs(analytic - fd[:, j]))) / scale
            worst[name] = max(worst[name], err)
    return worst

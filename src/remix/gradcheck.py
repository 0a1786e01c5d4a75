"""Finite-difference verification of every loss composed with the encoder.

Used both by the CLI `gradcheck` command and by the acceptance suite. The
probe builds random mixed batches, computes analytic parameter gradients
through the loss and the encoder, and compares against central
differences on the flattened parameter vector.
"""
from __future__ import annotations

import numpy as np

from . import encoder as enc
from .losses import (
    BatchView,
    augmentation_loss,
    build_centroids,
    camera_centroids_loss,
    centroids_loss,
    instance_loss,
)
from .numcore import finite_diff_grad, normalize_rows, substream

LOSS_NAMES = ("instance", "augmentation", "centroids", "camera_centroids")


def _flatten(params: enc.EncoderParams) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in params.arrays()])


def _unflatten(flat: np.ndarray, like: enc.EncoderParams) -> enc.EncoderParams:
    arrays = like.arrays()
    cuts = np.cumsum([a.size for a in arrays])[:-1]
    return enc.EncoderParams.from_arrays(
        [part.reshape(a.shape) for part, a in zip(np.split(flat, cuts), arrays)])


def _random_case(rng, feat_dim, emb_dim, batch):
    """Mixed batch: the first half multi-camera (labels 0 and 1, random
    cameras), the rest single-camera (labels 2 and 3)."""
    half = batch // 2
    x = rng.standard_normal((batch, feat_dim))
    labels = np.concatenate([np.arange(half) * 2 // half,
                             2 + np.arange(batch - half) * 2 // (batch - half)])
    multi = np.arange(batch) < half
    cameras = np.where(multi, rng.integers(3, size=batch), -1)
    m = normalize_rows(rng.standard_normal((batch, emb_dim)))
    bank = build_centroids(m, labels, cameras)
    return x, (labels, multi, cameras), m, bank


def _loss_fn(name, view, bank, taus):
    if name == "instance":
        return instance_loss(view, taus["ins_m"], taus["ins_s"])
    if name == "augmentation":
        return augmentation_loss(view, taus["aug"])
    if name == "centroids":
        return centroids_loss(view, bank, taus["cen_m"], taus["cen_s"])
    if name == "camera_centroids":
        return camera_centroids_loss(view, bank, taus["cc"])
    raise ValueError(name)


def max_relative_errors(
    seed: int = 0,
    n_batches: int = 20,
    feat_dim: int = 16,
    emb_dim: int = 8,
    batch: int = 12,
    hidden: int = 8,
    h: float = 1e-5,
) -> dict[str, float]:
    """Max relative analytic-vs-FD parameter gradient error per loss."""
    rng = substream(seed, "gradcheck")
    taus = {"ins_m": 0.1, "ins_s": 0.2, "aug": 0.1,
            "cen_m": 0.5, "cen_s": 0.6, "cc": 0.07}
    worst = {name: 0.0 for name in LOSS_NAMES}
    for _ in range(n_batches):
        params = enc.init_params(feat_dim, [hidden], emb_dim, rng)
        x, rows, m, bank = _random_case(rng, feat_dim, emb_dim, batch)
        flat0 = _flatten(params)
        for name in LOSS_NAMES:

            def scalar(flat):
                p = _unflatten(flat, params)
                f, _ = enc.forward_batch(p, x)
                loss, _ = _loss_fn(name, BatchView(f, m, *rows), bank, taus)
                return loss

            f, cache = enc.forward_batch(params, x)
            _, d_f = _loss_fn(name, BatchView(f, m, *rows), bank, taus)
            d_w, d_b = enc.backward_batch(params, cache, d_f)
            analytic = _flatten(enc.EncoderParams(d_w, d_b))
            fd = finite_diff_grad(scalar, flat0, h)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            err = float(np.max(np.abs(analytic - fd))) / scale
            worst[name] = max(worst[name], err)
    return worst


def run_gradcheck(seed: int = 0, tol: float = 1e-4,
                  **kwargs) -> tuple[bool, dict[str, float]]:
    errors = max_relative_errors(seed=seed, **kwargs)
    return all(e <= tol for e in errors.values()), errors

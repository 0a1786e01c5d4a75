"""Minimal dense-vector numerics shared by the losses, encoder, and tests,
plus the atomic file write every artifact goes through.

Everything else here is a pure function over numpy arrays. Similarities
are cosine over unit-normalized vectors.
"""
from __future__ import annotations

import contextlib
import os
import zlib
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from .errors import NonFiniteEvaluationError, ZeroVectorError

NORM_FLOOR = 1e-12


@contextlib.contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Text handle on `<name>.tmp` beside path, renamed onto path when the
    block ends. On any failure the temp file is removed, so path holds
    either its previous content or the complete new one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent named RNG stream derived from one root seed.

    Streams with different names never overlap, so toggling one consumer
    (sampler, augmentation, ...) does not perturb the others.
    """
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode("utf-8"))])
    )


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector onto the unit sphere, preserving direction."""
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= NORM_FLOOR:
        raise ZeroVectorError(f"cannot normalize vector with norm {n:g}")
    return v / n


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise normalize; raises if any row is degenerate."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(norms <= NORM_FLOOR):
        raise ZeroVectorError("row with (near-)zero norm")
    return x / norms[..., None]


def finite_diff_grad(
    fn: Callable[[np.ndarray], float | np.ndarray], x: np.ndarray,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a function, one probe per axis; for
    an array-valued fn, the gradient of each value, x's axes first."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    xf = x.reshape(-1)
    rows = []
    for k in range(xf.size):
        step = np.zeros_like(xf)
        step[k] = h
        hi = np.asarray(fn((xf + step).reshape(x.shape)), dtype=np.float64)
        lo = np.asarray(fn((xf - step).reshape(x.shape)), dtype=np.float64)
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise NonFiniteEvaluationError(f"non-finite evaluation at axis {k}")
        rows.append((hi - lo) / (2.0 * h))
    return np.reshape(rows, x.shape + (np.shape(rows[0]) if rows else ()))

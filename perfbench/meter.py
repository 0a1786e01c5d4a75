"""Speed-normalised timing for a small shared machine.

On a 2-core machine shared with other tenants, the speed of one core
changes by up to 2x within seconds. There, the median wall time of
30-second windows of identical training work spread by 17-30% (quartile
distance over median), more than any useful regression bound.

So a timed call is cut into segments at call sites that recur through it
(each iteration and epoch of training, each ranking pass, each dataset
file), and a fixed reference loop is timed at every cut. A segment's wall
time divided by the mean of the reference samples on either side removes
the machine's momentary speed; multiplying by the reference's time on an
undisturbed core turns it back into seconds. Each step has a reference
shaped like its own work, because kinds of work slow down differently
under contention: repeated evaluations of the same models, normalised by
the training-shaped loop, still ranged over 22% of their median, and over
12% with the ranking-shaped loop. The loops are part of the benchmark,
not of the program, so a slower program still reads slower.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tracing

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 16))
_B = _RNG.standard_normal((256, 16))
_G = _RNG.standard_normal((3200, 16))
_G_IDS = _RNG.integers(0, 400, 3200)
_G_CAMS = _RNG.integers(0, 4, 3200)
_RECORDS = [{"sample_id": i, "features": [float(x) for x in _G[i]] * 2,
             "identity": i % 7, "camera": None} for i in range(64)]


def _train_loop() -> float:
    """Like the loss terms: an interpreter loop over small numpy calls."""
    acc = 0.0
    sims = _A @ _B.T
    for i in range(240):
        row = sims[i % 64]
        e = np.exp(row - row.max())
        s = e.sum()
        acc += float(np.log(s)) + float((e / s) @ _B[:, i % 16])
        acc += len({(j % 7, j) for j in range(16)}) * 1e-9
    return acc


def _eval_loop() -> float:
    """Like one ranking pass: mask, select and stable-sort a gallery row."""
    sims = _A[:16] @ _G.T
    acc = 0
    for q in range(16):
        valid = ~((_G_IDS == q) & (_G_CAMS == q % 4))
        idx = np.nonzero(valid)[0]
        order = np.argsort(-sims[q, idx], kind="stable")
        acc += int((_G_IDS[idx] == q)[order][:10].sum())
    return acc


def _setup_loop() -> float:
    """Like writing and reading dataset records: JSON of float lists."""
    acc = 0.0
    for r in _RECORDS:
        back = json.loads(json.dumps(r))
        acc += float(np.asarray(back["features"], dtype=np.float64)[0])
    return acc


@dataclass(frozen=True)
class Reference:
    loop: Callable[[], object]
    # Meter's sample of `loop` on an undisturbed core of the machine the
    # benchmark was defined on (2 shared x86-64 cores, Python 3.11,
    # numpy 2.4, OpenBLAS, one thread)
    seconds: float


TRAIN = Reference(_train_loop, 0.0019)
EVAL = Reference(_eval_loop, 0.0036)
SETUP = Reference(_setup_loop, 0.0020)


def sample(reference: Reference) -> float:
    """Fastest of two runs of the loop, so a stray interruption does not
    count."""
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        reference.loop()
        times.append(time.perf_counter() - t0)
    return min(times)


def measure(reference: Reference, cut_at, fn, *args, **kwargs):
    """Call fn, sampling the reference before each call made through the
    (module, attribute, name) sites in cut_at. Returns (result, wall
    seconds, normalised seconds); sampling time counts in neither."""
    segments = []  # (wall seconds, mean reference sample around it)
    ref = sample(reference)
    start = time.perf_counter()

    def cut():
        nonlocal ref, start
        wall = time.perf_counter() - start
        after = sample(reference)
        segments.append((wall, (ref + after) / 2))
        ref = after
        start = time.perf_counter()

    def cutting(_name, fn_at_site):
        def wrapped(*a, **kw):
            cut()
            return fn_at_site(*a, **kw)
        return wrapped

    with tracing.patched(cut_at, cutting):
        out = fn(*args, **kwargs)
    cut()
    wall = sum(w for w, _ in segments)
    return out, wall, reference.seconds * sum(w / r for w, r in segments)

#!/usr/bin/env python3
"""Time `losses.total_loss` and the epoch's loss layout on the batches of
a real first epoch.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=CHECKOUT/src \\
        python3 scripts/time_loss.py [--reps R] [--seed S]

For each of the benchmark's joint (the default config) and labeled_only
(`use_single_cam = false`) settings, `trainer.train` runs one epoch on
the default generator's data at seed S, and every `total_loss` call is
recorded with its batch, and the epoch's labels, cameras and bank with
them. Then, R times over, every recorded `total_loss` call is repeated
and timed, and so is the layout build: `LossLayout` on the epoch's
labels, cameras and bank. One more layout build, before the timed ones, runs under `tracemalloc` for
the bytes it keeps and the most it holds at once. One JSON object is
printed: per setting, the batch size, the iterations, the microseconds
per `total_loss` call and the milliseconds per layout build, each the
minimum over the R repeats of its mean over the epoch, and the layout's
retained and peak bytes.
The checkout is whichever `remix` is on the path, so two checkouts are
compared by running this once per checkout, alternating between them;
`scripts/ab_train.py` compares whole training runs of two checkouts in
one process.
"""
import argparse
import dataclasses
import json
import time
import tracemalloc

from remix import losses, trainer
from remix.config import RunConfig
from remix.datamodel import synth_generate

SETTINGS = {"joint": {}, "labeled_only": {"use_single_cam": False}}


def first_epoch(seed: int, overrides: dict):
    """The view of every total_loss call of one epoch at the setting, and
    the epoch's (labels, cameras, bank)."""
    cfg = RunConfig(seed=seed)
    cfg.train = dataclasses.replace(cfg.train, epochs=1, **overrides)
    multi, corpus, _ = synth_generate(cfg.generator, seed)
    calls, draws = [], []
    real_loss, real_layout = trainer.total_loss, trainer.LossLayout

    def recorded_loss(view):
        calls.append(view)
        return real_loss(view)

    def recorded_layout(labels, cameras, bank):
        draws.append((labels, cameras, bank))
        return real_layout(labels, cameras, bank)

    trainer.total_loss, trainer.LossLayout = recorded_loss, recorded_layout
    try:
        trainer.train(multi, corpus, cfg.validate())
    finally:
        trainer.total_loss, trainer.LossLayout = real_loss, real_layout
    return calls, draws[0]


def layout_bytes(labels, cameras, bank) -> tuple[int, int]:
    """The bytes a layout build keeps and the most it holds at once; the
    layout is dropped on return, before anything is timed."""
    tracemalloc.start()
    try:
        layout = losses.LossLayout(labels, cameras, bank)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    report = {}
    for name, overrides in SETTINGS.items():
        calls, (labels, cameras, bank) = first_epoch(args.seed, overrides)
        retained, peak = layout_bytes(labels, cameras, bank)
        loss_us, layout_ms = [], []
        for _ in range(args.reps):
            start = time.perf_counter()
            for view in calls:
                losses.total_loss(view)
            loss_us.append((time.perf_counter() - start) / len(calls) * 1e6)
            start = time.perf_counter()
            losses.LossLayout(labels, cameras, bank)
            layout_ms.append((time.perf_counter() - start) * 1e3)
        report[name] = {"batch": int(labels.shape[1]), "iters": len(calls),
                        "total_loss_us": min(loss_us),
                        "layout_ms": min(layout_ms),
                        "layout_retained_bytes": retained,
                        "layout_peak_bytes": peak}
    print(json.dumps({"seed": args.seed, "reps": args.reps, **report}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time `losses.total_loss` and the epoch's loss layout on the batches of
a real first epoch.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=CHECKOUT/src \\
        python3 scripts/time_loss.py [--reps R] [--seed S]

For each of the benchmark's joint (the default config) and labeled_only
(`use_single_cam = false`) settings, `trainer.train` runs one epoch on
the default generator's data at seed S, and every `total_loss` call is
recorded with its batch and bank, and the epoch's labels and cameras
with them. Then, R times over, every recorded `total_loss` call is
repeated and timed, and so is the layout build: `LossLayout` on the
epoch's labels and cameras and its `camera_pairs` for the bank. One JSON
object is printed: per setting, the batch size, the iterations, the
microseconds per `total_loss` call and the milliseconds per layout
build, each the minimum over the R repeats of its mean over the epoch.
The checkout is whichever `remix` is on the path, so two checkouts are
compared by running this once per checkout, alternating between them.
"""
import argparse
import dataclasses
import json
import time

from remix import losses, trainer
from remix.config import RunConfig
from remix.datamodel import synth_generate

SETTINGS = {"joint": {}, "labeled_only": {"use_single_cam": False}}


def first_epoch(seed: int, overrides: dict):
    """The (view, bank) of every total_loss call of one epoch at the
    setting, and the epoch's (labels, cameras)."""
    cfg = RunConfig(seed=seed)
    cfg.train = dataclasses.replace(cfg.train, epochs=1, **overrides)
    multi, corpus, _ = synth_generate(cfg.generator, seed)
    calls, draws = [], []
    real_loss, real_layout = trainer.total_loss, trainer.LossLayout

    def recorded_loss(view, bank):
        calls.append((view, bank))
        return real_loss(view, bank)

    def recorded_layout(labels, cameras):
        draws.append((labels, cameras))
        return real_layout(labels, cameras)

    trainer.total_loss, trainer.LossLayout = recorded_loss, recorded_layout
    try:
        trainer.train(multi, corpus, cfg.validate())
    finally:
        trainer.total_loss, trainer.LossLayout = real_loss, real_layout
    return calls, draws[0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    report = {}
    for name, overrides in SETTINGS.items():
        calls, (labels, cameras) = first_epoch(args.seed, overrides)
        bank = calls[0][1]
        loss_us, layout_ms = [], []
        for _ in range(args.reps):
            start = time.perf_counter()
            for view, bank in calls:
                losses.total_loss(view, bank)
            loss_us.append((time.perf_counter() - start) / len(calls) * 1e6)
            start = time.perf_counter()
            losses.LossLayout(labels, cameras).camera_pairs(bank.camera_present)
            layout_ms.append((time.perf_counter() - start) * 1e3)
        report[name] = {"batch": int(labels.shape[1]), "iters": len(calls),
                        "total_loss_us": min(loss_us),
                        "layout_ms": min(layout_ms)}
    print(json.dumps({"seed": args.seed, "reps": args.reps, **report}))


if __name__ == "__main__":
    main()

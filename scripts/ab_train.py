#!/usr/bin/env python3
"""Time `trainer.train` of two checkouts in one process, alternating.

Usage:
    python3 scripts/ab_train.py PARENT_DIR CHANGE_DIR [--reps R] [--seed S]

Each checkout's `src/remix` is imported under its own package name
(`remix_parent`, `remix_change`), so both run in one process, on the same
core at the same moments: a swing in the machine's speed meets both sides
alike, where separate runs of one checkout after the other can read a
quarter apart. For each of the benchmark's joint (default config) and
labeled_only (`use_single_cam = false`) settings, both at 2 epochs, each
side generates the default generator's data at seed S with its own
modules and trains once untimed. Then the two sides' `train` calls
alternate R times, the side that goes first swapping each round. One JSON
object is printed: per setting, each side's median and minimum seconds
per call, the change's median relative to the parent's, and whether the
two sides' data, and their final encoder, momentum copy, Adam moments,
step and metrics records, are equal bit for bit.
"""
import os
import sys

if __name__ == "__main__":
    # before numpy loads, as the benchmark does: one BLAS thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import argparse
import importlib
import importlib.util
import json
import statistics
import time
from pathlib import Path

SIDES = ("parent", "change")
SETTINGS = {"joint": {"epochs": 2},
            "labeled_only": {"epochs": 2, "use_single_cam": False}}


def load(side: str, checkout: str):
    """The checkout's remix package, imported as remix_<side>."""
    src = Path(checkout).resolve() / "src" / "remix"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no remix sources under {src}")
    name = f"remix_{side}"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout at one setting: its config and data, ready to train."""

    def __init__(self, package, seed: int, train: dict):
        config = importlib.import_module(f"{package.__name__}.config")
        datamodel = importlib.import_module(f"{package.__name__}.datamodel")
        self.trainer = importlib.import_module(f"{package.__name__}.trainer")
        self.cfg = config.config_from_dict({"seed": seed, "train": train})
        self.multi, corpus, _ = datamodel.synth_generate(self.cfg.generator,
                                                         seed)
        self.corpus = corpus if self.cfg.train.use_single_cam else None

    def train(self):
        return self.trainer.train(self.multi, self.corpus, self.cfg)

    def data(self) -> list:
        """Every generated sample's fields, features as bytes."""
        frames = [s for _, fs in self.corpus.videos for s in fs] \
            if self.corpus is not None else []
        return [(s.sample_id, s.identity, s.camera, s.video_id,
                 s.features.tobytes()) for s in self.multi.samples + frames]


def outcome(state) -> tuple:
    """What a run ends with, as bytes and plain values."""
    return (state.params.flat.tobytes(), state.momentum.flat.tobytes(),
            state.opt.m.tobytes(), state.opt.v.tobytes(), state.opt.step,
            json.dumps(state.metrics))


def compare(packages: dict, seed: int, train: dict, reps: int) -> dict:
    sides = {side: Side(packages[side], seed, train) for side in SIDES}
    ends = {side: outcome(s.train()) for side, s in sides.items()}
    times = {side: [] for side in SIDES}
    for r in range(reps):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            start = time.perf_counter()
            sides[side].train()
            times[side].append(time.perf_counter() - start)
    medians = {side: statistics.median(t) for side, t in times.items()}
    return {
        **{side: {"median_s": medians[side], "min_s": min(times[side])}
           for side in SIDES},
        "median_change": medians["change"] / medians["parent"] - 1.0,
        "same_data": sides["parent"].data() == sides["change"].data(),
        "same_result": ends["parent"] == ends["change"],
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_DIR")
    ap.add_argument("change", metavar="CHANGE_DIR")
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    packages = {side: load(side, getattr(args, side)) for side in SIDES}
    report = {name: compare(packages, args.seed, train, args.reps)
              for name, train in SETTINGS.items()}
    print(json.dumps({"seed": args.seed, "reps": args.reps, **report}))


if __name__ == "__main__":
    main()

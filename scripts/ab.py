#!/usr/bin/env python3
"""Time training, the loss pass and evaluation of two checkouts in one
process, alternating.

Usage:
    scripts/ab.py PARENT_DIR CHANGE_DIR [--reps R] [--seed S] [--per-cam K]

Both checkouts' `src/remix` run in one process (as `remix_parent` and
`remix_change`, one BLAS thread), so a swing in the machine's speed meets
both alike; separate runs can read a quarter apart. One checkout given twice
is timed alone. At the benchmark's joint (default config) and labeled_only
(`use_single_cam = false`) settings each side generates the default data at
seed S and trains 2 epochs untimed, recording the first epoch's `total_loss`
calls and `LossLayout` arguments; one more layout build runs under
`tracemalloc`. Each side evaluates the encoder training starts from on a
target of 400 identities, K samples per identity and camera (refresh's at
K = 3), once untimed. In each of R rounds, the side going first swapping each
round, a side runs per setting one `train`, every recorded `total_loss` call
(timed on a second pass, warm) and one layout build, then one `evaluate`.

Printed as JSON: the sizes (the parent's), the layout's retained and peak
bytes per side and, per measurement, each side's q1, median, q3 and
minimum, the change's median relative to the parent's and `same`, whether
both sides' outputs are equal bit for bit: for training the data and the
final encoder, momentum copy, Adam moments, step and metrics; for the
loss pass each recorded call's loss, gradient and parts; for a layout
build its fields; for evaluation the report.
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
import tracemalloc
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SIDES = ("parent", "change")
SETTINGS = {"joint": {"epochs": 2},
            "labeled_only": {"epochs": 2, "use_single_cam": False}}
IDENTITIES = 400  # target identities, as on the refresh workload
MODULES = ("config", "datamodel", "encoder", "evalkit", "losses", "numcore",
           "trainer")


def load(side: str, checkout: str) -> SimpleNamespace:
    """The checkout's remix modules, imported under remix_<side>."""
    src = Path(checkout).resolve() / "src" / "remix"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"error: no remix sources under {src}")
    name = f"remix_{side}"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in MODULES})


def plain(x):
    """x as nested plain values, floats in hex and arrays as bytes, so
    that equal means equal bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return plain(vars(x)) if hasattr(x, "__dict__") else x


def setting(remix, seed: int, overrides: dict) -> SimpleNamespace:
    """One checkout's timed calls at one setting, and their outputs."""
    cfg = remix.config.config_from_dict({"seed": seed, "train": overrides})
    multi, corpus, _ = remix.datamodel.synth_generate(cfg.generator, seed)
    data = plain(multi.samples + [s for _, fs in corpus.videos for s in fs])
    corpus = corpus if cfg.train.use_single_cam else None
    trainer, losses, views, draws = remix.trainer, remix.losses, [], []

    def recorded_loss(view):
        if len(draws) == 1:  # the first epoch's
            views.append(view)
        return losses.total_loss(view)

    def recorded_layout(*args):
        draws.append(args)
        return losses.LossLayout(*args)

    real = trainer.total_loss, trainer.LossLayout
    trainer.total_loss, trainer.LossLayout = recorded_loss, recorded_layout
    state = trainer.train(multi, corpus, cfg)
    trainer.total_loss, trainer.LossLayout = real
    tracemalloc.start()
    layout = losses.LossLayout(*draws[0])
    kept, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return SimpleNamespace(
        sizes={"batch": int(draws[0][0].shape[1]), "calls": len(views)},
        bytes={"layout_retained_bytes": kept, "layout_peak_bytes": peak},
        timed={  # (call, its scale, whether a warm-up call precedes it)
            "train_s": (lambda: trainer.train(multi, corpus, cfg), 1, False),
            "total_loss_us": (lambda: deque(map(losses.total_loss, views),
                                            maxlen=0), 1e6 / len(views), True),
            "layout_ms": (lambda: losses.LossLayout(*draws[0]), 1e3, False)},
        outputs={"train_s": (data, plain((state.params.flat,
                                          state.momentum.flat, state.opt,
                                          state.metrics))),
                 "total_loss_us": plain([losses.total_loss(v) for v in views]),
                 "layout_ms": plain(layout)})


def evaluation(remix, seed: int, per_cam: int) -> SimpleNamespace:
    """One checkout's timed evaluate call, under the encoder training
    starts from, and its report."""
    cfg = remix.datamodel.GeneratorConfig(
        n_target_identities=IDENTITIES, target_samples_per_id_per_cam=per_cam)
    target = remix.datamodel.synth_generate(cfg, seed)[2]
    params = remix.encoder.init_params(cfg.dim, remix.trainer.HIDDEN,
                                       remix.trainer.EMBED_DIM,
                                       remix.numcore.substream(seed, "init"))
    report = remix.evalkit.evaluate(params, target)
    return SimpleNamespace(
        sizes={"n_query": report["n_query"], "n_gallery": report["n_gallery"],
               "positives_per_query": ((cfg.n_target_cameras - 1)
                                       * (per_cam - 1))},
        timed={"evaluate_s": (lambda: remix.evalkit.evaluate(params, target),
                              1, False)},
        outputs={"evaluate_s": plain(report)})


def summary(times: dict, same: bool) -> dict:
    """Each side's quartiles and minimum, the change's median relative to
    the parent's, and whether the outputs are the same."""
    out = {}
    for side, t in times.items():
        q1, median, q3 = (statistics.quantiles(t, n=4, method="inclusive")
                          if len(t) > 1 else t * 3)
        out[side] = {"q1": q1, "median": median, "q3": q3, "min": min(t)}
    ratio = out["change"]["median"] / out["parent"]["median"]
    return {**out, "median_change": ratio - 1.0, "same": same}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_DIR")
    ap.add_argument("change", metavar="CHANGE_DIR")
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--per-cam", type=int, default=3)
    args = ap.parse_args()
    for flag, low in (("reps", 1), ("seed", 0), ("per_cam", 2)):
        if getattr(args, flag) < low:
            ap.error(f"--{flag.replace('_', '-')} must be >= {low}, "
                     f"got {getattr(args, flag)}")
    parts = {}
    for side in SIDES:
        remix = load(side, getattr(args, side))
        parts[side] = {name: setting(remix, args.seed, overrides)
                       for name, overrides in SETTINGS.items()}
        parts[side]["evaluate"] = evaluation(remix, args.seed, args.per_cam)
    times = {}
    for r in range(args.reps):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            for name, part in parts[side].items():
                for key, (call, scale, warm) in part.timed.items():
                    if warm:
                        call()
                    start = time.perf_counter()
                    call()
                    times.setdefault((side, name, key), []).append(
                        (time.perf_counter() - start) * scale)
    report = {}
    for name, p in parts["parent"].items():
        c = parts["change"][name]
        report[name] = {
            **p.sizes,
            **{k: {"parent": v, "change": c.bytes[k]}
               for k, v in getattr(p, "bytes", {}).items()},
            **{k: summary({side: times[side, name, k] for side in SIDES},
                          p.outputs[k] == c.outputs[k]) for k in p.timed}}
    print(json.dumps({"seed": args.seed, "reps": args.reps,
                      "per_cam": args.per_cam, **report}))


if __name__ == "__main__":
    main()

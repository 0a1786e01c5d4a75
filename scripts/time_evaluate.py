#!/usr/bin/env python3
"""Time `evalkit.evaluate` on a generated target under a random encoder.

Usage:
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=CHECKOUT/src \\
        python3 scripts/time_evaluate.py [--identities N] [--per-cam K] \\
        [--reps R] [--seed S]

The target is the default generator's with N target identities and K
samples per identity and camera: over its C cameras that is N * C queries,
N * C * (K - 1) gallery items and (C - 1) * (K - 1) positives per query.
The encoder is the one training starts from: `init_params(dim,
trainer.HIDDEN, trainer.EMBED_DIM)` drawn from `substream(S, "init")`.
After one warm-up call, R calls are timed one by one, and one JSON object
is printed: the sizes and the q1, median and q3 of the times in seconds. The checkout is whichever `remix` is on the
path, so two checkouts are compared by running this once per checkout,
alternating between them.
"""
import argparse
import json
import statistics
import time

from remix import encoder, trainer
from remix.datamodel import GeneratorConfig, synth_generate
from remix.evalkit import evaluate
from remix.numcore import substream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--identities", type=int, default=400)
    ap.add_argument("--per-cam", type=int, default=3)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.reps < 1:
        ap.error(f"--reps must be >= 1, got {args.reps}")
    cfg = GeneratorConfig(n_target_identities=args.identities,
                          target_samples_per_id_per_cam=args.per_cam)
    target = synth_generate(cfg, args.seed)[2]
    params = encoder.init_params(cfg.dim, trainer.HIDDEN, trainer.EMBED_DIM,
                                 substream(args.seed, "init"))
    report = evaluate(params, target)
    times = []
    for _ in range(args.reps):
        start = time.perf_counter()
        evaluate(params, target)
        times.append(time.perf_counter() - start)
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    print(json.dumps({
        "n_query": report["n_query"], "n_gallery": report["n_gallery"],
        "positives_per_query": ((cfg.n_target_cameras - 1)
                                * (args.per_cam - 1)),
        "reps": len(times), "q1_s": q1, "median_s": median, "q3_s": q3}))


if __name__ == "__main__":
    main()

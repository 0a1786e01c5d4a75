#!/usr/bin/env python3
"""Single-camera data ablation: train with the corpus enabled and disabled
over a few seeds and compare target-domain retrieval quality.

Usage:
    python3 scripts/run_ablation.py [--config PATH] [--seeds 0 1 2]
"""
import argparse
import json
import sys
import time

import numpy as np

from remix.config import RunConfig, apply_overrides, load_config
from remix.datamodel import synth_generate
from remix.evalkit import evaluate, shuffled_label_baseline
from remix.numcore import substream
from remix.trainer import train


def run_once(base: RunConfig, seed: int, use_single: bool):
    """Train one arm on a copy of base and evaluate its momentum encoder:
    the target report, the shuffled-label baseline mAP and the purity of
    each epoch (None where the corpus is off)."""
    cfg = apply_overrides(base, [
        f"seed={seed}", f"train.use_single_cam={json.dumps(use_single)}"])
    multi, corpus, target = synth_generate(cfg.generator, seed)
    state = train(multi, corpus if cfg.train.use_single_cam else None, cfg)
    report = evaluate(state.momentum, target)
    base_map = shuffled_label_baseline(state.momentum, target,
                                       substream(seed, "baseline"))
    return report, base_map, [m["purity"] for m in state.metrics]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=None)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args(argv)
    base = load_config(args.config) if args.config else RunConfig().validate()

    rows = []
    for seed in args.seeds:
        t0 = time.time()
        on, base_on, _ = run_once(base, seed, True)
        off, base_off, _ = run_once(base, seed, False)
        rows.append((seed, on["mAP"], off["mAP"],
                     0.5 * (base_on + base_off)))
        print(f"seed {seed}: mAP on={on['mAP']:.4f} off={off['mAP']:.4f} "
              f"rank1 on={on['rank1']:.4f} off={off['rank1']:.4f} "
              f"({time.time() - t0:.0f}s)")

    ons = [r[1] for r in rows]
    offs = [r[2] for r in rows]
    bases = [r[3] for r in rows]
    print(f"\nmean over {len(rows)} seeds:")
    print(f"  single-camera on   mAP {np.mean(ons):.4f}")
    print(f"  single-camera off  mAP {np.mean(offs):.4f}")
    print(f"  shuffled baseline  mAP {np.mean(bases):.4f}")
    print(f"  gap (on - off)     {np.mean(ons) - np.mean(offs):+.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

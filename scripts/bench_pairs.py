#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarise
each end-to-end metric.

Usage:
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B [--out FILE]

Both checkouts must declare the same benchmark in BENCHMARK.json and hold
byte-identical files under its `paths` (`__pycache__` aside), so that
both sides run the same benchmark code: otherwise the script stops
before any run. For each seed S in A..B (one pair per seed), the
benchmark command runs from the root of each checkout with
`--workload W --seed S --seconds <run_seconds> --trace 0`. The parent runs
first in even pairs and the change first in odd ones. Each run's
end-to-end metrics are printed with its attempted and failed operations.
Then, per metric: each side's [q1, median, q3] over the pairs, the pairs
in which the change read better (ties count for neither side; "better"
is the metric's direction in BENCHMARK.json), the relative change of the
median, whether a gain would hold (the change better in at least 9 of 10
pairs and the medians further apart than the parent's q3 - q1), and a
verdict on the metric's bound (`verdict`). Last, each side's failed share
(failed over attempted operations, summed over its runs), flagging a
change whose share is higher: more failures reject a change whatever its
metrics, and each side's median attempts per run, against which to read
peak_rss_mb. The summary is printed as one JSON object, the shape a
BENCH_<topic>.json holds, with the digest of the benchmark files, and
written to FILE with --out.
"""
import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """[q1, median, q3] with linear interpolation between order statistics
    (numpy's default percentile)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent, change, lower, bound):
    """'unresolved' when the parent's own spread, (q3 - q1) / |median|,
    is wider than the bound, unless every change run beats every parent
    run; otherwise 'within_bound' or 'beyond_bound' as the change's median
    is worse than the parent's by at most the bound or by more. Both are
    relative to the parent's |median|, or absolute when it is 0."""
    pq, cq = quartiles(parent), quartiles(change)
    scale = abs(pq[1]) or 1.0
    beats_all = (max(change) < min(parent) if lower
                 else min(change) > max(parent))
    if (pq[2] - pq[0]) / scale > bound and not beats_all:
        return "unresolved"
    worse_by = (cq[1] - pq[1] if lower else pq[1] - cq[1]) / scale
    return "within_bound" if worse_by <= bound else "beyond_bound"


def summarise(pairs, end_to_end):
    """Per metric, from the pairs' metric values.

    pairs: list of {"parent": {name: value}, "change": {name: value}}.
    end_to_end: BENCHMARK.json's list of {"name", "better", "bound"}.
    """
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        gap = cq[1] - pq[1] if not lower else pq[1] - cq[1]  # > 0: better
        out[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_better_in": f"{wins}/{len(pairs)}",
            "ties": ties,
            "median_change": (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0,
            "gain_holds": wins >= 0.9 * len(pairs) and gap > pq[2] - pq[0],
            "verdict": verdict(parent, change, lower, spec["bound"]),
        }
    return out


def failures(runs):
    """Each side's failed and attempted operations summed over the runs,
    its median attempts per run, its failed share (failed / attempted), and
    whether the change's share is the higher one, which rejects the change
    whatever its metrics. A run keeps every rep's outcome alive, so a side
    that fits more reps in the window reads more peak memory."""
    out = {f"{key}_operations": {side: sum(r[side][key] for r in runs)
                                 for side in SIDES}
           for key in ("failed", "attempted")}
    out["attempted_median"] = {
        side: statistics.median(r[side]["attempted"] for r in runs)
        for side in SIDES}
    out["failed_share"] = {side: out["failed_operations"][side]
                           / out["attempted_operations"][side]
                           for side in SIDES}
    out["change_fails_more"] = \
        out["failed_share"]["change"] > out["failed_share"]["parent"]
    return out


def benchmark_digest(root: Path, paths):
    """sha256 over each file under `paths` (relative to root), skipping
    __pycache__ directories: its path, its size and its bytes, in sorted
    path order, so a renamed, added or edited file changes the digest."""
    files = []
    for p in paths:
        top = root / p
        found = [top] if top.is_file() else top.rglob("*")
        files += [f for f in found if f.is_file() and
                  "__pycache__" not in f.relative_to(root).parts]
    h = hashlib.sha256()
    for f in sorted(files, key=lambda f: f.relative_to(root).as_posix()):
        data = f.read_bytes()
        h.update(f"{f.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(lo, hi + 1))


def run_once(root: Path, command, workload, seed, seconds):
    """One benchmark run: (environment line, result object)."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"benchmark failed in {root} (seed {seed}):\n{proc.stderr}")
    env = next((json.loads(line[5:]) for line in lines
                if line.startswith("env: ")), None)
    return env, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="inclusive range A-B, one pair per seed")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    specs = [json.loads((d / "BENCHMARK.json").read_text(encoding="utf-8"))
             for d in (args.parent, args.change)]
    keys = ("command", "paths", "run_seconds", "end_to_end")
    if any(specs[0][k] != specs[1][k] for k in keys):
        sys.exit("the checkouts declare different benchmarks")
    bench = specs[1]
    digests = {benchmark_digest(d, bench["paths"])
               for d in (args.parent, args.change)}
    if len(digests) != 1:
        sys.exit(f"the checkouts' benchmark files differ under "
                 f"{', '.join(bench['paths'])}")
    roots = dict(zip(SIDES, (args.parent, args.change)))
    runs, pairs, machine = [], [], None
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            env, result = run_once(roots[side], bench["command"],
                                   args.workload, seed, bench["run_seconds"])
            machine = machine or env
            values = {k: m["value"] for k, m in result["metrics"].items()}
            run[side] = {"attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values}
            print(f"seed {seed} {side}: attempted {result['attempted']} "
                  f"failed {result['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
        runs.append(run)
        pairs.append({side: run[side]["metrics"] for side in SIDES})
    summary = {
        "workload": args.workload,
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
        "command": " ".join(bench["command"]) + f" --workload {args.workload}"
                   f" --seed S --seconds {bench['run_seconds']} --trace 0",
        "machine": machine,
        "benchmark_digest": digests.pop(),
        **failures(runs),
        "end_to_end": summarise(pairs, bench["end_to_end"]),
        "runs": runs,
    }
    for name, s in summary["end_to_end"].items():
        print(f"{name}: parent {s['parent_q1_median_q3']} change "
              f"{s['change_q1_median_q3']} change better in "
              f"{s['change_better_in']} (ties {s['ties']}) "
              f"gain_holds={s['gain_holds']} verdict={s['verdict']}")
    shares = summary["failed_share"]
    print(f"failed share: parent {shares['parent']:.4g} change "
          f"{shares['change']:.4g}"
          + (" -- the change fails more" if summary["change_fails_more"]
             else ""))
    attempts = summary["attempted_median"]
    print(f"median attempts per run: parent {attempts['parent']:g} "
          f"change {attempts['change']:g}")
    text = json.dumps(summary, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

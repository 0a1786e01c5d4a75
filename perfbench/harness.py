"""The remix benchmark: workloads, measurement, output checks and the
result line. `run.py` is the command-line entry point.

A run drives the public API the way `remix generate`, `remix train` and
`remix eval` do, in one process: synth_generate, save_dataset and the
loaders (set-up), trainer.train with checkpoint and metrics paths, then
evalkit.evaluate on the target set.

Quality on this synthetic data is dominated by the world a seed draws
(the target camera styles) and by the encoder's random initialisation:
target mAP of one seed ranges from 0.2 to 0.9 at the sizes used here.
So a run trains several worlds derived from its seed, and reports quality
as the gain over the untrained encoder on the same worlds, which cancels
both. The raw figures are printed, and reported per layer when traced.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from remix import datamodel, encoder, evalkit, trainer
from remix.config import RunConfig, config_from_dict

import tracing
import meter

# world k of a run uses seed + k * WORLD_STRIDE, so the worlds of
# different run seeds do not overlap
WORLD_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict  # GeneratorConfig overrides
    train: dict  # TrainConfig overrides
    worlds: int  # distinct seeds trained per untraced run
    eval_repeats: int  # evaluate calls per trained model, for a steady eval_s


WORKLOADS = {w.name: w for w in (
    # default config; losses dominate, pseudo-labelling makes a second pass
    Workload("joint", {}, {"epochs": 2}, worlds=10, eval_repeats=5),
    # the ablation's "off" arm: 32-sample batches, no pseudo-labelling
    Workload("labeled_only", {}, {"epochs": 2, "use_single_cam": False},
             worlds=12, eval_repeats=5),
    # epoch-start heavy: 16x corpus labelled in one pass per epoch, a
    # checkpoint every epoch, few iterations, and a 10x target
    Workload("refresh",
             {"n_single_identities": 480, "frames_per_identity": 16,
              "n_target_identities": 400},
             {"epochs": 10, "iters_per_epoch": 5,
              "pseudo_label_budget": 480 * 16, "checkpoint_every": 1},
             worlds=3, eval_repeats=2),
)}

END_TO_END = {
    "setup_s": "s", "train_s": "s", "train_samples_per_s": "1/s",
    "eval_s": "s", "peak_rss_mb": "MB", "target_mAP_gain": "x",
    "target_rank1_gain": "x", "success_share": "ratio",
}


def make_config(workload: Workload, seed: int) -> RunConfig:
    return config_from_dict({"seed": seed,
                             "generator": dict(workload.generator),
                             "train": dict(workload.train)})


def uses_corpus(cfg: RunConfig) -> bool:
    return cfg.train.use_single_cam and cfg.train.n_p_single > 0


def batch_size(cfg: RunConfig) -> int:
    t = cfg.train
    single = t.n_p_single * t.n_k_single if uses_corpus(cfg) else 0
    return t.n_p_multi * t.n_k_multi + single


# --- the three steps a user runs ------------------------------------------

# each timed step: its reference loop, and the call sites where the
# machine's speed is sampled again
SETUP_STEP = (meter.SETUP, [(datamodel, "save_dataset", "io"),
                            (datamodel, "load_samples", "io")])
TRAIN_STEP = (meter.TRAIN, [(trainer, "run_epoch", "epoch"),
                            (trainer, "compose_batch", "iteration")])
EVAL_STEP = (meter.EVAL, [(evalkit, "cmc_rank_k", "rank"),
                          (evalkit, "mean_ap", "rank")])


def timed(step, normalise: bool, fn, *args, **kwargs):
    """(result, wall seconds, reported seconds). The reported time is the
    speed-normalised one, or the wall time when normalise is false."""
    if normalise:
        return meter.measure(*step, fn, *args, **kwargs)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, wall, wall


@dataclass
class Data:
    multi: datamodel.MultiCamDataset
    corpus: datamodel.SingleCamCorpus | None  # None when training skips it
    target: datamodel.MultiCamDataset


def setup(cfg: RunConfig, out: Path) -> tuple[Data, Data]:
    """What `remix generate` does, plus the loads at the start of
    `remix train` and `remix eval`. Returns (generated, loaded)."""
    multi, corpus, target = datamodel.synth_generate(cfg.generator, cfg.seed)
    d = cfg.generator.dim
    frames = [s for _, fs in corpus.videos for s in fs]
    datamodel.save_dataset(out / cfg.io.multicam_path, multi.samples, d)
    datamodel.save_dataset(out / cfg.io.corpus_path, frames, d)
    datamodel.save_dataset(out / cfg.io.target_path, target.samples, d)
    loaded = Data(
        datamodel.load_multicam(out / cfg.io.multicam_path),
        datamodel.load_corpus(out / cfg.io.corpus_path)
        if uses_corpus(cfg) else None,
        datamodel.load_multicam(out / cfg.io.target_path))
    return Data(multi, corpus if uses_corpus(cfg) else None, target), loaded


@dataclass
class Outcome:
    state: trainer.TrainState
    reports: list[dict]
    train_s: float
    train_wall_s: float
    eval_s: list[float] = field(default_factory=list)
    eval_wall_s: list[float] = field(default_factory=list)


def train_and_eval(cfg: RunConfig, data: Data, out: Path, eval_repeats: int,
                   normalise: bool = False) -> Outcome:
    state, wall, reported = timed(
        TRAIN_STEP, normalise, trainer.train, data.multi, data.corpus, cfg,
        checkpoint_path=out / cfg.io.checkpoint_path,
        metrics_path=out / cfg.io.metrics_path)
    o = Outcome(state, [], reported, wall)
    for _ in range(eval_repeats):
        report, wall, reported = timed(EVAL_STEP, normalise, evalkit.evaluate,
                                       state.momentum, data.target)
        o.reports.append(report)
        o.eval_wall_s.append(wall)
        o.eval_s.append(reported)
    return o


# --- output checks ----------------------------------------------------------


def _sample_key(s: datamodel.PersonSample):
    return (s.sample_id, s.identity, s.camera, s.source, s.video_id,
            s.hidden_identity, s.features.tobytes())


def _frames(corpus: datamodel.SingleCamCorpus) -> list:
    return [s for _, frames in corpus.videos for s in frames]


def check_setup(generated: Data, loaded: Data) -> list[str]:
    """The files read back must hold exactly what was generated."""
    problems = []
    pairs = [("multi", generated.multi.samples, loaded.multi.samples),
             ("target", generated.target.samples, loaded.target.samples)]
    if generated.corpus is not None:
        pairs.append(("corpus", _frames(generated.corpus),
                      _frames(loaded.corpus)))
    for name, a, b in pairs:
        if [_sample_key(s) for s in a] != [_sample_key(s) for s in b]:
            problems.append(f"{name} dataset changed in the JSONL round trip")
    return problems


def files_digest(cfg: RunConfig, out: Path) -> str:
    h = hashlib.sha256()
    for p in (cfg.io.multicam_path, cfg.io.corpus_path, cfg.io.target_path):
        h.update((out / p).read_bytes())
    return h.hexdigest()


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_outcome(cfg: RunConfig, o: Outcome, out: Path) -> list[str]:
    """Checks on what train and evaluate returned and wrote."""
    problems = []
    t, g = cfg.train, cfg.generator
    records = o.state.metrics
    if len(records) != t.epochs:
        problems.append(f"{len(records)} metrics records, {t.epochs} epochs")
    for r in records:
        purity = r.get("purity")
        if any(not _finite(v) for k, v in r.items() if k != "purity"):
            problems.append(f"non-finite value in metrics record {r}")
        if uses_corpus(cfg) != (purity is not None):
            problems.append(f"purity {purity} with the corpus "
                            f"{'on' if uses_corpus(cfg) else 'off'}")
        elif purity is not None and not (_finite(purity)
                                         and 0.0 <= purity <= 1.0):
            problems.append(f"purity {purity} outside [0, 1]")
    lines = (out / cfg.io.metrics_path).read_text(encoding="utf-8")
    if lines.splitlines() != [json.dumps(r) for r in records]:
        problems.append("metrics file differs from the returned records")
    ckpt = out / cfg.io.checkpoint_path
    _, epoch, _, momentum, _ = encoder.load_checkpoint(ckpt)
    if epoch != t.epochs or any(
            not np.array_equal(a, b)
            for a, b in zip(momentum.arrays(), o.state.momentum.arrays())):
        problems.append("checkpoint does not hold the momentum encoder")
    if t.checkpoint_every > 0:
        for e in range(t.checkpoint_every, t.epochs, t.checkpoint_every):
            name = f"{ckpt.stem}.epoch{e}{ckpt.suffix}"
            if not ckpt.with_name(name).is_file():
                problems.append(f"no checkpoint for epoch {e}")
    report = o.reports[0]
    if any(r != report for r in o.reports[1:]):
        problems.append("repeated evaluations disagree")
    n_query = g.n_target_identities * g.n_target_cameras
    n_gallery = n_query * (g.target_samples_per_id_per_cam - 1)
    if (report["n_query"], report["n_gallery"]) != (n_query, n_gallery):
        problems.append(f"query/gallery {report['n_query']}/"
                        f"{report['n_gallery']}, expected {n_query}/"
                        f"{n_gallery}")
    if not 0.0 < report["mAP"] <= 1.0:
        problems.append(f"mAP {report['mAP']} outside (0, 1]")
    if not (0.0 <= report["rank1"] <= report["rank5"] <= report["rank10"]
            <= 1.0):
        problems.append(f"CMC not monotone in [0, 1]: {report}")
    return problems


# --- one benchmark run ------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def attempt(self, fn, *args):
        """Run one operation; a raise or a returned problem marks it failed.
        Returns the operation's result, or None when it failed."""
        self.attempted += 1
        try:
            result, problems = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return result


@dataclass
class World:
    cfg: RunConfig
    data: Data
    init_report: dict | None = None
    first: tuple | None = None  # (metrics records, report) of its first run


def _median(values):
    return statistics.median(values) if values else float("nan")


class Runner:
    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tally = Tally()
        self.wall = {}  # raw wall-time medians, printed beside the metrics
        self.raw_quality = {}  # mean raw mAP and rank-1, printed too
        self._n_dirs = 0

    def _fresh_dir(self) -> Path:
        self._n_dirs += 1
        out = self.workdir / f"op{self._n_dirs}"
        out.mkdir()
        return out

    def _prepare(self, k: int, repeats: int, normalise: bool = False
                 ) -> tuple[World | None, list[tuple[float, float]]]:
        """Set a world up `repeats` times; each set-up must write the same
        bytes and read back what it generated. Also returns the (wall,
        reported) seconds of each set-up."""
        cfg = make_config(self.workload, self.seed + k * WORLD_STRIDE)
        times, digests, world = [], [], None

        def once():
            out = self._fresh_dir()
            (generated, loaded), wall, reported = timed(
                SETUP_STEP, normalise, setup, cfg, out)
            times.append((wall, reported))
            digests.append(files_digest(cfg, out))
            shutil.rmtree(out)
            problems = check_setup(generated, loaded)
            if len(set(digests)) > 1:
                problems.append("set-up is not byte-deterministic")
            return World(cfg, loaded), problems

        for _ in range(repeats):
            world = self.tally.attempt(once) or world
        return world, times

    def _run_world(self, world: World, normalise: bool):
        """Train and evaluate once; the same world must reproduce exactly."""
        out = self._fresh_dir()
        try:
            o = train_and_eval(world.cfg, world.data, out,
                               self.workload.eval_repeats, normalise)
            problems = check_outcome(world.cfg, o, out)
        finally:
            shutil.rmtree(out)
        result = (o.state.metrics, o.reports[0])
        if world.first is None:
            world.first = result
        elif result != world.first:
            problems.append("a repeated run of one seed differed")
        return o, problems

    def untraced(self) -> dict:
        w = self.workload
        deadline = time.perf_counter() + self.seconds
        setup_s, worlds = [], []
        for k in range(w.worlds):
            world, times = self._prepare(k, repeats=2, normalise=True)
            setup_s.extend(times)
            if world is None:
                continue
            init = trainer.init_state(world.cfg, world.cfg.generator.dim)
            world.init_report = evalkit.evaluate(init.momentum,
                                                 world.data.target)
            worlds.append(world)
        if not worlds:
            raise RuntimeError("no world could be set up: "
                               + "; ".join(self.tally.problems))
        outcomes, trained, rep_s = [], {}, []
        rep = 0
        while rep < len(worlds) or \
                time.perf_counter() + _median(rep_s) <= deadline:
            world = worlds[rep % len(worlds)]
            t0 = time.perf_counter()
            o = self.tally.attempt(self._run_world, world, True)
            rep_s.append(time.perf_counter() - t0)
            if o is not None:
                outcomes.append((world.cfg, o))
                trained[rep % len(worlds)] = (world, o.reports[0])
            rep += 1
        if not outcomes:
            raise RuntimeError("every run failed: "
                               + "; ".join(self.tally.problems))
        gains = {}
        for key in ("mAP", "rank1"):
            after = sum(report[key] for _, report in trained.values())
            before = sum(wd.init_report[key] for wd, _ in trained.values())
            gains[key] = after / before if before > 0 else float("inf")
        train_s = _median([o.train_s for _, o in outcomes])
        cfg = outcomes[0][0]
        self.wall = {
            "setup_s": _median([wall for wall, _ in setup_s]),
            "train_s": _median([o.train_wall_s for _, o in outcomes]),
            "eval_s": _median([s for _, o in outcomes for s in o.eval_wall_s]),
        }
        self.raw_quality = {
            key: statistics.fmean(r[key] for _, r in trained.values())
            for key in ("mAP", "rank1")}
        return {
            "setup_s": _median([reported for _, reported in setup_s]),
            "train_s": train_s,
            "train_samples_per_s": batch_size(cfg) * cfg.train.iters_per_epoch
            * cfg.train.epochs / train_s,
            "eval_s": _median([s for _, o in outcomes for s in o.eval_s]),
            "peak_rss_mb": peak_rss_mb(),
            "target_mAP_gain": gains["mAP"],
            "target_rank1_gain": gains["rank1"],
            "success_share": 1.0 - self.tally.failed / self.tally.attempted,
        }

    def traced(self, spans_path: Path | None
               ) -> tuple[dict, list[tracing.Tracer]]:
        """Alternate untraced and traced runs of one world. A traced run
        sets up, trains and evaluates under the tracer, and must reproduce
        the untraced run exactly."""
        deadline = time.perf_counter() + self.seconds
        world, _ = self._prepare(0, repeats=1)
        if world is None:
            raise RuntimeError("set-up failed: "
                               + "; ".join(self.tally.problems))
        plain_s, traced_s, tracers, pair_s = [], [], [], []

        def traced_run():
            tracer = tracing.Tracer()
            out = self._fresh_dir()
            try:
                with tracing.traced(tracer):
                    generated, loaded = setup(world.cfg, out)
                    o = train_and_eval(world.cfg, loaded, out,
                                       self.workload.eval_repeats)
                problems = check_setup(generated, loaded)
                problems += check_outcome(world.cfg, o, out)
            finally:
                shutil.rmtree(out)
            if (o.state.metrics, o.reports[0]) != world.first:
                problems.append("tracing changed the records or report")
            return (tracer, o.train_s), problems

        while not tracers or time.perf_counter() + _median(pair_s) <= deadline:
            t0 = time.perf_counter()
            o = self.tally.attempt(self._run_world, world, False)
            if o is not None:
                plain_s.append(o.train_s)
                done = self.tally.attempt(traced_run)
                if done is not None:
                    tracers.append(done[0])
                    traced_s.append(done[1])
            pair_s.append(time.perf_counter() - t0)
            if not tracers and len(pair_s) >= 3:
                raise RuntimeError("no traced run succeeded: "
                                   + "; ".join(self.tally.problems))
        if spans_path is not None:
            spans_path.unlink(missing_ok=True)
            for i, tracer in enumerate(tracers):
                tracer.write(spans_path, rep=i)
        per_rep = [layer_metrics(t, world.cfg) for t in tracers]
        metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
        metrics["trace.overhead_s"] = _median(traced_s) - _median(plain_s)
        return metrics, tracers


def layer_metrics(tracer: tracing.Tracer, cfg: RunConfig) -> dict:
    """Per-layer figures of one traced run (units in per_layer_units)."""
    m = {}
    self_s = tracer.self_seconds()
    calls = {name: tracer.calls(name) for name in tracing.SPAN_NAMES}
    for name in tracing.SPAN_NAMES:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in sorted(tracing.WRITES_FILE):
        m[f"{name}.bytes"] = tracer.bytes_written.get(name, 0)
    pools = tracer.pools
    epochs = max(len(pools), 1)  # without the corpus these all read 0
    members = [[s.sample_id for ms in p.entries.values() for s, _ in ms]
               for p in pools]
    labelled = max(sum(len(ids) for ids in members), 1)
    m["pseudolabel.dbscan_calls_per_video"] = (
        calls["pseudolabel.dbscan"] / (epochs * cfg.generator.n_videos))
    m["pseudolabel.unique_frame_ratio"] = (
        sum(len(set(ids)) for ids in members) / labelled)
    m["pseudolabel.clusters"] = sum(len(p.entries) for p in pools) / epochs
    m["pseudolabel.noise"] = sum(p.noise_count for p in pools) / epochs
    m["pseudolabel.purity"] = (
        sum(evalkit.cluster_purity(p) for p in pools) / epochs)
    m["evalkit.ranking_passes"] = (
        (calls["evalkit.cmc_rank_k"] + calls["evalkit.mean_ap"])
        / calls["evalkit.evaluate"])
    m["evalkit.mAP"] = tracer.reports[0]["mAP"]
    m["evalkit.rank1"] = tracer.reports[0]["rank1"]
    return m


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in sorted(tracing.WRITES_FILE):
        units[f"{name}.bytes"] = "bytes"
    units.update({
        "pseudolabel.dbscan_calls_per_video": "count",
        "pseudolabel.unique_frame_ratio": "ratio",
        "pseudolabel.clusters": "count",
        "pseudolabel.noise": "count",
        "pseudolabel.purity": "ratio",
        "evalkit.ranking_passes": "count",
        "evalkit.mAP": "ratio",
        "evalkit.rank1": "ratio",
        "trace.overhead_s": "s",
    })
    return units


def train_shares(tracer: tracing.Tracer) -> dict[str, float]:
    """Share of trainer.train wall time spent in each span's own code."""
    spans = tracer.spans
    in_train, own = [], [s.end - s.start for s in spans]
    for s in spans:
        in_train.append(s.name == "trainer.train"
                        or (s.parent >= 0 and in_train[s.parent]))
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    shares: dict[str, float] = {}
    for s, inside, t in zip(spans, in_train, own):
        if inside:
            shares[s.name] = shares.get(s.name, 0.0) + t
    total = sum(shares.values())
    return {k: v / total for k, v in shares.items()}


# --- environment and entry point --------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        workdir: Path, spans_path: Path | None = None, log=print) -> dict:
    runner = Runner(workload, seed, seconds, workdir)
    if trace:
        values, tracers = runner.traced(spans_path)
        units = per_layer_units()
        shares = train_shares(tracers[0])
        by_layer: dict[str, float] = {}
        for name, share in shares.items():
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + share
        log("share of trainer.train by layer: " + json.dumps(
            {k: round(v, 3) for k, v in sorted(by_layer.items())}))
        log("share of trainer.train by span: " + json.dumps(
            {k: round(v, 3) for k, v in
             sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.01}))
    else:
        values = runner.untraced()
        units = END_TO_END
        log("raw target quality (mean over worlds): " + json.dumps(
            {k: round(v, 4) for k, v in runner.raw_quality.items()}))
        log("wall-time medians before speed normalisation: " + json.dumps(
            {k: round(v, 4) for k, v in runner.wall.items()}))
    for problem in runner.tally.problems:
        log(f"FAILED: {problem}")
    for k, unit in units.items():
        log(f"{k} = {values[k]:.6g} {unit}")
    return {
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {k: {"value": values[k], "unit": unit}
                    for k, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    root = Path(__file__).resolve().parent.parent
    print("env: " + json.dumps(environment()))
    (root / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / ".perfbench_work"))
    spans_path = None
    if args.trace:
        (root / ".perfbench_out").mkdir(exist_ok=True)
        spans_path = (root / ".perfbench_out"
                      / f"spans-{args.workload}-{args.seed}.jsonl")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0

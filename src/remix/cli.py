"""Command-line entry point: generate / train / eval / gradcheck.

Exit codes: 0 success, 1 usage or config error, 2 runtime error,
3 gradient-check failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import datamodel, encoder, evalkit, trainer
from .config import RunConfig, apply_overrides, load_config
from .errors import DimensionMismatchError, InvalidConfigError, RemixError
from .gradcheck import TOLERANCE, max_relative_errors


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig().validate()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _resolve(out_dir: str | None, path: str) -> Path:
    p = Path(path)
    if out_dir is not None and not p.is_absolute():
        return Path(out_dir) / p
    return p


def _file_path(value: str) -> str:
    """An argument that must name a file, like the config's io paths."""
    if not Path(value).name:
        raise argparse.ArgumentTypeError(f"names no file: {value!r}")
    return value


def cmd_generate(args) -> int:
    cfg = _load(args)
    multi, corpus, target = datamodel.synth_generate(cfg.generator, cfg.seed)
    out = args.out
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    d = cfg.generator.dim
    n1 = datamodel.save_dataset(_resolve(out, cfg.io.multicam_path),
                                multi.samples, d)
    frames = [s for _, fs in corpus.videos for s in fs]
    n2 = datamodel.save_dataset(_resolve(out, cfg.io.corpus_path), frames, d)
    n3 = datamodel.save_dataset(_resolve(out, cfg.io.target_path),
                                target.samples, d)
    print(f"multi-camera: {n1} records")
    print(f"single-camera: {n2} records")
    print(f"target: {n3} records")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    out = args.out
    multi = datamodel.load_multicam(_resolve(out, cfg.io.multicam_path))
    corpus = (datamodel.load_corpus(_resolve(out, cfg.io.corpus_path))
              if cfg.train.use_single_cam else None)
    state = trainer.train(multi, corpus, cfg,
                          checkpoint_path=_resolve(out, cfg.io.checkpoint_path),
                          metrics_path=_resolve(out, cfg.io.metrics_path))
    print(f"trained {state.epoch} epochs; "
          f"checkpoint: {_resolve(out, cfg.io.checkpoint_path)}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    out = args.out
    ckpt = (args.checkpoint if args.checkpoint is not None
            else str(_resolve(out, cfg.io.checkpoint_path)))
    _, _, _, momentum, _ = encoder.load_checkpoint(ckpt)
    target_path = _resolve(out, cfg.io.target_path)
    target = datamodel.load_multicam(target_path)
    if target.samples and len(target.samples[0].features) != momentum.dim_in:
        raise DimensionMismatchError(
            f"the target {target_path} has "
            f"{len(target.samples[0].features)}-wide features, the encoder "
            f"of {ckpt} takes {momentum.dim_in}-wide ones")
    report = evalkit.evaluate(momentum, target)
    report_path = _resolve(out, cfg.io.report_path)
    evalkit.write_report(report_path, report)
    print(f"mAP={report['mAP']:.4f} rank1={report['rank1']:.4f} "
          f"-> {report_path}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.seed < 0 or args.batches < 1:
        print(f"error: --seed must be >= 0 and --batches >= 1, got "
              f"{args.seed} and {args.batches}", file=sys.stderr)
        return 1
    errors = max_relative_errors(seed=args.seed, n_batches=args.batches)
    for name, err in errors.items():
        status = "PASS" if err <= TOLERANCE else "FAIL"
        print(f"{status} {name}: max relative error {err:.3e}")
    return 0 if max(errors.values()) <= TOLERANCE else 3


def _add_common(p):
    p.add_argument("--config", metavar="PATH", help="JSON run config")
    p.add_argument("--set", metavar="K=V", action="append", default=[],
                   help="override a config key (dotted path), repeatable")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="directory prefix for relative io paths")


def _config_reference() -> str:
    lines = ["configuration keys (for --config files and --set overrides):",
             "  seed = 0"]
    for section_field in dataclasses.fields(RunConfig):
        if section_field.name == "seed":
            continue
        cls = section_field.default_factory
        for f in dataclasses.fields(cls):
            lines.append(f"  {section_field.name}.{f.name} = {f.default}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="remix",
                     description="Joint contrastive training on mixed "
                                 "multi-camera and single-camera data",
                     epilog=_config_reference(),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic dataset files")
    _add_common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train and write checkpoint + metrics")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate the momentum encoder on the "
                                    "target domain")
    _add_common(p)
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   type=_file_path)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all "
                                         "loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=20,
                   help="number of random batches to probe")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RemixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

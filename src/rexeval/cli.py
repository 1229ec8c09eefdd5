"""Command-line entry point: one subcommand per pipeline stage.

Exit status 0 on success, 1 with a stage-named diagnostic on any
pipeline failure, 2 for usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .config import AIR_MODES, TLAE_MODES, RunConfig, apply_overrides, load_config
from .pipeline import STAGES, StageError, run_pipeline
from .report import format_table


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI run configuration (defaults apply without one)")
    common.add_argument("--out", metavar="DIR", help="run directory override")
    common.add_argument("--seed-corpus", type=int, metavar="INT")
    common.add_argument("--seed-model", type=int, metavar="INT")
    common.add_argument("--seed-eval", type=int, metavar="INT")
    common.add_argument("--models", metavar="LIST",
                        help="comma-separated roster names to run")
    common.add_argument("--metrics", metavar="LIST",
                        help="comma-separated metric names to compute")
    common.add_argument("--k", type=int, metavar="INT",
                        help="candidates per gold review in rank evaluation")
    common.add_argument("--n-explanations", type=int, metavar="INT",
                        help="evaluation pool size (clamped to the test split)")
    common.add_argument("--air-mode", choices=AIR_MODES)
    common.add_argument("--tlae-mode", choices=TLAE_MODES)
    common.add_argument("--audit", action="store_true",
                        help="write per-instance audit logs")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="rexeval",
        description="faithfulness and coherence evaluation for "
                    "explanation-generating recommender models")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    descriptions = {
        "gen-corpus": "build (or import) the review corpus",
        "train": "fit every trainable roster model",
        "generate": "dump rating predictions and explanations for the test pool",
        "evaluate": "score all metric cells against persisted artifacts",
        "report": "render the results as a table",
        "run-all": "run every stage in order",
    }
    for name, helptext in descriptions.items():
        sub.add_parser(name, parents=[common], help=helptext, description=helptext)
    return parser


def _configure(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        config,
        out_dir=args.out,
        seed_corpus=args.seed_corpus,
        seed_model=args.seed_model,
        seed_eval=args.seed_eval,
        models=args.models,
        metrics=args.metrics,
        k=args.k,
        n_explanations=args.n_explanations,
        air_mode=args.air_mode,
        tlae_mode=args.tlae_mode,
        audit=True if args.audit else None,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _configure(args)
    except (ValueError, OSError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    try:
        stage = run_pipeline if args.command == "run-all" else STAGES[args.command]
        result = stage(config, log)
        if args.command in ("run-all", "report"):
            print(format_table(result), end="")
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

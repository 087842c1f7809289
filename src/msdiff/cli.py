"""Command-line entry point: run certification suites from a config file.

Exit codes: 0 when every selected suite passes, 1 when any certification
check fails, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import (
    KNOWN_SUITES, ParseError, ValidationError, check_suites, load_config
)
from .suites import execute


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msdiff",
        description="Certify the multicomponent diffusion solver against a run configuration.",
    )
    parser.add_argument("config", help="path to a key = value configuration file")
    parser.add_argument(
        "--suite",
        action="append",
        choices=KNOWN_SUITES,
        help="run only this suite (repeatable; overrides the config)",
    )
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--out", help="override the configured output directory")
    parser.add_argument(
        "--workers", type=int, help="override the configured worker count"
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.suite:
            cfg = replace(cfg, suites=list(dict.fromkeys(args.suite)))
            check_suites(cfg)
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError("--seed must be >= 0")
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.workers is not None:
            if args.workers < 1:
                raise ValidationError("--workers must be >= 1")
            cfg = replace(cfg, workers=args.workers)
        return execute(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry point: run certification suites from a config file.

Exit codes: 0 when every selected suite passes, 1 when any certification
check fails, 2 for configuration errors, some found only as suites run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (
    KNOWN_SUITES, ParseError, ValidationError, _diffusivity_extremes, _quote_param,
    check_scalar, check_suites, load_config,
)
from .flux import DeltaOutOfRange, SingularComposition
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
            cfg = replace(cfg, seed=check_scalar("seed", args.seed, "--"))
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.workers is not None:
            cfg = replace(cfg, workers=check_scalar("workers", args.workers, "--"))
        if cfg.suites:
            try:
                os.makedirs(cfg.out_dir, exist_ok=True)
            except OSError as exc:
                raise ValidationError(
                    f"cannot create output directory {cfg.out_dir}: {exc.strerror}"
                ) from None
        try:
            return execute(cfg)
        except SingularComposition as exc:
            quoted = ", ".join(_quote_param(cfg, key) for key in _diffusivity_extremes(cfg))
            raise ValidationError(f"{quoted}: the force-flux solve fails on this D: {exc}") from None
        except DeltaOutOfRange as exc:
            raise ValidationError(f"{_quote_param(cfg, 'delta')}: {exc}") from None
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

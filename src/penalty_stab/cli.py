"""Command-line front end.

Usage::

    penalty-stab simulate      --config cfg.json --out dir/ [--override k=v ...]
    penalty-stab convergence   --config cfg.json --out dir/ [--override k=v ...]
    penalty-stab epsilon-study --config cfg.json --out dir/ [--override k=v ...]

Exit codes: 0 on success, 1 when the config (or command line) fails
validation, 2 when a run fails at solver level or runs out of memory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, PenaltyStabError
from .harness import RUNNERS, apply_overrides, load_config, validate_config

_KIND_BY_COMMAND = {
    "simulate": "decay",
    "convergence": "space_convergence",
    "epsilon-study": "epsilon_study",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penalty-stab",
        description="Penalized boundary-feedback stabilization experiments "
                    "for a cubic reaction-diffusion equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in _KIND_BY_COMMAND.items():
        p = sub.add_parser(command, help=f"run a {kind.replace('_', ' ')} experiment")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field by dotted path; value is parsed as "
                            "JSON when possible (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return 0 if exc.code in (0, None) else 1

    kind = _KIND_BY_COMMAND[args.command]
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, args.override)
        resolved = validate_config(cfg, kind)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path below one
        print(f"error: cannot create output directory {out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    try:
        result = RUNNERS[kind](resolved, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PenaltyStabError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid within the size bound may still not fit
        print(f"run failed: out of memory ({str(exc) or 'no detail'})", file=sys.stderr)
        return 2

    for path in result.files:
        print(f"wrote {path}")
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    if result.failures:
        for failure in result.failures:
            print(f"run failure: {failure}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

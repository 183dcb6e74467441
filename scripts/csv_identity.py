"""Check that the shipped configs give the same numeric CSV rows as a git revision.

Usage::

    python3 scripts/csv_identity.py REV

Each config in ``configs/`` of the working tree is run through the CLI twice:
once with the package of the working tree and once with the package of
revision ``REV``, exported by ``git archive`` into a temporary directory.
Both sides read the working tree's configs, so only the program differs.
Every CSV either side writes is compared on its header and data rows and on
its ``#`` metadata block (resolved config, rate report, variant), all but the
``# version:`` line, which names the revision.  One verdict line is printed
per config.  The exit status is 0 when every config matches and 1 on any
difference, including a differing CLI exit status.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

COMMANDS = {"decay": "simulate", "space_convergence": "convergence",
            "epsilon_study": "epsilon-study"}


def _export(root: Path, rev: str, dest: Path) -> Path:
    """Extract the tree of ``rev`` into ``dest`` and return its ``src`` directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run(src: Path, config: Path, out: Path) -> int:
    """Run the CLI of the package under ``src`` on ``config``; return its exit status."""
    kind = json.loads(config.read_text())["experiment"]["kind"]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "penalty_stab", COMMANDS[kind],
                           "--config", str(config), "--out", str(out)],
                          cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _parts(path: Path) -> tuple[list[str], list[str]] | None:
    """The metadata lines but the version line, and the numeric rows, of a CSV."""
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#") and not line.startswith("# version:")]
    return meta, [line for line in lines if not line.startswith("#")]


def compare(root: Path, rev: str) -> bool:
    """Print one verdict per config; return whether all of them match."""
    configs = sorted((root / "configs").glob("*.json"))
    all_equal = True
    with tempfile.TemporaryDirectory(prefix="csv-identity-") as tmp:
        tmp = Path(tmp)
        sides = {"tree": root / "src", "rev": _export(root, rev, tmp / "rev")}
        for config in configs:
            outs = {side: tmp / "out" / side / config.stem for side in sides}
            codes = {}
            for side, src in sides.items():
                outs[side].parent.mkdir(parents=True, exist_ok=True)
                codes[side] = _run(src, config, outs[side])
            problems = []
            if len(set(codes.values())) > 1:
                problems.append(f"exit status {codes}")
            names = sorted({p.name for out in outs.values() for p in out.glob("*.csv")})
            if not names:
                problems.append("no CSV written")
            for name in names:
                parts = [_parts(out / name) for out in outs.values()]
                if parts[0] is None or parts[1] is None:
                    problems.append(f"{name} missing on one side")
                    continue
                (meta_a, rows_a), (meta_b, rows_b) = parts
                if meta_a != meta_b:
                    problems.append(f"{name} metadata differs")
                if rows_a != rows_b:
                    first = next((i for i, (a, b) in enumerate(zip(rows_a, rows_b)) if a != b),
                                 min(len(rows_a), len(rows_b)))
                    problems.append(f"{name} differs from numeric line {first}")
            verdict = "identical" if not problems else "DIFFERENT: " + "; ".join(problems)
            print(f"{config.name}: {verdict} ({', '.join(names)}; exit {codes['tree']})")
            all_equal = all_equal and not problems
    return all_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    return 0 if compare(Path(__file__).resolve().parent.parent, args.rev) else 1


if __name__ == "__main__":
    raise SystemExit(main())

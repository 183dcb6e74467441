"""Check that the shipped configs give the same numeric CSV rows as a git revision.

Usage::

    python3 scripts/csv_identity.py REV [--override KEY=VALUE ...]

Each config in ``configs/`` of the working tree is run through the CLI twice:
once with the package of the working tree and once with the package of
revision ``REV``, exported by ``git archive`` into a temporary directory.
Both sides read the working tree's configs, so only the program differs.
Each ``--override`` is passed to every CLI call on both sides, for example
``--override newton.tol=1e-14`` to compare studies whose runs fail.
Every CSV either side writes is compared on its header and data rows and on
its ``#`` metadata block (resolved config, rate report, variant), all but the
``# version:`` line, which names the revision.  Every SVG either side writes
is compared byte for byte.  One verdict line is printed per config, naming
each file that differs or that one side did not write.  A differing metadata
block is named by the ``#`` keys that ``REV`` lacks, that the working tree
lacks or whose values differ, each as ``added``, ``removed`` or ``changed``
going from ``REV`` to the working tree; within a JSON object value such as
``config``, by the dotted path of each such field (``config.newton.tol
changed``).  When a CSV's rows differ but its header and row count agree,
one more line per differing column gives the largest absolute and relative
difference over its rows; a cell that is not a finite number on both sides
counts as an infinite difference.  The exit status is 0 when every config
matches and 1 on any difference, including a differing CLI exit status.
"""

from __future__ import annotations

import argparse
import io
import json
import math
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


def _run(src: Path, config: Path, out: Path, overrides: list[str]) -> int:
    """Run the CLI of the package under ``src`` on ``config``; return its exit status."""
    kind = json.loads(config.read_text())["experiment"]["kind"]
    env = dict(os.environ, PYTHONPATH=str(src))
    extra = [arg for item in overrides for arg in ("--override", item)]
    return subprocess.run([sys.executable, "-m", "penalty_stab", COMMANDS[kind],
                           "--config", str(config), "--out", str(out), *extra],
                          cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _parts(path: Path) -> tuple[list[str], list[str]] | None:
    """The metadata lines but the version line, and the numeric rows, of a CSV."""
    if not path.exists():
        return None
    lines = path.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#") and not line.startswith("# version:")]
    return meta, [line for line in lines if not line.startswith("#")]


def _metadata(lines: list[str]) -> dict:
    """The ``# key: value`` lines as a dict, each value parsed as JSON when it is JSON."""
    meta = {}
    for line in lines:
        key, _, value = line[1:].partition(":")
        try:
            meta[key.strip()] = json.loads(value)
        except ValueError:
            meta[key.strip()] = value.strip()
    return meta


def _changes(old, new, path: str = "") -> list[str]:
    """The dotted paths that ``new`` adds to, removes from or changes in ``old``.

    Objects are compared field by field, in the order of ``old`` and then the
    fields only ``new`` has; any other value is compared as its JSON text.
    """
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if json.dumps(old) == json.dumps(new) else [f"{path} changed"]
    changes = []
    for key in [*old, *(key for key in new if key not in old)]:
        sub = f"{path}.{key}" if path else key
        if key not in new:
            changes.append(f"{sub} removed")
        elif key not in old:
            changes.append(f"{sub} added")
        else:
            changes += _changes(old[key], new[key], sub)
    return changes


def _column_sizes(rows_a: list[str], rows_b: list[str]) -> dict[str, tuple[float, float]]:
    """The largest absolute and relative difference of each differing column.

    Empty when the headers or the row counts differ, which the verdict line
    already names.  The relative difference is taken against the larger
    magnitude of the two cells.
    """
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return {}
    header = rows_a[0].split(",")
    sizes: dict[str, tuple[float, float]] = {}
    for line_a, line_b in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(header, line_a.split(","), line_b.split(",")):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
                size = abs(x - y)
            except ValueError:
                size = math.nan
            if math.isfinite(size):
                scale = max(abs(x), abs(y))
                rel = size / scale if scale else 0.0
            else:
                size = rel = math.inf
            old_size, old_rel = sizes.get(name, (0.0, 0.0))
            sizes[name] = (max(old_size, size), max(old_rel, rel))
    return sizes


def compare_outputs(out_a: Path, out_b: Path) -> tuple[list[str], list[str], list[str]]:
    """Compare the CSVs and SVGs of two output directories.

    Returns the problems (one per file that differs or is missing on one
    side, or ``no CSV written``), the lines giving the size of each
    differing CSV column, and the names of the files compared.  Metadata
    changes are named going from ``out_a`` to ``out_b``.
    """
    outs = (out_a, out_b)
    problems, sizes = [], []
    names = sorted({p.name for out in outs for p in out.glob("*.csv")})
    if not names:
        problems.append("no CSV written")
    for name in names:
        parts = [_parts(out / name) for out in outs]
        if parts[0] is None or parts[1] is None:
            problems.append(f"{name} missing on one side")
            continue
        (meta_a, rows_a), (meta_b, rows_b) = parts
        if meta_a != meta_b:
            changes = _changes(_metadata(meta_a), _metadata(meta_b)) or ["in layout only"]
            problems.append(f"{name} metadata differs: {', '.join(changes)}")
        if rows_a != rows_b:
            first = next((i for i, (a, b) in enumerate(zip(rows_a, rows_b)) if a != b),
                         min(len(rows_a), len(rows_b)))
            problems.append(f"{name} differs from numeric line {first}")
            sizes += [f"  {name} {column}: max abs {size:.3g}, max rel {rel:.3g}"
                      for column, (size, rel) in _column_sizes(rows_a, rows_b).items()]
    svgs = sorted({p.name for out in outs for p in out.glob("*.svg")})
    for name in svgs:
        paths = [out / name for out in outs]
        if not all(path.exists() for path in paths):
            problems.append(f"{name} missing on one side")
        elif paths[0].read_bytes() != paths[1].read_bytes():
            problems.append(f"{name} differs")
    return problems, sizes, names + svgs


def compare(root: Path, rev: str, overrides: list[str]) -> bool:
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
                codes[side] = _run(src, config, outs[side], overrides)
            problems, sizes, names = compare_outputs(outs["rev"], outs["tree"])
            if len(set(codes.values())) > 1:
                problems.insert(0, f"exit status {codes}")
            verdict = "identical" if not problems else "DIFFERENT: " + "; ".join(problems)
            print(f"{config.name}: {verdict} ({', '.join(names)}; exit {codes['tree']})")
            for line in sizes:
                print(line)
            all_equal = all_equal and not problems
    return all_equal


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree against")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="config override passed to every CLI call (repeatable)")
    args = parser.parse_args(argv)
    return 0 if compare(Path(__file__).resolve().parent.parent, args.rev, args.override) else 1


if __name__ == "__main__":
    raise SystemExit(main())

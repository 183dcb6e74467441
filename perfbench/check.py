"""Output check for one CLI run, made from outside the program.

:func:`check_run` verifies that every expected CSV exists, parses with
``harness.read_csv``, has the expected row count and holds only finite
numbers, then applies the study's own physics check:

* decay: the controlled ``l2_norm`` column obeys the certified energy bound
  ``l2[n]^2 <= exp(-2*gamma*t_n) * l2[0]^2 * (1 + 1e-12)`` with
  ``gamma = params.max_decay_rate``;
* convergence: every row after the first has ``order_l2`` within 0.5 of 2.

It also counts the simulations attempted and the ones that reported a Newton
failure, and digests the numeric rows (header and data, not the ``#``
metadata block, whose ``# version`` line changes with the commit).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from penalty_stab.harness import read_csv
from penalty_stab.params import ModelParams, max_decay_rate

# Gain rules of the shipped configs, restated so the check does not rely on
# the program's own resolution of them.
GAIN_RULES = {"sqrt_eps": lambda eps: math.sqrt(eps),
              "sqrt_2eps": lambda eps: math.sqrt(2.0 * eps)}


class CheckError(Exception):
    """An output of the run is missing or wrong."""


@dataclass(frozen=True)
class RunOutcome:
    failed: int
    digest: str


def _expected_tables(kind: str, cfg: dict) -> dict[str, int]:
    """CSV file name -> expected data-row count."""
    exp = cfg["experiment"]
    if kind == "decay":
        variants = ["penalized_feedback"]
        if exp.get("include_uncontrolled", False):
            variants.append("uncontrolled_dirichlet")
        return {f"decay_{v}.csv": cfg["time"]["n_steps"] + 1 for v in variants}
    if kind == "space_convergence":
        return {"convergence.csv": len(exp["n_elements_list"])}
    return {"epsilon_study.csv": len(exp["epsilons"])}


def simulations(kind: str, cfg: dict) -> int:
    """Number of simulations one run of ``kind`` with input ``cfg`` attempts."""
    exp = cfg["experiment"]
    if kind == "decay":
        return 2 if exp.get("include_uncontrolled", False) else 1
    if kind == "space_convergence":
        return 1 + 2 * len(exp["n_elements_list"])  # shared control reference + coarse/reference pairs
    return len(exp["epsilons"])


def _numeric(path: Path, rows: list[list[str]], width: int) -> list[list[float | None]]:
    """Parse every cell; empty cells (documented ``None``) are allowed on row 0 only."""
    table = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CheckError(f"{path.name} row {i}: {len(row)} cells, header has {width}")
        parsed = []
        for cell in row:
            if cell == "" and i == 0:
                parsed.append(None)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise CheckError(f"{path.name} row {i}: non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise CheckError(f"{path.name} row {i}: non-finite cell {cell!r}")
            parsed.append(value)
        table.append(parsed)
    return table


def _check_decay_bound(cfg: dict, header: list[str], table) -> None:
    model = cfg["model"]
    eps = model["epsilon"]
    r = GAIN_RULES[model["r"]](eps) if isinstance(model["r"], str) else float(model["r"])
    gamma = max_decay_rate(ModelParams(nu=model["nu"], alpha=model["alpha"],
                                       delta=model["delta"], r=r, epsilon=eps))
    t_col, l2_col = header.index("t"), header.index("l2_norm")
    l2_0 = table[0][l2_col]
    for n, row in enumerate(table):
        bound = math.exp(-2.0 * gamma * row[t_col]) * l2_0 ** 2 * (1.0 + 1e-12)
        if row[l2_col] ** 2 > bound:
            raise CheckError(f"decay: energy bound violated at level {n} "
                             f"(l2^2 = {row[l2_col] ** 2:.17g} > {bound:.17g})")


def _check_orders(header: list[str], table) -> None:
    col = header.index("order_l2")
    for j, row in enumerate(table[1:], start=1):
        if abs(row[col] - 2.0) > 0.5:
            raise CheckError(f"convergence row {j}: order_l2 = {row[col]!r} is not within 0.5 of 2")


def check_run(kind: str, cfg: dict, out_dir: Path) -> RunOutcome:
    """Check the outputs of one run of ``kind`` with input ``cfg`` written to ``out_dir``."""
    digest = hashlib.sha256()
    failed = 0
    for name, n_rows in sorted(_expected_tables(kind, cfg).items()):
        path = out_dir / name
        if not path.is_file():
            raise CheckError(f"missing output {name}")
        metadata, header, rows = read_csv(path)
        if len(rows) != n_rows:
            raise CheckError(f"{name}: {len(rows)} rows, expected {n_rows}")
        table = _numeric(path, rows, len(header))
        if kind == "decay":
            failed += "failure" in metadata
            if name == "decay_penalized_feedback.csv":
                _check_decay_bound(cfg, header, table)
        elif kind == "space_convergence":
            failed += len(json.loads(metadata.get("failures", "[]")))
            _check_orders(header, table)
        else:
            failed += sum(int(row[header.index("failed")]) for row in table)
        digest.update(name.encode() + b"\n")
        for line in path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"#"):
                digest.update(line)
    return RunOutcome(failed=failed, digest=digest.hexdigest())

"""Experiment harness: config validation, runners, and CSV/SVG emission.

An experiment is described by a single JSON config file and produces CSV
files whose leading ``#`` comment block carries the fully resolved config,
a version string, and the admissibility/rate report, so every output is
reproducible from its own metadata.  There is no randomness anywhere in the
pipeline: re-running a config yields byte-identical numeric columns.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .analysis import epsilon_cauchy_study, error_vs_reference, observed_orders
from .errors import ConfigError
from .fem import assemble, make_uniform_mesh, project_initial
from .params import ModelParams, rate_report
from .solver import NEWTON_MAX_ITER, NEWTON_TOL, TimeGrid, simulate, step_ensemble

KINDS = ("decay", "space_convergence", "epsilon_study")

# Largest number of state values, ``(n_steps + 1) x n_elements`` on the
# finest mesh, that a config may ask for: a full trajectory of them is 2 GB of
# doubles, over 100 times the shipped maximum (1051 x 2048, convergence, streamed).
MAX_GRID_VALUES = 250_000_000

# Largest ``newton.max_iter``.  A step that cannot meet ``newton.tol`` runs
# every iteration allowed, so an unbounded value could run for years; the
# shipped runs take one or two iterations per step.
MAX_NEWTON_ITER = 1000

INITIAL_PROFILES: dict[str, Callable] = {
    "sin_pi_x": lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
    "x_one_minus_x": lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}

GAIN_RULES: dict[str, Callable[[float], float]] = {
    "sqrt_eps": math.sqrt,
    "sqrt_2eps": lambda eps: math.sqrt(2.0 * eps),
}


@dataclass(frozen=True)
class HarnessResult:
    """Files written by a runner, run failures, and non-fatal notes.

    ``failures`` are solver-level problems that make the run incomplete;
    ``notes`` record best-effort extras (SVG rendering) that went wrong
    without affecting the CSV outputs.
    """

    files: tuple[Path, ...]
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# config loading / validation


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, overrides: Sequence[str]) -> dict:
    """Apply ``dotted.path=value`` overrides; values parse as JSON when possible."""
    cfg = json.loads(json.dumps(cfg))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON, or an integer literal too long to convert
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return cfg


class _Fields(dict):
    """A raw config that records the dotted paths :func:`_get` reads from it."""

    def __init__(self, cfg: dict) -> None:
        super().__init__(cfg)
        self.read: set[str] = set()

    def unread(self, node: dict | None = None, prefix: str = "") -> Iterator[str]:
        """The paths of the leaves that no read reached, neither they nor a parent."""
        for key, value in (self if node is None else node).items():
            path = f"{prefix}{key}"
            if path not in self.read:
                yield from self.unread(value, path + ".") if isinstance(value, dict) else [path]


def _get(cfg: _Fields, path: str, default=...):
    cfg.read.add(path)
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is ...:
                raise ConfigError(f"missing required config field {path!r}")
            return default
        node = node[part]
    return node


def _finite(value: int | float) -> bool:
    """Whether a JSON number is a finite float: NaN, Infinity (which json
    accepts) and integers beyond the float range are not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(cfg: dict, path: str, *, default=..., positive=False,
            nonnegative=False) -> float:
    value = _get(cfg, path, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not _finite(value):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    if nonnegative and not value >= 0:
        raise ConfigError(f"{path}: must be non-negative, got {value!r}")
    return float(value)


def _integer(cfg: dict, path: str, *, default=..., minimum=None, maximum=None) -> int:
    value = _get(cfg, path, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _boolean(cfg: dict, path: str, default=...) -> bool:
    value = _get(cfg, path, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _choice(cfg: dict, path: str, choices, *, default=...):
    value = _get(cfg, path, default)
    if not isinstance(value, str) or value not in choices:  # a list is not a dict key
        raise ConfigError(f"{path}: expected one of {sorted(choices)}, got {value!r}")
    return value


def _gain(rule) -> Callable[[float], float]:
    """The gain function of a rule that :func:`_gain_rule` has accepted."""
    return GAIN_RULES[rule] if isinstance(rule, str) else (lambda _eps, _r=float(rule): _r)


def _gain_rule(value, path: str) -> str | float:
    """``value`` if it is a gain rule: a name in :data:`GAIN_RULES` or a
    finite number >= 0, which :func:`_gain` takes as a constant gain."""
    if isinstance(value, str):
        if value not in GAIN_RULES:
            raise ConfigError(f"{path}: unknown gain rule {value!r}; "
                              f"expected one of {sorted(GAIN_RULES)} or a number")
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not (_finite(value) and value >= 0):
            raise ConfigError(f"{path}: constant gain must be finite and >= 0, got {value!r}")
        return value
    raise ConfigError(f"{path}: expected a rule name or a number, got {value!r}")


def _check_size(resolved: dict) -> None:
    """Reject a run whose ``(n_steps + 1) x n_elements`` on its finest mesh
    exceeds :data:`MAX_GRID_VALUES`, before anything is allocated."""
    if resolved["experiment"]["kind"] == "space_convergence":
        mesh_field, n_elements = ("experiment.reference_n_elements",
                                  resolved["experiment"]["reference_n_elements"])
    else:
        mesh_field, n_elements = "mesh.n_elements", resolved["mesh"]["n_elements"]
    n_steps = resolved["time"]["n_steps"]
    if (n_steps + 1) * n_elements > MAX_GRID_VALUES:
        raise ConfigError(f"time.n_steps and {mesh_field}: (n_steps + 1) x n_elements must be "
                          f"<= {MAX_GRID_VALUES}, got n_steps = {n_steps} and "
                          f"n_elements = {n_elements}")


def validate_config(cfg: dict, kind: str) -> dict:
    """Validate a raw config against ``kind`` and return it with defaults filled.

    The returned dict is the "resolved" config echoed into output metadata:
    the config as given plus the defaults of the optional fields it leaves
    out, and nothing derived.  Re-running it reproduces the experiment
    exactly.  The runners derive what they need where they use it: the time
    step ``T / n_steps`` and the gain of a rule.  A field that validation of
    ``kind`` does not read is rejected, so a misspelt optional field is not
    silently replaced by its default.  A time step whose reciprocal is not
    finite, and a run larger than :data:`MAX_GRID_VALUES` state values
    (:func:`_check_size`), are rejected.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    cfg = _Fields(cfg)
    declared = _choice(cfg, "experiment.kind", KINDS)
    if declared != kind:
        raise ConfigError(f"experiment.kind: config declares {declared!r}, "
                          f"but the {kind!r} runner was invoked")

    resolved: dict = {"experiment": {"kind": kind}}
    exp = resolved["experiment"]
    model = {
        "nu": _number(cfg, "model.nu", positive=True),
        "alpha": _number(cfg, "model.alpha", positive=True),
        "delta": _number(cfg, "model.delta", nonnegative=True),
    }
    resolved["model"] = model
    resolved["time"] = time = {
        "T": _number(cfg, "time.T", positive=True),
        # bounded here so that T / n_steps cannot overflow; see _check_size
        "n_steps": _integer(cfg, "time.n_steps", minimum=1, maximum=MAX_GRID_VALUES),
    }
    k = time["T"] / time["n_steps"]
    if not (k > 0.0 and math.isfinite(1.0 / k)):  # the step divides by k
        raise ConfigError(f"time.T and time.n_steps: the time step T / n_steps = {k!r} "
                          "has no finite reciprocal")
    resolved["initial"] = _choice(cfg, "initial", INITIAL_PROFILES)
    resolved["newton"] = {
        "tol": _number(cfg, "newton.tol", default=NEWTON_TOL, positive=True),
        "max_iter": _integer(cfg, "newton.max_iter", default=NEWTON_MAX_ITER, minimum=1,
                             maximum=MAX_NEWTON_ITER),
    }
    exp["svg"] = _boolean(cfg, "experiment.svg", True)

    if kind == "decay":
        model["epsilon"] = _number(cfg, "model.epsilon", positive=True)
        model["r"] = _gain_rule(_get(cfg, "model.r"), "model.r")
        resolved["mesh"] = {"n_elements": _integer(cfg, "mesh.n_elements", minimum=2)}
        exp["include_uncontrolled"] = _boolean(cfg, "experiment.include_uncontrolled", False)

    elif kind == "space_convergence":
        ns = _get(cfg, "experiment.n_elements_list")
        if (not isinstance(ns, list) or len(ns) < 2
                or any(not isinstance(n, int) or isinstance(n, bool) or n < 2 for n in ns)):
            raise ConfigError("experiment.n_elements_list: expected a list of >= 2 integers >= 2")
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise ConfigError("experiment.n_elements_list: element counts must double "
                                  f"between rows, got {a} -> {b}")
        ref = _integer(cfg, "experiment.reference_n_elements", default=2048, minimum=4)
        if ref <= max(ns) or any(ref % n for n in ns):
            raise ConfigError("experiment.reference_n_elements: must exceed every row "
                              "and be divisible by each element count (nested meshes)")
        exp["n_elements_list"] = ns
        exp["reference_n_elements"] = ref
        exp["epsilon_rule"] = rule = {
            "c": _number(cfg, "experiment.epsilon_rule.c", default=0.01, positive=True),
            "l": _number(cfg, "experiment.epsilon_rule.l", positive=True),
        }
        if rule["c"] * (1.0 / ref) ** rule["l"] == 0.0:  # epsilon = 0 is no penalized run
            raise ConfigError("experiment.epsilon_rule.c and experiment.epsilon_rule.l: "
                              f"c * h**l underflows to 0 on the reference mesh h = 1/{ref}")

    else:  # epsilon_study
        eps_list = _get(cfg, "experiment.epsilons")
        if (not isinstance(eps_list, list) or not eps_list
                or any(not isinstance(e, (int, float)) or isinstance(e, bool)
                       or not (_finite(e) and e >= 0) for e in eps_list)
                or 0 in eps_list[:-1]):  # a last 0 is the Dirichlet feedback limit
            raise ConfigError("experiment.epsilons: expected a non-empty list of positive "
                              "finite numbers, optionally ending with 0")
        eps_list = [float(e) for e in eps_list]
        if any(b > a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("experiment.epsilons: must be descending")
        exp["epsilons"] = eps_list
        resolved["mesh"] = {"n_elements": _integer(cfg, "mesh.n_elements", minimum=2)}

    if kind != "decay":
        exp["gain_rule"] = _gain_rule(_get(cfg, "experiment.gain_rule", "sqrt_eps"),
                                      "experiment.gain_rule")
    _check_size(resolved)
    unread = []
    for path in cfg.unread():  # the fields that no check read
        if any(read.startswith(path + ".") for read in cfg.read):
            raise ConfigError(f"{path}: expected an object, got {_get(cfg, path)!r}")
        unread.append(f"{path}: not a field of a {kind!r} config")
    if unread:
        raise ConfigError("; ".join(unread))
    return resolved


# ---------------------------------------------------------------------------
# CSV / SVG emission


@lru_cache(maxsize=1)
def version_string() -> str:
    base = f"penalty-stab {__version__}"
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              cwd=Path(__file__).resolve().parent)
        if proc.returncode == 0 and proc.stdout.strip():
            return f"{base} ({proc.stdout.strip()})"
    except (OSError, subprocess.SubprocessError):
        pass
    return base


def format_float(value) -> str:
    """17 significant digits: exact round-trip for binary64 (NaN of either sign is ``nan``)."""
    if value is None:
        return ""
    return f"{value:.17g}"


def emit_csv(path, header: Sequence[str], rows: Sequence[Sequence],
             metadata: dict) -> Path:
    """Write a CSV with a '#'-prefixed metadata block before the header.

    Floats are serialized with 17 significant digits; ``None`` becomes an
    empty cell.  Metadata values are rendered as single-line JSON.  A row
    of as many Python floats as the header has names is formatted with one
    precomputed ``"%.17g,..."`` format, which spells each cell as
    :func:`format_float` does; any other row cell by cell.
    """
    path = Path(path)
    lines = [f"# version: {version_string()}"]
    for key, value in metadata.items():
        lines.append(f"# {key}: {json.dumps(value, separators=(', ', ': '))}")
    lines.append(",".join(header))
    floats = ",".join(["%.17g"] * len(header))
    for row in rows:
        if len(row) == len(header) and all(type(cell) is float for cell in row):
            lines.append(floats % tuple(row))
        else:
            lines.append(",".join(format_float(cell) if isinstance(cell, float) or cell is None
                                  else str(cell) for cell in row))
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    return path


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """Parse a file written by :func:`emit_csv` (metadata, header, raw cells)."""
    metadata: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(":")
            metadata[key.strip()] = value.strip()
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, header, rows


def emit_svg(path, x: np.ndarray, series: dict[str, np.ndarray], *,
             title: str = "", x_label: str = "", y_label: str = "",
             log_x: bool = False, log_y: bool = False) -> Path:
    """Minimal SVG 1.1 polyline chart; a decoration, never load-bearing.

    A point with a value that is not positive on a log axis has no place on
    it; the chart names the count and the x of such points of each series.
    Each polyline's coordinates are computed as arrays and its points
    formatted with one ``%``.
    """
    width, height, margin = 640, 420, 58
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

    def transform(values, log_scale):
        if log_scale:
            values = np.where(values > 0.0, values, np.nan)
            return np.log10(values)
        return values

    x = np.asarray(x, dtype=float)
    series = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    tx = transform(x, log_x)
    tys = {name: transform(vals, log_y) for name, vals in series.items()}
    finite_y = np.concatenate([v[np.isfinite(v)] for v in tys.values()] or [np.array([0.0])])
    if finite_y.size == 0:
        finite_y = np.array([0.0])
    x_lo, x_hi = float(np.nanmin(tx)), float(np.nanmax(tx))
    y_lo, y_hi = float(np.min(finite_y)), float(np.max(finite_y))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def px(value):
        return margin + (value - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(value):
        return height - margin - (value - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    def label(value, log_scale):
        return f"{10.0 ** value if log_scale else value:.4g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">'
        f'{label(x_lo, log_x)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{label(x_hi, log_x)}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" font-size="10">'
        f'{label(y_lo, log_y)}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" font-size="10">'
        f'{label(y_hi, log_y)}</text>',
    ]
    for idx, (name, ty) in enumerate(tys.items()):
        mask = np.isfinite(tx) & np.isfinite(ty)
        xy = np.column_stack((px(tx[mask]), py(ty[mask])))
        points = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        color = palette[idx % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{width - margin - 4}" y="{margin + 14 + 14 * idx}" '
                     f'text-anchor="end" font-size="11" fill="{color}">{name}</text>')
    line = len(tys)
    for name, vals in series.items():
        unplaced = x[(log_x & (x <= 0.0)) | (log_y & (vals <= 0.0))]
        if unplaced.size:
            at = ", ".join(f"{value:.4g}" for value in unplaced)
            parts.append(f'<text x="{width - margin - 4}" y="{margin + 14 + 14 * line}" '
                         f'text-anchor="end" font-size="10">{name}: {unplaced.size} point(s) '
                         f'off the log axes, at x = {at}</text>')
            line += 1
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# runners


class _Run:
    """What every runner starts from, and the outputs it collects.

    ``grid`` takes ``time.n_steps`` steps of ``time.T / time.n_steps``.
    ``solve`` holds the keyword arguments that :func:`simulate`,
    :func:`step_ensemble` and :func:`epsilon_cauchy_study` share: the Newton
    options.  Every run starts from the L2 projection of the profile.
    """

    def __init__(self, resolved: dict, out_dir) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        T, n_steps = resolved["time"]["T"], resolved["time"]["n_steps"]
        self.grid = TimeGrid(k=T / n_steps, n_steps=n_steps)
        self.profile = INITIAL_PROFILES[resolved["initial"]]
        newton = resolved["newton"]
        self.solve = {"newton_tol": newton["tol"], "newton_max_iter": newton["max_iter"]}
        self.files: list[Path] = []
        self.failures: list[str] = []
        self.notes: list[str] = []

    def march(self, params: ModelParams, mesh) -> tuple[np.ndarray, np.ndarray, int | None]:
        """One lone :func:`step_ensemble` run on ``mesh``, streamed: its last converged
        state, its controls and its failed step (``None`` if none); no trajectory."""
        y0 = project_initial(mesh, self.profile)
        controls: list[float] = []
        for level in step_ensemble(params, assemble(mesh), y0, self.grid, **self.solve):
            if not level.members.size:
                return final, np.array(controls), level.index
            final = level.states
            controls.append(level.step.control_value)
        return final, np.array(controls), None

    def svg(self, name: str, x, series, **kwargs) -> None:
        """Chart ``name`` in the output directory; a failure only adds a note."""
        try:
            self.files.append(emit_svg(self.out_dir / name, x, series, **kwargs))
        except Exception as exc:  # decoration only; never fail the run for it
            self.notes.append(f"svg {self.out_dir / name}: {exc}")

    def result(self) -> HarnessResult:
        return HarnessResult(files=tuple(self.files), failures=tuple(self.failures),
                             notes=tuple(self.notes))


def _model_params(model: dict, r: float, epsilon: float) -> ModelParams:
    """Parameters of the resolved ``model`` with gain ``r`` and penalty ``epsilon``."""
    return ModelParams(nu=model["nu"], alpha=model["alpha"], delta=model["delta"],
                       r=r, epsilon=epsilon)


def run_decay_experiment(resolved: dict, out_dir) -> HarnessResult:
    """Simulate the controlled scheme (and optionally the pinned baseline).

    Emits one CSV per variant with columns ``t, l2_norm, linf_norm, control``.
    """
    run = _Run(resolved, out_dir)
    model = resolved["model"]
    params = _model_params(model, _gain(model["r"])(model["epsilon"]), model["epsilon"])
    mesh = make_uniform_mesh(resolved["mesh"]["n_elements"])
    variants = ["penalized_feedback"]
    if resolved["experiment"]["include_uncontrolled"]:
        variants.append("uncontrolled_dirichlet")

    rates = rate_report(params).as_dict()
    for variant in variants:
        traj = simulate(params, mesh, run.profile, run.grid, variant, **run.solve)
        metadata = {"config": resolved, "rates": rates, "variant": variant}
        if traj.failed_at is not None:
            msg = (f"{variant}: newton did not converge at step {traj.failed_at} "
                   f"(residual {traj.step_reports[-1].final_residual_norm:.3e})")
            run.failures.append(msg)
            metadata["failure"] = msg
        rows = list(zip(traj.times.tolist(), traj.l2.tolist(),
                        traj.linf.tolist(), traj.controls.tolist()))
        run.files.append(emit_csv(run.out_dir / f"decay_{variant}.csv",
                                  ["t", "l2_norm", "linf_norm", "control"], rows, metadata))
        if resolved["experiment"]["svg"] and traj.n_recorded > 1:
            log_ok = bool(np.all(traj.l2 > 0.0))
            run.svg(f"decay_{variant}.svg", traj.times, {"l2_norm": traj.l2},
                    title=f"decay ({variant})", x_label="t", y_label="l2 norm", log_y=log_ok)
    return run.result()


def run_space_convergence(resolved: dict, out_dir) -> HarnessResult:
    """Grid-refinement study against fine references on nested meshes.

    Each row solves at ``(h, epsilon = c * h**l)``.  State errors at the
    final time are measured against a reference run on the reference mesh
    that solves the Dirichlet feedback problem (``y(t, 1) = u(t)`` imposed
    exactly, the ``eps -> 0`` limit of the penalized problem) with the row's
    gain, so they hold both the space discretization error and the penalty
    error that the rule ``epsilon = c * h**l`` ties to ``h``.  Control
    errors are sup-over-time distances to the control of one shared
    reference run whose epsilon and gain follow the same rule evaluated at
    the reference mesh size; that comparison tracks the gain rule's own
    scaling and reproduces the expected ``l/2`` control orders.  Every run
    is streamed (:meth:`_Run.march`), so the study holds no trajectory.  Observed
    orders are appended between rows.  A Newton failure ends the study: the
    rows finished before it are written, every order empty when fewer than
    two were, and the failure is listed in the metadata.
    """
    run = _Run(resolved, out_dir)
    grid, failures = run.grid, run.failures
    model = resolved["model"]
    exp = resolved["experiment"]
    rule_c, rule_l = exp["epsilon_rule"]["c"], exp["epsilon_rule"]["l"]
    gain = _gain(exp["gain_rule"])
    n_ref = exp["reference_n_elements"]
    ref_mesh = make_uniform_mesh(n_ref)
    header = ["h", "epsilon", "k", "error_l2", "order_l2", "error_linf", "order_linf",
              "control_error_linf", "control_order_linf"]
    rows = []
    rates_per_row = []

    eps_ref = rule_c * (1.0 / n_ref) ** rule_l
    control_ref_params = _model_params(model, float(gain(eps_ref)), eps_ref)
    _, reference_controls, failed_at = run.march(control_ref_params, ref_mesh)
    if failed_at is not None:
        failures.append(f"control reference (epsilon={eps_ref:g}): newton failure "
                        f"at step {failed_at}")

    for n in exp["n_elements_list"]:
        if failures:
            break
        h = 1.0 / n
        eps = rule_c * h ** rule_l
        params = _model_params(model, float(gain(eps)), eps)
        rates_per_row.append({"h": h, "epsilon": eps, "r": params.r,
                              "admissible": rate_report(params).admissible})
        mesh = make_uniform_mesh(n)
        coarse, controls, coarse_failed = run.march(params, mesh)
        reference, _, reference_failed = run.march(replace(params, epsilon=0.0), ref_mesh)
        if coarse_failed is not None or reference_failed is not None:
            failures.append(f"h=1/{n}: newton failure "
                            f"(coarse step {coarse_failed}, reference step {reference_failed})")
            break
        err_l2, err_linf = error_vs_reference(coarse, reference, assemble(mesh), ref_mesh)
        control_err = float(np.max(np.abs(controls - reference_controls)))
        rows.append([h, eps, grid.k, err_l2, None, err_linf, None, control_err, None])

    # error_l2, error_linf and control_error_linf, each followed by its order
    # column, which is empty on row 0
    error_columns = (3, 5, 7)
    if len(rows) >= 2:
        hs = [row[0] for row in rows]
        for col in error_columns:
            orders = observed_orders([row[col] for row in rows], hs).tolist()
            for row, order in zip(rows[1:], orders):
                row[col + 1] = order
    metadata = {"config": resolved,
                "reference": f"state: Dirichlet feedback problem (eps -> 0) on n={n_ref} "
                             f"with the row's gain; control: shared n={n_ref} penalized run "
                             f"at epsilon={eps_ref:.6g}",
                "rates_per_row": rates_per_row}
    if failures:
        metadata["failures"] = failures
    run.files.append(emit_csv(run.out_dir / "convergence.csv", header, rows, metadata))
    if resolved["experiment"]["svg"] and len(rows) >= 2:
        table = np.array(rows, dtype=float)
        run.svg("convergence.svg", table[:, 0],
                {header[col]: table[:, col] for col in error_columns},
                title="errors vs h", x_label="h", y_label="error", log_x=True, log_y=True)
    return run.result()


def run_epsilon_study(resolved: dict, out_dir) -> HarnessResult:
    """Penalty-continuation study on a fixed space-time grid."""
    run = _Run(resolved, out_dir)
    model = resolved["model"]
    exp = resolved["experiment"]
    mesh = make_uniform_mesh(resolved["mesh"]["n_elements"])
    base = _model_params(model, 0.0, exp["epsilons"][0])

    study = epsilon_cauchy_study(base, mesh, run.grid, exp["epsilons"],
                                 _gain(exp["gain_rule"]), y0=run.profile, **run.solve)

    run.failures.extend(f"epsilon={row.epsilon:g}: newton failure"
                        for row in study if row.failed)
    rates_per_row = []
    for row in study:
        rates = rate_report(_model_params(model, row.r, row.epsilon))
        entry = {"epsilon": row.epsilon, "r": row.r, "admissible": rates.admissible}
        if row.epsilon == 0.0:  # the Dirichlet feedback problem has bounds of its own
            entry.update(gamma_dirichlet_max=rates.gamma_dirichlet_max,
                         beta_star=rates.beta_star)
        rates_per_row.append(entry)
    metadata = {"config": resolved, "rates_per_row": rates_per_row}
    if run.failures:
        metadata["failures"] = run.failures
    header = ["epsilon", "r", "state_l2", "state_linf", "control_linf",
              "diff_l2", "diff_linf", "control_diff_linf",
              "state_l2_sup", "state_linf_sup", "failed"]
    rows = [[row.epsilon, row.r, row.state_l2, row.state_linf, row.control_linf,
             row.diff_l2, row.diff_linf, row.control_diff_linf,
             row.state_l2_sup, row.state_linf_sup, int(row.failed)]
            for row in study]
    run.files.append(emit_csv(run.out_dir / "epsilon_study.csv", header, rows, metadata))
    if resolved["experiment"]["svg"] and len(study) >= 2:
        eps = np.array([row.epsilon for row in study])
        diffs = np.array([np.nan if row.diff_l2 is None else row.diff_l2
                          for row in study])
        controls = np.array([row.control_linf for row in study])
        run.svg("epsilon_study.svg", eps, {"diff_l2": diffs, "control_linf": controls},
                title="continuation in epsilon", x_label="epsilon", y_label="value",
                log_x=True, log_y=True)
    return run.result()


RUNNERS = {
    "decay": run_decay_experiment,
    "space_convergence": run_space_convergence,
    "epsilon_study": run_epsilon_study,
}

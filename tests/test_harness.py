import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from penalty_stab import (
    ModelParams,
    TimeGrid,
    assemble,
    error_vs_reference,
    harness,
    make_uniform_mesh,
    simulate,
    step_ensemble,
)
from penalty_stab.cli import main
from penalty_stab.errors import ConfigError
from penalty_stab.harness import (
    INITIAL_PROFILES,
    MAX_GRID_VALUES,
    RUNNERS,
    apply_overrides,
    emit_csv,
    emit_svg,
    format_float,
    load_config,
    read_csv,
    run_decay_experiment,
    run_epsilon_study,
    run_space_convergence,
    validate_config,
    version_string,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def decay_config(**overrides):
    cfg = {
        "experiment": {"kind": "decay", "include_uncontrolled": False, "svg": True},
        "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13, "epsilon": 0.01, "r": "sqrt_eps"},
        "mesh": {"n_elements": 16},
        "time": {"T": 0.1, "n_steps": 105},
        "initial": "sin_pi_x",
    }
    cfg.update(overrides)
    return cfg


def convergence_config():
    return {
        "experiment": {"kind": "space_convergence", "n_elements_list": [4, 8, 16],
                       "reference_n_elements": 64, "epsilon_rule": {"c": 0.01, "l": 2.0},
                       "gain_rule": "sqrt_eps", "svg": False},
        "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13},
        "time": {"T": 0.05, "n_steps": 50},
        "initial": "sin_pi_x",
    }


def epsilon_config():
    return {
        "experiment": {"kind": "epsilon_study", "epsilons": [0.1, 0.01, 0.001],
                       "gain_rule": "sqrt_eps", "svg": False},
        "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13},
        "mesh": {"n_elements": 16},
        "time": {"T": 0.05, "n_steps": 50},
        "initial": "sin_pi_x",
    }


# ---------------------------------------------------------------------------
# config validation


def test_validate_fills_defaults():
    # the config as given, plus the defaults, and nothing derived
    resolved = validate_config(decay_config(), "decay")
    assert resolved["newton"] == {"tol": 1e-12, "max_iter": 25}
    assert resolved == {**decay_config(), "newton": resolved["newton"]}
    assert resolved["model"]["r"] == "sqrt_eps"
    assert resolved["time"] == {"T": 0.1, "n_steps": 105}


def test_validate_reports_field_paths():
    cfg = decay_config()
    del cfg["model"]["nu"]
    with pytest.raises(ConfigError, match="model.nu"):
        validate_config(cfg, "decay")
    cfg = decay_config()
    cfg["mesh"]["n_elements"] = 1
    with pytest.raises(ConfigError, match="mesh.n_elements"):
        validate_config(cfg, "decay")
    cfg = decay_config()
    cfg["initial"] = "gaussian"
    with pytest.raises(ConfigError, match="initial"):
        validate_config(cfg, "decay")


@pytest.mark.parametrize("kind, config", [("decay", decay_config),
                                          ("epsilon_study", epsilon_config),
                                          ("space_convergence", convergence_config)])
def test_validate_bounds_newton_max_iter(kind, config):
    # the cap the README documents, as literals, so a changed constant fails
    cfg = config()
    cfg["newton"] = {"max_iter": 1000}
    assert validate_config(cfg, kind)["newton"]["max_iter"] == 1000
    cfg["newton"]["max_iter"] = 1001
    with pytest.raises(ConfigError, match="^newton.max_iter: must be <= 1000, got 1001$"):
        validate_config(cfg, kind)


def test_validate_kind_mismatch():
    with pytest.raises(ConfigError, match="experiment.kind"):
        validate_config(decay_config(), "epsilon_study")


def test_validate_convergence_requires_nested_doubling():
    cfg = convergence_config()
    cfg["experiment"]["n_elements_list"] = [4, 8, 12]
    with pytest.raises(ConfigError, match="double"):
        validate_config(cfg, "space_convergence")
    cfg = convergence_config()
    cfg["experiment"]["reference_n_elements"] = 24  # not divisible by 16
    with pytest.raises(ConfigError, match="reference_n_elements"):
        validate_config(cfg, "space_convergence")


def test_validate_epsilons_must_descend():
    cfg = epsilon_config()
    cfg["experiment"]["epsilons"] = [0.01, 0.1]
    with pytest.raises(ConfigError, match="descending"):
        validate_config(cfg, "epsilon_study")


def test_runs_take_n_steps_of_T_over_n_steps(tmp_path):
    cfg = decay_config()
    cfg["time"] = {"T": 0.1, "n_steps": 20}
    resolved = validate_config(cfg, "decay")
    assert resolved["time"] == {"T": 0.1, "n_steps": 20}
    assert harness._Run(resolved, tmp_path).grid == TimeGrid(k=0.1 / 20, n_steps=20)


@pytest.mark.parametrize("kind, config, override", [
    ("decay", decay_config, "newton.tolerance=1e-6"),
    ("decay", decay_config, "experiment.gain_rule=\"sqrt_eps\""),  # read by the studies only
    ("space_convergence", convergence_config, "experiment.epsilon_rule.k=2"),
    ("space_convergence", convergence_config, "mesh.n_elements=8"),
    ("epsilon_study", epsilon_config, "model.nuu=0.2"),
    ("epsilon_study", epsilon_config, "experiment.projection=\"l2\""),
    # the nodal-interpolated start and the lagged control are no fields
    ("decay", decay_config, "projection=\"interpolation\""),
    ("epsilon_study", epsilon_config, "projection=\"l2\""),
    ("decay", decay_config, "experiment.implicit_control=false"),
    # the derived fields that earlier versions echoed, even where they agree
    ("decay", decay_config, "time.k=0.0009523809523809524"),
    ("decay", decay_config, 'model.r_rule="sqrt_eps"'),
    ("epsilon_study", epsilon_config, 'experiment.gain_rule_resolved="sqrt_eps"'),
    ("space_convergence", convergence_config, 'experiment.gain_rule_resolved="sqrt_eps"'),
])
def test_validate_rejects_fields_it_does_not_read(kind, config, override):
    # a misspelt optional field would otherwise run with the default it misses
    cfg = apply_overrides(config(), [override])
    field = override.split("=")[0]
    with pytest.raises(ConfigError, match=f"^{re.escape(field)}: not a field of a '{kind}'"):
        validate_config(cfg, kind)
    # a value where validation reads the fields of an object
    with pytest.raises(ConfigError, match="^newton: expected an object, got 5$"):
        validate_config(apply_overrides(config(), ["newton=5"]), kind)


def test_validate_names_every_field_it_does_not_read():
    # an echo with two unread fields is named in one error, not one run each
    cfg = apply_overrides(decay_config(), ["time.k=0.0009523809523809524",
                                           'model.r_rule="sqrt_eps"'])
    with pytest.raises(ConfigError) as error:
        validate_config(cfg, "decay")
    assert str(error.value) == ("model.r_rule: not a field of a 'decay' config; "
                                "time.k: not a field of a 'decay' config")


# The defaults that validation fills in, as the README documents them
DEFAULTS = {"newton.tol": 1e-12, "newton.max_iter": 25, "experiment.svg": True,
            "experiment.include_uncontrolled": False, "experiment.reference_n_elements": 2048,
            "experiment.epsilon_rule.c": 0.01, "experiment.gain_rule": "sqrt_eps"}


def leaves(node, prefix=""):
    """The dotted paths of a config's leaves, each with its value as JSON text."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", json.dumps(value)


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_shipped_configs_and_their_resolved_echo_validate(config):
    # the resolved config is echoed into every CSV and re-runnable as-is: it
    # holds each given leaf with its value unchanged, plus documented defaults
    cfg = load_config(CONFIGS / config)
    kind = cfg["experiment"]["kind"]
    resolved = validate_config(cfg, kind)
    given, echoed = dict(leaves(cfg)), dict(leaves(resolved))
    assert {path: echoed.get(path) for path in given} == given
    added = {path: value for path, value in echoed.items() if path not in given}
    assert added and added.items() <= {p: json.dumps(v) for p, v in DEFAULTS.items()}.items()
    assert validate_config(json.loads(json.dumps(resolved)), kind) == resolved


def test_overrides_parse_json_values():
    cfg = apply_overrides(decay_config(), ["model.nu=0.25", "experiment.svg=false",
                                           "initial=zero"])
    assert cfg["model"]["nu"] == 0.25
    assert cfg["experiment"]["svg"] is False
    assert cfg["initial"] == "zero"
    with pytest.raises(ConfigError):
        apply_overrides(decay_config(), ["no_equals_sign"])


@pytest.mark.filterwarnings("ignore:stabilization conditions")
def test_gain_rules(tmp_path):
    # model.r is echoed as given; the decay run takes its gain from it
    cfg = decay_config()
    cfg["model"]["r"] = "sqrt_2eps"
    resolved = validate_config(cfg, "decay")
    assert resolved["model"]["r"] == "sqrt_2eps"
    with mock.patch.object(harness, "simulate", wraps=simulate) as run:
        assert run_decay_experiment(resolved, tmp_path).ok
    assert run.call_args.args[0].r == math.sqrt(2.0 * 0.01)
    cfg["model"]["r"] = 0.37
    assert validate_config(cfg, "decay")["model"]["r"] == 0.37
    cfg["model"]["r"] = "cubic_eps"
    with pytest.raises(ConfigError, match="model.r"):
        validate_config(cfg, "decay")


# ---------------------------------------------------------------------------
# CSV / SVG plumbing


def test_format_float_17_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(math.pi)) == math.pi
    assert format_float(None) == ""
    assert format_float(float("nan")) == "nan"


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0.1, None, float(np.pi)], [1e-17, 2.0, -3.5]]
    emit_csv(path, ["a", "b", "c"], rows, {"config": {"x": 1}})
    metadata, header, parsed = read_csv(path)
    assert header == ["a", "b", "c"]
    assert "version" in metadata
    assert json.loads(metadata["config"]) == {"x": 1}
    assert float(parsed[0][0]) == 0.1
    assert parsed[0][1] == ""
    assert float(parsed[0][2]) == float(np.pi)
    assert float(parsed[1][0]) == 1e-17


def test_version_string_mentions_package():
    assert version_string().startswith("penalty-stab 0.1.0")


def test_emit_svg_writes_polyline(tmp_path):
    path = tmp_path / "chart.svg"
    x = np.linspace(0.0, 1.0, 20)
    emit_svg(path, x, {"decay": np.exp(-x)}, log_y=True, title="demo")
    body = path.read_text()
    assert body.startswith("<svg")
    assert "<polyline" in body and "demo" in body


# ---------------------------------------------------------------------------
# runners


def test_decay_runner_outputs(tmp_path):
    resolved = validate_config(decay_config(), "decay")
    result = run_decay_experiment(resolved, tmp_path)
    assert result.ok
    csv_path = tmp_path / "decay_penalized_feedback.csv"
    assert csv_path in result.files
    metadata, header, rows = read_csv(csv_path)
    assert header == ["t", "l2_norm", "linf_norm", "control"]
    assert len(rows) == 106
    cfg_echo = json.loads(metadata["config"])
    assert cfg_echo == resolved
    rates = json.loads(metadata["rates"])
    assert rates["admissible"] is True
    # monotone decreasing l2 column for the stabilized run
    l2 = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(l2) <= 0.0)
    assert (tmp_path / "decay_penalized_feedback.svg").exists()


def test_decay_runner_zero_profile_all_zero(tmp_path):
    resolved = validate_config(decay_config(initial="zero"), "decay")
    run_decay_experiment(resolved, tmp_path)
    _, _, rows = read_csv(tmp_path / "decay_penalized_feedback.csv")
    values = np.array([[float(c) for c in row[1:]] for row in rows])
    assert np.array_equal(values, np.zeros_like(values))


def test_decay_runner_uncontrolled_baseline(tmp_path):
    cfg = decay_config()
    cfg["experiment"]["include_uncontrolled"] = True
    result = run_decay_experiment(validate_config(cfg, "decay"), tmp_path)
    assert result.ok
    _, header, rows = read_csv(tmp_path / "decay_uncontrolled_dirichlet.csv")
    assert header == ["t", "l2_norm", "linf_norm", "control"]
    assert len(rows) == 106
    assert all(float(r[3]) == 0.0 for r in rows)


def test_decay_runner_inadmissible_sweep_recorded(tmp_path):
    # the quadratic-profile sweep regime: verdicts per the admissibility formula
    expected = {0.2: True, 0.1: False, 0.01: False, 0.001: False}
    for nu, admissible in expected.items():
        cfg = decay_config(initial="x_one_minus_x")
        cfg["model"] = {"nu": nu, "alpha": 0.1, "delta": 0.1,
                        "epsilon": 0.001, "r": "sqrt_2eps"}
        out = tmp_path / f"nu_{nu}"
        with pytest.warns(RuntimeWarning) if not admissible else _no_warning():
            run_decay_experiment(validate_config(cfg, "decay"), out)
        metadata, _, _ = read_csv(out / "decay_penalized_feedback.csv")
        assert json.loads(metadata["rates"])["admissible"] is admissible


def _no_warning():
    import contextlib
    return contextlib.nullcontext()


def test_convergence_runner_schema_and_orders(tmp_path):
    result = run_space_convergence(validate_config(convergence_config(),
                                                   "space_convergence"), tmp_path)
    assert result.ok
    metadata, header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == ["h", "epsilon", "k", "error_l2", "order_l2", "error_linf",
                      "order_linf", "control_error_linf", "control_order_linf"]
    assert len(rows) == 3
    assert rows[0][4] == "" and rows[0][6] == ""  # first row has no orders
    assert float(rows[1][4]) > 0.0
    assert json.loads(metadata["rates_per_row"])[0]["admissible"] is True
    hs = [float(r[0]) for r in rows]
    assert hs == [0.25, 0.125, 0.0625]


def test_convergence_runner_state_errors_against_dirichlet_feedback(tmp_path):
    # state errors: the row's coarse run against the hard-constrained problem
    # with the row's gain; control errors: against the shared penalized run
    resolved = validate_config(convergence_config(), "space_convergence")
    assert run_space_convergence(resolved, tmp_path).ok
    _, header, cells = read_csv(tmp_path / "convergence.csv")
    grid = TimeGrid(k=0.05 / 50, n_steps=50)
    profile = INITIAL_PROFILES["sin_pi_x"]
    ref_mesh = make_uniform_mesh(64)

    def params(epsilon):
        return ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(epsilon),
                           epsilon=epsilon)

    control_ref = simulate(params(0.01 * (1.0 / 64) ** 2.0), ref_mesh, profile, grid)
    assert len(cells) == 3
    for n, row in zip((4, 8, 16), (dict(zip(header, c)) for c in cells)):
        mesh = make_uniform_mesh(n)
        row_params = params(0.01 * (1.0 / n) ** 2.0)
        coarse = simulate(row_params, mesh, profile, grid)
        # epsilon = 0 is the Dirichlet feedback problem
        hard = simulate(dataclasses.replace(row_params, epsilon=0.0), ref_mesh, profile, grid)
        err_l2, err_linf = error_vs_reference(coarse.states[-1], hard.states[-1],
                                              assemble(mesh), ref_mesh)
        assert float(row["error_l2"]) == err_l2
        assert float(row["error_linf"]) == err_linf
        assert float(row["control_error_linf"]) == \
            float(np.max(np.abs(coarse.controls - control_ref.controls)))


class FailSimulation:
    """Test double for ``harness.step_ensemble`` whose ``fail_call``-th run fails.

    Calls are counted from 1; each streams one lone run.  The failed call's
    levels are the real ones cut as a Newton failure at step 1 cuts them:
    the initial level is kept, and the first step's level, its report marked
    unconverged, holds no state and ends the march.
    """

    def __init__(self, fail_call):
        self.fail_call = fail_call
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        levels = step_ensemble(*args, **kwargs)
        if self.calls != self.fail_call:
            return levels
        initial, first = next(levels), next(levels)
        failed = dataclasses.replace(first, members=first.members[:0], states=first.states[:0],
                                     step=dataclasses.replace(first.step, converged=False))
        return iter([initial, failed])


def run_failing_convergence(tmp_path, monkeypatch, fail_call):
    """Run the CLI on the small convergence config, SVG on, with one failed run."""
    cfg = convergence_config()
    cfg["experiment"]["svg"] = True
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(harness, "step_ensemble", FailSimulation(fail_call))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["convergence", "--config", str(path), "--out", str(out)])
    metadata, header, rows = read_csv(out / "convergence.csv")
    return code, out, metadata, header, rows


def test_convergence_control_reference_failure_writes_header_only(tmp_path, monkeypatch):
    # the shared control reference is the first run of the study
    code, out, metadata, header, rows = run_failing_convergence(tmp_path, monkeypatch, 1)
    assert code == 2
    assert harness.step_ensemble.calls == 1  # no row is attempted
    assert header[0] == "h" and rows == []
    assert "control reference" in json.loads(metadata["failures"])[0]
    assert json.loads(metadata["rates_per_row"]) == []
    assert not (out / "convergence.svg").exists()


def test_convergence_second_row_reference_failure_keeps_first_row(tmp_path, monkeypatch):
    # runs: control reference, row 1's coarse and reference, row 2's coarse
    # and reference (the fifth, which fails)
    code, out, metadata, header, rows = run_failing_convergence(tmp_path, monkeypatch, 5)
    assert code == 2
    assert harness.step_ensemble.calls == 5
    assert json.loads(metadata["failures"]) == [
        "h=1/8: newton failure (coarse step None, reference step 1)"]
    assert len(json.loads(metadata["rates_per_row"])) == 2
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["order_l2"] == row["order_linf"] == row["control_order_linf"] == ""
    assert float(row["h"]) == 0.25 and float(row["error_l2"]) > 0.0
    assert not (out / "convergence.svg").exists()


def test_convergence_runner_holds_no_trajectory(tmp_path):
    # every run is streamed: the study's peak allocation stays below one
    # reference trajectory, (n_steps + 1) x (N + 1) doubles on the reference mesh
    cfg = convergence_config()
    cfg["experiment"].update(n_elements_list=[8, 16], reference_n_elements=512)
    cfg["time"]["n_steps"] = 400
    resolved = validate_config(cfg, "space_convergence")
    version_string()  # cached once per process; its subprocess is not the study's
    tracemalloc.start()
    try:
        result = run_space_convergence(resolved, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < 401 * 513 * 8  # 1.65 MB


def test_epsilon_runner_schema(tmp_path):
    result = run_epsilon_study(validate_config(epsilon_config(), "epsilon_study"), tmp_path)
    assert result.ok
    _, header, rows = read_csv(tmp_path / "epsilon_study.csv")
    assert header == ["epsilon", "r", "state_l2", "state_linf", "control_linf",
                      "diff_l2", "diff_linf", "control_diff_linf",
                      "state_l2_sup", "state_linf_sup", "failed"]
    assert len(rows) == 3
    assert rows[0][5] == ""  # no diff on the first row
    assert float(rows[1][5]) > 0.0
    assert all(r[10] == "0" for r in rows)


def test_epsilon_study_may_end_with_zero(tmp_path):
    # the last run is the Dirichlet feedback problem, the limit of the list
    cfg = epsilon_config()
    cfg["experiment"]["epsilons"] = [1e-2, 1e-3, 0]
    resolved = validate_config(cfg, "epsilon_study")
    assert resolved["experiment"]["epsilons"] == [1e-2, 1e-3, 0.0]
    run_epsilon_study(resolved, tmp_path)
    metadata, _, rows = read_csv(tmp_path / "epsilon_study.csv")
    assert len(rows) == 3 and all(row[10] == "0" for row in rows)
    assert float(rows[2][0]) == 0.0 and float(rows[2][1]) == 0.0  # sqrt_eps gain at 0
    assert all(math.isfinite(float(cell)) for cell in rows[2][:10])
    assert float(rows[2][5]) > 0.0  # its difference to the eps = 1e-3 run
    rates = json.loads(metadata["rates_per_row"])
    bounds = harness.rate_report(ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0,
                                             epsilon=0.0))
    assert rates[2] == {"epsilon": 0.0, "r": 0.0, "admissible": False,
                        "gamma_dirichlet_max": bounds.gamma_dirichlet_max,
                        "beta_star": bounds.beta_star}
    assert bounds.gamma_dirichlet_max is not None
    assert set(rates[0]) == set(rates[1]) == {"epsilon", "r", "admissible"}
    cfg["experiment"]["epsilons"] = [0]  # the limit alone: 0 is also last
    assert validate_config(cfg, "epsilon_study")["experiment"]["epsilons"] == [0.0]


def test_epsilon_study_chart_names_the_points_off_its_log_axis(tmp_path):
    # the eps = 0 row has no place on the log epsilon axis; the CSV keeps it
    cfg = apply_overrides(epsilon_config(), ["experiment.epsilons=[1e-2, 1e-3, 0]",
                                             "experiment.svg=true"])
    run_epsilon_study(validate_config(cfg, "epsilon_study"), tmp_path)
    assert len(read_csv(tmp_path / "epsilon_study.csv")[2]) == 3
    svg = (tmp_path / "epsilon_study.svg").read_text()
    points = [len(line.split('points="')[1].split('"')[0].split())
              for line in svg.splitlines() if "<polyline" in line]
    assert points == [1, 2]  # diff_l2 has no difference on row 0, control_linf all rows
    notes = [line.split(">")[1].split("<")[0] for line in svg.splitlines()
             if "off the log axes" in line]
    assert notes == ["diff_l2: 1 point(s) off the log axes, at x = 0",
                     "control_linf: 1 point(s) off the log axes, at x = 0"]


@pytest.mark.parametrize("epsilons", [[0.1, -0.01], [0.1, 0.0, 0.0], [0, 0]],
                         ids=["negative", "zero-before-last", "zero-first"])
def test_validate_epsilons_zero_only_last_and_never_negative(epsilons):
    # each list descends, so only the check of its values can turn it down
    cfg = epsilon_config()
    cfg["experiment"]["epsilons"] = epsilons
    with pytest.raises(ConfigError, match="experiment.epsilons: expected"):
        validate_config(cfg, "epsilon_study")


def test_epsilon_runner_singleton_list(tmp_path):
    cfg = epsilon_config()
    cfg["experiment"]["epsilons"] = [0.01]
    run_epsilon_study(validate_config(cfg, "epsilon_study"), tmp_path)
    _, _, rows = read_csv(tmp_path / "epsilon_study.csv")
    assert len(rows) == 1
    assert rows[0][5] == rows[0][6] == rows[0][7] == ""


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_cli_simulate_success(tmp_path, capsys):
    path = write_config(tmp_path, decay_config())
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "decay_penalized_feedback.csv" in capsys.readouterr().out
    assert (tmp_path / "out" / "decay_penalized_feedback.csv").exists()


def test_cli_validation_failures_exit_one(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 1
    bad = write_config(tmp_path, {"experiment": {"kind": "decay"}})
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["unknown-command"]) == 1
    capsys.readouterr()


def test_cli_kind_mismatch_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, decay_config())
    assert main(["epsilon-study", "--config", str(path), "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_cli_override_applies(tmp_path, capsys):
    path = write_config(tmp_path, decay_config())
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(path), "--out", str(out),
                 "--override", "mesh.n_elements=8", "--override", "experiment.svg=false"])
    assert code == 0
    metadata, _, _ = read_csv(out / "decay_penalized_feedback.csv")
    assert json.loads(metadata["config"])["mesh"]["n_elements"] == 8
    assert not (out / "decay_penalized_feedback.svg").exists()
    capsys.readouterr()


def test_cli_misspelt_override_exits_one(tmp_path, capsys):
    # the run used to go ahead at the default tolerance 1e-12
    out = tmp_path / "out"
    code = main(["epsilon-study", "--config", str(CONFIGS / "epsilon_study.json"),
                 "--out", str(out), "--override", "newton.tolerance=1e-6"])
    assert code == 1
    assert "error: newton.tolerance: not a field of a 'epsilon_study' config" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cli_solver_failure_exits_two(tmp_path, capsys):
    cfg = decay_config()
    cfg["time"] = {"T": 10.0, "n_steps": 1}
    cfg["newton"] = {"tol": 1e-30, "max_iter": 2}
    path = write_config(tmp_path, cfg)
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "run failure" in err
    # partial outputs are kept
    assert (tmp_path / "out" / "decay_penalized_feedback.csv").exists()


@pytest.mark.filterwarnings("ignore:stabilization conditions")
def test_cli_fixed_gain_epsilon_study_finishes(tmp_path, capsys):
    # with the gain held at 0.01 the eps = 1e-8 and 1e-9 runs used to stall
    # at the round-off floor of the nu/eps-amplified boundary row (exit 2)
    config = Path(__file__).resolve().parent.parent / "configs" / "epsilon_study.json"
    code = main(["epsilon-study", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--override", "experiment.gain_rule=0.01", "--override", "experiment.svg=false"])
    assert code == 0, capsys.readouterr().err
    _, _, rows = read_csv(tmp_path / "out" / "epsilon_study.csv")
    assert len(rows) == 10
    assert all(row[10] == "0" for row in rows)


@pytest.mark.filterwarnings("ignore:stabilization conditions")
@pytest.mark.parametrize("overrides", [
    ["model.r=0.1", "model.epsilon=1e4", "time.n_steps=20"],
    ["model.r=0.1", "model.epsilon=1e3", "time.n_steps=20"],
    ["mesh.n_elements=4096", "time.n_steps=5"],
])
def test_cli_decay_runs_above_the_residual_floor_finish(tmp_path, capsys, overrides):
    # the residual's round-off floor, about (eps/h) u |y| in the boundary row
    # and growing like nu/h in the interior, lies above tol = 1e-12 in these
    # runs, which used to exit 2 at steps 1, 3 and 1 with a converged state;
    # the cubic-remainder bound certifies their steps
    code = main(["simulate", "--config", str(CONFIGS / "decay_controlled.json"),
                 "--out", str(tmp_path / "out")]
                + [arg for override in overrides for arg in ("--override", override)])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("command, config, override", [
    ("simulate", decay_config, "time.T=Infinity"),
    ("simulate", decay_config, "model.nu=Infinity"),
    ("simulate", decay_config, "model.alpha=Infinity"),
    ("simulate", decay_config, "model.delta=Infinity"),
    ("epsilon-study", epsilon_config, "experiment.epsilons=[Infinity, 0.1]"),
    ("epsilon-study", epsilon_config, "experiment.gain_rule=Infinity"),
])
def test_cli_non_finite_numbers_exit_one(tmp_path, capsys, command, config, override):
    path = write_config(tmp_path, config())
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 "--override", override])
    assert code == 1
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command, config, override", [
    ("simulate", decay_config, "model.epsilon=0"),
    ("epsilon-study", epsilon_config, "experiment.epsilons=[1.0,0.0,0.0]"),  # 0 not last
    ("convergence", convergence_config, "experiment.epsilon_rule.l=200"),  # c h^l underflows
])
def test_cli_zero_epsilon_exits_one(tmp_path, capsys, command, config, override):
    # the library takes epsilon = 0 as the Dirichlet feedback problem; a
    # config still names penalized runs, so it turns epsilon = 0 down, except
    # as the last of an epsilon study's list, the limit of its runs
    path = write_config(tmp_path, config())
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 "--override", override])
    assert code == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T, n_steps", [(5e-324, 1050), (5e-324, 2), (1e-320, 2)])
def test_cli_time_step_without_a_finite_reciprocal_exits_one(tmp_path, capsys, T, n_steps):
    # T / n_steps underflows to 0, or its reciprocal overflows: each step
    # divides by it, so the run would end in a traceback or in nan residuals
    cfg = decay_config()
    cfg["time"] = {"T": T, "n_steps": n_steps}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "error: time.T and time.n_steps: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:stabilization conditions")
@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
@pytest.mark.parametrize("command, config, override", [
    ("simulate", decay_config, "model.r=1e300"),
    ("epsilon-study", epsilon_config, "experiment.gain_rule=1e300"),
])
def test_cli_gain_whose_square_overflows_exits_cleanly(tmp_path, capsys, command, config,
                                                        override):
    # r^2 overflows to inf in the admissibility check; the runs then fail
    path = write_config(tmp_path, config())
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 "--override", override, "--override", "experiment.svg=false"])
    assert code in (1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["False", "1"])
@pytest.mark.parametrize("field", ["experiment.svg", "experiment.include_uncontrolled"])
def test_cli_boolean_fields_take_only_json_booleans(tmp_path, capsys, field, value):
    # "False" is not JSON, so the override keeps the string, which is truthy
    path = write_config(tmp_path, decay_config())
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--override", f"{field}={value}"])
    assert code == 1
    assert f"{field}: expected true or false" in capsys.readouterr().err


@pytest.mark.parametrize("below", ["", "below"])
def test_cli_out_not_creatable_exits_one(tmp_path, capsys, below):
    path = write_config(tmp_path, decay_config())
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    code = main(["simulate", "--config", str(path), "--out", str(taken / below)])
    assert code == 1
    assert "error: cannot create output directory" in capsys.readouterr().err


def test_cli_determinism_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, decay_config())
    for sub in ("a", "b"):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / sub)]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "decay_penalized_feedback.csv").read_bytes()
    b = (tmp_path / "b" / "decay_penalized_feedback.csv").read_bytes()
    assert a == b


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError):
        load_config(path)


# ---------------------------------------------------------------------------
# run size bound and override fuzzing

COMMANDS = {"decay": "simulate", "space_convergence": "convergence",
            "epsilon_study": "epsilon-study"}


@pytest.mark.parametrize("overrides, fields", [
    (["time.n_steps=1953125"], "time.n_steps and mesh.n_elements"),  # 1953126 x 128
    (["mesh.n_elements=100000000000"], "time.n_steps and mesh.n_elements"),
])
def test_cli_rejects_a_run_beyond_the_size_bound_before_running(tmp_path, capsys, monkeypatch,
                                                                overrides, fields):
    def runner_not_reached(resolved, out_dir):
        raise AssertionError("the runner was called")

    monkeypatch.setitem(RUNNERS, "decay", runner_not_reached)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(CONFIGS / "decay_controlled.json"),
                 "--out", str(out), *[arg for o in overrides for arg in ("--override", o)]])
    assert code == 1
    assert f"error: {fields}: (n_steps + 1) x n_elements must be <= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, mesh_field", [("decay", "mesh.n_elements"),
                                              ("epsilon_study", "mesh.n_elements"),
                                              ("space_convergence",
                                               "experiment.reference_n_elements")])
def test_size_bound_checks_the_finest_mesh_of_each_kind(kind, mesh_field):
    cfg = {"decay": decay_config, "epsilon_study": epsilon_config,
           "space_convergence": convergence_config}[kind]()
    n_elements = 2 ** 12
    cfg = apply_overrides(cfg, [f"{mesh_field}={n_elements}"])
    n_steps = MAX_GRID_VALUES // n_elements - 1  # (n_steps + 1) x n_elements at the bound
    cfg["time"] = {"T": 1.0, "n_steps": n_steps}
    assert validate_config(cfg, kind)["time"]["n_steps"] == n_steps
    cfg["time"]["n_steps"] = n_steps + 1
    with pytest.raises(ConfigError, match=f"time.n_steps and {mesh_field}"):
        validate_config(cfg, kind)


# Edge values for the fuzzed field, as the raw text of an override.  The
# step and element counts are kept small in every example; as the fuzzed
# field, every value here is invalid or small for them.
EDGE_VALUES = ["0", "-1", "1", "2", "1e-320", "5e-324", "1e-300", "1e300", "null", "true", '"x"',
               "x", "[]", str(2 ** 63), str(10 ** 400), "9" * 5000]
FUZZ_KEYS = ["time.T", "time.n_steps", "mesh.n_elements", "model.nu", "model.alpha",
             "model.delta", "model.epsilon", "model.r", "newton.tol", "newton.max_iter",
             "initial"]
SMALL = {"time.n_steps": "4", "experiment.svg": "false"}
SMALL_MESHES = {"decay": {"mesh.n_elements": "8"}, "epsilon_study": {"mesh.n_elements": "8"},
                "space_convergence": {"experiment.n_elements_list": "[2, 4]",
                                      "experiment.reference_n_elements": "8"}}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))),
       key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(EDGE_VALUES), rejected=st.just({}))
@example(config="decay_controlled.json", key="time.T", value="5e-324", rejected={})
@example(config="decay_controlled.json", key="mesh.n_elements", value="100000000000",
         rejected={})
@example(config="epsilon_study.json", key="time.n_steps", value=str(10 ** 400), rejected={})
@example(config="decay_quadratic_profile.json", key="model.nu", value=str(10 ** 400),
         rejected={})
@example(config="epsilon_study.json", key="initial", value="[]", rejected={})
@example(config="decay_controlled.json", key="newton.max_iter", value=str(10 ** 12),
         rejected={"newton.tol": "1e-320"})
def test_cli_override_fuzzing_never_ends_in_a_traceback(config, key, value, rejected):
    # One fuzzed field per drawn example.  Explicit examples may add the
    # fields in ``rejected``: validation must turn those configs down with
    # exit 1 before any run, here a tolerance no step can meet with a
    # newton.max_iter above harness.MAX_NEWTON_ITER, which would otherwise
    # iterate for as long as it asks.
    kind = json.loads((CONFIGS / config).read_text())["experiment"]["kind"]
    overrides = {**SMALL, **SMALL_MESHES[kind], **rejected, key: value}
    run = RUNNERS[kind]

    def runner(resolved, out_dir):
        if rejected:
            raise AssertionError("the runner was called")
        return run(resolved, out_dir)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch.dict(RUNNERS, {kind: runner}):
        warnings.simplefilter("ignore")
        code = main([COMMANDS[kind], "--config", str(CONFIGS / config), "--out", tmp,
                     *[arg for item in overrides.items() for arg in ("--override", "=".join(item))]])
    assert code in ((1,) if rejected else (0, 1, 2))
    assert "Traceback" not in err.getvalue()

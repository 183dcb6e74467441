import json
import math
from pathlib import Path

import numpy as np
import pytest

from penalty_stab import (
    ModelParams,
    TimeGrid,
    assemble,
    error_vs_reference,
    make_uniform_mesh,
    simulate,
)
from penalty_stab.cli import main
from penalty_stab.errors import ConfigError
from penalty_stab.harness import (
    INITIAL_PROFILES,
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
    resolved = validate_config(decay_config(), "decay")
    assert resolved["projection"] == "l2"
    assert resolved["newton"] == {"tol": 1e-12, "max_iter": 25}
    assert resolved["model"]["r"] == pytest.approx(0.1)
    assert resolved["model"]["r_rule"] == "sqrt_eps"
    assert resolved["time"]["k"] == pytest.approx(0.1 / 105.0)


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


def test_validate_time_accepts_explicit_step():
    cfg = decay_config()
    cfg["time"] = {"T": 0.1, "k": 0.005}
    resolved = validate_config(cfg, "decay")
    assert resolved["time"]["n_steps"] == 20


def test_overrides_parse_json_values():
    cfg = apply_overrides(decay_config(), ["model.nu=0.25", "experiment.svg=false",
                                           "initial=zero"])
    assert cfg["model"]["nu"] == 0.25
    assert cfg["experiment"]["svg"] is False
    assert cfg["initial"] == "zero"
    with pytest.raises(ConfigError):
        apply_overrides(decay_config(), ["no_equals_sign"])


def test_gain_rules():
    cfg = decay_config()
    cfg["model"]["r"] = "sqrt_2eps"
    resolved = validate_config(cfg, "decay")
    assert resolved["model"]["r"] == pytest.approx(math.sqrt(0.02))
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
    grid = TimeGrid(k=resolved["time"]["k"], n_steps=resolved["time"]["n_steps"])
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
        hard = simulate(row_params, ref_mesh, profile, grid, "dirichlet_feedback")
        err_l2, err_linf = error_vs_reference(coarse.states[-1], hard.states[-1],
                                              assemble(mesh), ref_mesh)
        assert float(row["error_l2"]) == err_l2
        assert float(row["error_linf"]) == err_linf
        assert float(row["control_error_linf"]) == \
            float(np.max(np.abs(coarse.controls - control_ref.controls)))


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


@pytest.mark.parametrize("k", [0.3, 1e-320])  # does not divide T; T/k overflows
def test_cli_time_step_that_cannot_reach_T_exits_one(tmp_path, capsys, k):
    cfg = decay_config()
    cfg["time"] = {"T": 1.0, "k": k}
    path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "time.k" in capsys.readouterr().err


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
@pytest.mark.parametrize("field", ["experiment.svg", "experiment.include_uncontrolled",
                                   "experiment.implicit_control"])
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

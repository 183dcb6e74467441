"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive study fixtures run the real harness (the same code path as the
CLI) and the assertions read the emitted CSV files, so what is gated here is
what a user of the command line obtains.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
from penalty_stab import (
    LinearPart,
    ModelParams,
    RankOneUpdate,
    TimeGrid,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    cubic_term,
    energy_monitor,
    fit_decay_rate,
    jacobian,
    l4_norm,
    make_uniform_mesh,
    max_decay_rate,
    newton_solve,
    norms,
    project_initial,
    residual,
    simulate,
    solve_structured,
)
from penalty_stab.harness import (
    read_csv,
    run_decay_experiment,
    run_epsilon_study,
    run_space_convergence,
    validate_config,
)

RNG = np.random.default_rng(5150)


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x))


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def convergence_config(l_exponent):
    return {
        "experiment": {"kind": "space_convergence",
                       "n_elements_list": [8, 16, 32, 64, 128, 256, 512],
                       "reference_n_elements": 2048,
                       "epsilon_rule": {"c": 0.01, "l": l_exponent},
                       "gain_rule": "sqrt_eps", "svg": False},
        "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13},
        "time": {"T": 1.0, "n_steps": 1050},
        "initial": "sin_pi_x",
    }


def parse_convergence(path):
    _, header, raw = read_csv(path)
    rows = []
    for cells in raw:
        rows.append({name: (float(cell) if cell else None)
                     for name, cell in zip(header, cells)})
    return rows


@pytest.fixture(scope="module")
def conv_quadratic_rule(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv_h2")
    result = run_space_convergence(
        validate_config(convergence_config(2.0), "space_convergence"), out)
    assert result.ok, result.failures
    return parse_convergence(out / "convergence.csv")


@pytest.fixture(scope="module")
def conv_four_thirds_rule(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv_h43")
    result = run_space_convergence(
        validate_config(convergence_config(4.0 / 3.0), "space_convergence"), out)
    assert result.ok, result.failures
    return parse_convergence(out / "convergence.csv")


@pytest.fixture(scope="module")
def epsilon_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("eps_study")
    cfg = {
        "experiment": {"kind": "epsilon_study",
                       "epsilons": [10.0 ** -i for i in range(10)],
                       "gain_rule": "sqrt_eps", "svg": False},
        "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13},
        "mesh": {"n_elements": 128},
        "time": {"T": 1.0, "n_steps": 1050},
        "initial": "sin_pi_x",
    }
    result = run_epsilon_study(validate_config(cfg, "epsilon_study"), out)
    assert result.ok, result.failures
    _, header, raw = read_csv(out / "epsilon_study.csv")
    return [{name: (None if cell == "" else float(cell))
             for name, cell in zip(header, cells)} for cells in raw]


# Externally published reference errors for this exact configuration
# (quadratic epsilon rule, errors at T=1 against the n=2048 reference).
REFERENCE_STATE_L2 = [2.820e-05, 8.3928e-06, 2.1253e-06, 5.2427e-07,
                      1.2946e-07, 3.20204e-08, 7.7585e-09]
REFERENCE_STATE_LINF = [4.5282e-05, 1.3585e-05, 3.4304e-06, 8.4678e-07,
                        2.1071e-07, 5.2942e-08, 1.3118e-08]


def test_criterion_1_state_convergence_quadratic_rule(conv_quadratic_rule):
    with criterion("1 state convergence, epsilon = 0.01 h^2"):
        rows = conv_quadratic_rule
        assert len(rows) == 7
        orders_l2 = [row["order_l2"] for row in rows[1:]]
        orders_linf = [row["order_linf"] for row in rows[1:]]
        for order in orders_l2 + orders_linf:
            assert 1.70 <= order <= 2.15, f"state order {order} outside [1.70, 2.15]"
        for row, ref_l2, ref_linf in zip(rows, REFERENCE_STATE_L2, REFERENCE_STATE_LINF):
            ratio_l2 = row["error_l2"] / ref_l2
            ratio_linf = row["error_linf"] / ref_linf
            assert 1.0 / 3.0 <= ratio_l2 <= 3.0, (
                f"h={row['h']}: L2 error {row['error_l2']:.4e} is {ratio_l2:.2f}x "
                f"the published {ref_l2:.4e} (allowed factor 3)")
            assert 1.0 / 3.0 <= ratio_linf <= 3.0, (
                f"h={row['h']}: Linf error ratio {ratio_linf:.2f} exceeds factor 3")


def test_criterion_2_state_convergence_four_thirds_rule(conv_four_thirds_rule):
    with criterion("2 state convergence, epsilon = 0.01 h^(4/3)"):
        rows = conv_four_thirds_rule
        # the gate's own published range (1.29-1.65) excludes the first pair,
        # so the window is asserted from the third row on
        for row in rows[2:]:
            for name in ("order_l2", "order_linf"):
                assert 1.25 <= row[name] <= 1.70, (
                    f"h={row['h']}: {name} = {row[name]:.3f} outside [1.25, 1.70]")


def test_criterion_3_control_convergence_orders(conv_quadratic_rule, conv_four_thirds_rule):
    with criterion("3 control sup-norm convergence orders"):
        # the published control table spans h = 1/8 .. 1/256: five order pairs
        quad = [row["control_order_linf"] for row in conv_quadratic_rule[1:6]]
        four3 = [row["control_order_linf"] for row in conv_four_thirds_rule[1:6]]
        for order in quad:
            assert 0.90 <= order <= 1.15, f"control order {order:.3f} outside [0.90, 1.15]"
        for order in four3:
            assert 0.60 <= order <= 0.90, f"control order {order:.3f} outside [0.60, 0.90]"


def test_criterion_4_control_magnitude_sqrt_eps_over_pi(epsilon_rows):
    with criterion("4 control magnitude sqrt(eps)/pi"):
        assert len(epsilon_rows) == 10
        for row in epsilon_rows:
            expected = math.sqrt(row["epsilon"]) / math.pi
            assert row["control_linf"] == pytest.approx(expected, rel=5e-4), (
                f"epsilon={row['epsilon']:g}: control {row['control_linf']:.6g} "
                f"vs sqrt(eps)/pi = {expected:.6g}")


def test_criterion_5_epsilon_cauchy_trend(epsilon_rows):
    # With r = sqrt(eps) the difference between the runs at e and e/10 has
    # two parts of opposite sign: an O(sqrt(e)) part from the change in gain
    # and an O(e) part from the Robin relaxation, D(e) ~ A sqrt(e) - B e
    # (A ~ 0.060, B ~ 0.81 here; B is the pure penalty error measured at zero
    # gain).  The decade factor D(e)/D(e/10) then rises towards sqrt(10) from
    # below and never reaches it.  A flipped feedback sign makes B negative
    # and the factors fall towards sqrt(10) from above; a constant gain leaves
    # only the O(e) part, with factors tending to 10.
    with criterion("5 Cauchy-in-epsilon diff trend"):
        diffs = [row["diff_l2"] for row in epsilon_rows
                 if row["epsilon"] <= 1e-3 + 1e-12]
        assert len(diffs) == 7 and all(d is not None for d in diffs)
        for a, b in zip(diffs, diffs[1:]):
            assert b < a, f"diffs not strictly decreasing: {a:.3e} -> {b:.3e}"
        factors = [a / b for a, b in zip(diffs, diffs[1:])]
        for a, b in zip(factors, factors[1:]):
            assert b > a, f"decade factors not strictly increasing: {a:.3f} -> {b:.3f}"
        for factor in factors:
            assert factor < math.sqrt(10.0), f"decade factor {factor:.3f} >= sqrt(10)"
        assert factors[-1] == pytest.approx(math.sqrt(10.0), rel=0.01), (
            f"last decade factor {factors[-1]:.3f} not within 1% of sqrt(10)")


def test_criterion_6_stabilization_property():
    with criterion("6 stabilization: monotone decay, energy bound, fitted rate"):
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)
        grid = TimeGrid(k=1.0 / 1050.0, n_steps=1050)
        traj = simulate(params, make_uniform_mesh(128), sin_pi, grid)
        assert traj.failed_at is None
        assert np.all(np.diff(traj.l2) <= 0.0), "L2 norm not monotone non-increasing"
        gamma_max = max_decay_rate(params)
        assert gamma_max == pytest.approx(1.0 / 300.0, rel=1e-12, abs=0)
        monitor = energy_monitor(traj, gamma_max)
        assert monitor.passed, f"energy bound violated at step {monitor.first_violation}"
        fit = fit_decay_rate(traj)
        assert fit.gamma_fit >= gamma_max
        assert fit.gamma_fit == pytest.approx(0.1 * np.pi ** 2 - 0.13, rel=0.2)


def test_criterion_7a_structured_solve_vs_dense():
    with criterion("7a structured solve vs dense elimination (200 systems)"):
        for trial in range(200):
            rng = np.random.default_rng(42_000 + trial)
            n = int(rng.integers(2, 17))
            core = TridiagMatrix(diag=3.0 + rng.random(n),
                                 lower=rng.uniform(-1.0, 1.0, n - 1),
                                 upper=rng.uniform(-1.0, 1.0, n - 1))
            rank_one = RankOneUpdate(u=0.5 * rng.standard_normal(n),
                                     v=0.5 * rng.standard_normal(n))
            rhs = rng.standard_normal(n)
            x = solve_structured(core, rank_one, rhs)
            ref = np.linalg.solve(core.to_dense() + np.outer(rank_one.u, rank_one.v), rhs)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(x - ref)) <= 1e-12 * scale


def test_criterion_7b_residual_jacobian_and_trajectory_vs_dense_oracle():
    with criterion("7b residual/jacobian/trajectory vs independent dense oracle"):
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)
        mesh = make_uniform_mesh(8)
        system = assemble(mesh)
        linear = LinearPart.of(params, system, 0.1)
        for trial in range(5):
            rng = np.random.default_rng(77 + trial)
            y = rng.standard_normal(8)
            y_prev = rng.standard_normal(8)
            ours = residual(linear, system, y, y_prev)
            ref = oracles.dense_residual(params.nu, params.alpha, params.delta,
                                         params.r, params.epsilon, mesh.nodes,
                                         y, y_prev, 0.1)
            ref[-1] *= params.epsilon / params.nu  # the boundary row is taken times eps/nu
            assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            core, rank_one = jacobian(linear, system, y)
            dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
            ref_jac = oracles.dense_jacobian(params.nu, params.alpha, params.delta,
                                             params.r, params.epsilon, mesh.nodes, y, 0.1)
            ref_jac[-1] *= params.epsilon / params.nu
            assert np.max(np.abs(dense - ref_jac)) <= 1e-12 * np.max(np.abs(ref_jac))
        grid = TimeGrid(k=0.1, n_steps=3)
        y0 = project_initial(mesh, sin_pi)
        traj = simulate(params, mesh, sin_pi, grid)
        ref_states = oracles.dense_simulate(params.nu, params.alpha, params.delta,
                                            params.r, params.epsilon, mesh.nodes,
                                            y0, grid.k, grid.n_steps)
        assert np.max(np.abs(traj.states - ref_states)) <= 1e-10


def test_criterion_7c_jacobian_finite_difference_convergence():
    with criterion("7c jacobian vs finite differences, first order in tau above round-off"):
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)
        mesh = make_uniform_mesh(8)
        system = assemble(mesh)
        y = RNG.standard_normal(8)
        y_prev = np.zeros(8)
        linear = LinearPart.of(params, system, 0.1)
        core, rank_one = jacobian(linear, system, y)
        dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
        base = residual(linear, system, y, y_prev)
        # a difference quotient's round-off is about u max|f| / tau; an error
        # above 100 times that is truncation, which falls like tau
        unit = np.finfo(float).eps
        first_order = 0
        for j in range(8):
            errors, floors = [], []
            for tau in (1e-4, 1e-5, 1e-6):
                step = np.zeros(8)
                step[j] = tau
                fd = (residual(linear, system, y + step, y_prev) - base) / tau
                errors.append(float(np.max(np.abs(fd - dense[:, j]))))
                floors.append(100.0 * unit * float(np.max(np.abs(base))) / tau)
            for i in range(2):
                if errors[i] > floors[i] and errors[i + 1] > floors[i + 1]:
                    assert errors[i] / errors[i + 1] == pytest.approx(10.0, rel=0.25)
                    first_order += 1
                else:
                    assert errors[i + 1] <= floors[i + 1]
        assert first_order > 0


def test_criterion_7d_quadrature_operations_vs_composite_rule():
    with criterion("7d quadrature operations vs 50-point composite rule"):
        mesh = make_uniform_mesh(64)
        system = assemble(mesh)
        y = RNG.standard_normal(64)
        ref_cubic = oracles.dense_cubic_term(mesh.nodes, y)
        assert np.max(np.abs(cubic_term(mesh, y) - ref_cubic)) \
            <= 1e-12 * np.max(np.abs(ref_cubic))
        assert np.max(np.abs(system.moment - oracles.dense_moment(mesh.nodes))) <= 1e-14
        f = oracles.p1_function(mesh.nodes, y)
        l2, _ = norms(system, y)
        assert l2 == pytest.approx(
            math.sqrt(oracles.quad50(mesh.nodes, lambda x: f(x) ** 2)), rel=1e-12, abs=0)
        assert l4_norm(system, y) == pytest.approx(
            oracles.quad50(mesh.nodes, lambda x: f(x) ** 4) ** 0.25, rel=1e-12)
        small = make_uniform_mesh(16)
        y16 = RNG.standard_normal(16)
        ref_jac = oracles.dense_cubic_jacobian(small.nodes, y16)
        ours = cubic_jacobian(small, y16).to_dense()
        assert np.max(np.abs(ours - ref_jac)) <= 1e-12 * np.max(np.abs(ref_jac))


def test_criterion_8_exactness_identities():
    with criterion("8 exactness identities"):
        for n in (2, 8, 33, 200):
            system = assemble(make_uniform_mesh(n))
            h = 1.0 / n
            assert float(np.sum(system.moment)) == pytest.approx(0.5 - h * h / 6.0,
                                                                 abs=1e-15)
        system = assemble(make_uniform_mesh(32))
        interpolant = system.mesh.nodes[1:].copy()
        assert norms(system, interpolant)[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        linear_problem = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.2, epsilon=0.01)
        y0 = project_initial(system.mesh, sin_pi)
        _, report = newton_solve(LinearPart.of(linear_problem, system, 0.01), system, y0)
        assert report.newton_iterations == 1 and report.converged


def test_criterion_9_determinism_byte_identical(tmp_path):
    with criterion("9 determinism: byte-identical CSV output"):
        cfg = {
            "experiment": {"kind": "epsilon_study", "epsilons": [0.1, 0.01],
                           "gain_rule": "sqrt_eps", "svg": False},
            "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13},
            "mesh": {"n_elements": 32},
            "time": {"T": 0.1, "n_steps": 105},
            "initial": "sin_pi_x",
        }
        resolved = validate_config(cfg, "epsilon_study")
        run_epsilon_study(resolved, tmp_path / "a")
        run_epsilon_study(resolved, tmp_path / "b")
        assert (tmp_path / "a" / "epsilon_study.csv").read_bytes() == \
            (tmp_path / "b" / "epsilon_study.csv").read_bytes()
        decay_cfg = {
            "experiment": {"kind": "decay", "svg": False},
            "model": {"nu": 0.1, "alpha": 0.13, "delta": 0.13,
                      "epsilon": 0.01, "r": "sqrt_eps"},
            "mesh": {"n_elements": 32},
            "time": {"T": 0.1, "n_steps": 105},
            "initial": "sin_pi_x",
        }
        resolved = validate_config(decay_cfg, "decay")
        run_decay_experiment(resolved, tmp_path / "c")
        run_decay_experiment(resolved, tmp_path / "d")
        assert (tmp_path / "c" / "decay_penalized_feedback.csv").read_bytes() == \
            (tmp_path / "d" / "decay_penalized_feedback.csv").read_bytes()

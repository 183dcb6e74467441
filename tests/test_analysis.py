import collections
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from penalty_stab import (
    AnalysisError,
    EpsilonRow,
    MeshError,
    ModelParams,
    StateTrajectory,
    TimeGrid,
    assemble,
    dirichlet_rate_bounds,
    energy_monitor,
    epsilon_cauchy_study,
    error_vs_reference,
    fit_decay_rate,
    make_uniform_mesh,
    max_decay_rate,
    observed_orders,
    project_initial,
    restrict_to_coarse,
    simulate,
    step_ensemble,
)
from penalty_stab import solver
from penalty_stab.analysis import _fold_block_length
from penalty_stab.harness import INITIAL_PROFILES, _gain, load_config, validate_config

REAL_NEWTON_SOLVE = solver.newton_solve

RNG = np.random.default_rng(321)


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x))


def synthetic_trajectory(times, l2):
    times = np.asarray(times, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    n = times.shape[0]
    return StateTrajectory(
        variant="penalized_feedback", times=times, states=np.zeros((n, 2)),
        controls=np.zeros(n), l2=l2, linf=l2.copy(), step_reports=[], failed_at=None,
    )


# ---------------------------------------------------------------------------
# decay fits


def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 2.0, 101)
    traj = synthetic_trajectory(t, 0.7 * np.exp(-1.5 * t))
    fit = fit_decay_rate(traj, window=(0.0, 2.0))
    assert fit.gamma_fit == pytest.approx(1.5, abs=1e-10)
    assert fit.residual <= 1e-20
    assert fit.n_samples == 101


def test_fit_constant_norms_gives_zero_rate():
    t = np.linspace(0.0, 1.0, 50)
    fit = fit_decay_rate(synthetic_trajectory(t, np.full(50, 0.3)), window=(0.0, 1.0))
    assert fit.gamma_fit == pytest.approx(0.0, abs=1e-13)


def test_fit_default_window_skips_transient():
    t = np.linspace(0.0, 1.0, 201)
    fit = fit_decay_rate(synthetic_trajectory(t, np.exp(-2.0 * t)))
    assert fit.window == pytest.approx((0.1, 1.0))
    assert fit.gamma_fit == pytest.approx(2.0, abs=1e-10)


def test_fit_rejects_too_few_samples():
    t = np.array([0.0, 0.5, 1.0])
    with pytest.raises(AnalysisError):
        fit_decay_rate(synthetic_trajectory(t, np.exp(-t)), window=(0.4, 0.6))


def test_fit_invariant_under_norm_scaling():
    t = np.linspace(0.0, 1.0, 80)
    base = np.exp(-0.8 * t) * (1.0 + 0.01 * np.sin(9.0 * t))
    f1 = fit_decay_rate(synthetic_trajectory(t, base), window=(0.0, 1.0))
    f2 = fit_decay_rate(synthetic_trajectory(t, 123.456 * base), window=(0.0, 1.0))
    assert f1.gamma_fit == pytest.approx(f2.gamma_fit, rel=1e-9)


def test_fit_trims_underflowed_samples():
    t = np.linspace(0.0, 1.0, 11)
    norms = np.exp(-2.0 * t)
    norms[-3:] = 1e-18  # below the 100*eps floor relative to norms[0]
    fit = fit_decay_rate(synthetic_trajectory(t, norms), window=(0.0, 1.0))
    assert fit.n_trimmed == 3
    assert fit.n_samples == 8


# ---------------------------------------------------------------------------
# energy monitor


def test_energy_monitor_zero_trajectory_passes():
    t = np.linspace(0.0, 1.0, 10)
    result = energy_monitor(synthetic_trajectory(t, np.zeros(10)), gamma=0.5)
    assert result.passed and result.first_violation is None


def test_energy_monitor_flags_inflated_tail():
    t = np.linspace(0.0, 1.0, 10)
    norms = np.exp(-t)
    norms[-1] = 2.0
    result = energy_monitor(synthetic_trajectory(t, norms), gamma=0.5)
    assert not result.passed
    assert result.first_violation == 9


def test_energy_monitor_on_real_run():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=315)
    traj = simulate(params, make_uniform_mesh(32), sin_pi, grid)
    assert energy_monitor(traj, max_decay_rate(params)).passed


def test_energy_monitor_rejects_negative_gamma():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(AnalysisError):
        energy_monitor(synthetic_trajectory(t, np.ones(5)), gamma=-1.0)


def test_energy_monitor_rejects_nan_gamma():
    # a NaN bound compares false with every norm, so the monitor would pass any trajectory
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(AnalysisError):
        energy_monitor(synthetic_trajectory(t, np.ones(5)), gamma=math.nan)


# ---------------------------------------------------------------------------
# restriction and reference errors


def test_restrict_identity_on_same_mesh():
    mesh = make_uniform_mesh(8)
    y = RNG.standard_normal(8)
    assert np.array_equal(restrict_to_coarse(y, mesh, mesh), y)


def test_restrict_picks_every_kth_node():
    fine = make_uniform_mesh(2048)
    coarse = make_uniform_mesh(8)
    y = np.arange(2048, dtype=float)
    restricted = restrict_to_coarse(y, fine, coarse)
    assert np.array_equal(restricted, y[255::256])


def test_restrict_reproduces_p1_functions():
    # y(x) = x is linear on every coarse element: restriction keeps it exact
    fine, coarse = make_uniform_mesh(64), make_uniform_mesh(8)
    restricted = restrict_to_coarse(fine.nodes[1:].copy(), fine, coarse)
    assert np.allclose(restricted, coarse.nodes[1:], rtol=1e-15)


def test_restrict_rejects_non_nested():
    with pytest.raises(MeshError):
        restrict_to_coarse(np.zeros(12), make_uniform_mesh(12), make_uniform_mesh(8))


def test_error_vs_reference_identical_solutions():
    fine, coarse = make_uniform_mesh(32), make_uniform_mesh(8)
    y_fine = sin_pi(fine.nodes[1:])
    y_coarse = restrict_to_coarse(y_fine, fine, coarse)
    l2, linf = error_vs_reference(y_coarse, y_fine, assemble(coarse), fine)
    assert l2 == 0.0 and linf == 0.0


def test_error_single_nodal_bump():
    # unit bump at an interior node: linf = 1, l2 = sqrt(e' M e) = sqrt(2h/3)
    fine, coarse = make_uniform_mesh(16), make_uniform_mesh(8)
    y_fine = np.zeros(16)
    y_coarse = np.zeros(8)
    y_coarse[3] = 1.0
    l2, linf = error_vs_reference(y_coarse, y_fine, assemble(coarse), fine)
    assert linf == 1.0
    assert l2 == pytest.approx(math.sqrt(2.0 / (3.0 * 8.0)), rel=1e-14, abs=0)


def test_error_symmetric_under_sign_of_difference():
    fine, coarse = make_uniform_mesh(16), make_uniform_mesh(8)
    a = RNG.standard_normal(8)
    b_fine = RNG.standard_normal(16)
    b = restrict_to_coarse(b_fine, fine, coarse)
    system = assemble(coarse)
    l2_ab, linf_ab = error_vs_reference(a, b_fine, system, fine)
    e = b - a
    assert l2_ab == pytest.approx(math.sqrt(e @ system.mass.matvec(e)), rel=1e-14, abs=0)
    assert linf_ab == pytest.approx(np.max(np.abs(e)), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# observed orders


def test_observed_orders_simple_cases():
    assert observed_orders([4e-4, 1e-4], [0.5, 0.25])[0] == pytest.approx(2.0, rel=1e-12)
    assert observed_orders([3e-3, 3e-3], [0.5, 0.25])[0] == pytest.approx(0.0, abs=1e-12)


def test_observed_orders_published_pair():
    order = observed_orders([8.3928e-06, 2.1253e-06], [1.0 / 16.0, 1.0 / 32.0])[0]
    assert order == pytest.approx(1.98, abs=0.005)


def test_observed_orders_exact_power_sequence():
    hs = [2.0 ** -j for j in range(2, 7)]
    errors = [7.3 * h ** 1.5 for h in hs]
    assert np.allclose(observed_orders(errors, hs), 1.5, rtol=1e-12)


def test_observed_orders_zero_error_flagged_not_raised():
    orders = observed_orders([1e-3, 0.0, 1e-5], [0.5, 0.25, 0.125])
    assert np.isnan(orders[0]) and np.isnan(orders[1])


def test_observed_orders_validates_halving():
    with pytest.raises(AnalysisError):
        observed_orders([1e-3, 1e-4], [0.5, 0.3])
    with pytest.raises(AnalysisError):
        observed_orders([1e-3], [0.5])


# ---------------------------------------------------------------------------
# epsilon continuation study


def study_base():
    return ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=1.0)


def test_epsilon_study_repeated_value_gives_zero_diffs():
    grid = TimeGrid(k=0.01, n_steps=10)
    row = epsilon_cauchy_study(study_base(), make_uniform_mesh(8), grid,
                               [0.01, 0.01], math.sqrt, y0=sin_pi)[1]
    assert row.diff_l2 == 0.0
    assert row.diff_linf == 0.0
    assert row.control_diff_linf == 0.0


def test_epsilon_study_control_columns_match_analytics():
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=105)
    first, second = epsilon_cauchy_study(study_base(), make_uniform_mesh(64), grid,
                                         [1.0, 0.1], math.sqrt, y0=sin_pi)
    assert first.control_linf == pytest.approx(1.0 / math.pi, rel=1e-9)
    assert second.control_linf == pytest.approx(math.sqrt(0.1) / math.pi, rel=1e-9)
    # the sup-over-time control difference peaks just after t=0; it is bounded
    # below by the t=0 value (1 - sqrt(0.1))/pi = 0.21765 and stays close to it
    floor = (1.0 - math.sqrt(0.1)) / math.pi
    assert floor <= second.control_diff_linf <= 1.03 * floor


def test_epsilon_study_rejects_ascending_list():
    grid = TimeGrid(k=0.01, n_steps=5)
    with pytest.raises(AnalysisError):
        epsilon_cauchy_study(study_base(), make_uniform_mesh(8), grid,
                             [0.01, 0.1], math.sqrt, y0=sin_pi)
    empty = epsilon_cauchy_study(study_base(), make_uniform_mesh(8), grid, [], math.sqrt,
                                 y0=sin_pi)
    assert empty == ()


def test_epsilon_study_row_fields_populated():
    grid = TimeGrid(k=0.01, n_steps=20)
    rows = epsilon_cauchy_study(study_base(), make_uniform_mesh(16), grid,
                                [0.1, 0.01], math.sqrt, y0=sin_pi)
    assert len(rows) == 2
    first = rows[0]
    assert first.diff_l2 is None and first.control_diff_linf is None
    assert first.r == pytest.approx(math.sqrt(0.1))
    for row in rows:
        assert not row.failed
        assert row.state_l2_sup >= row.state_l2 > 0.0
        assert row.state_linf_sup >= row.state_linf > 0.0


def test_epsilon_study_diffs_nonnegative_and_finite():
    grid = TimeGrid(k=0.01, n_steps=30)
    rows = epsilon_cauchy_study(study_base(), make_uniform_mesh(16), grid,
                                [1.0, 0.1, 0.01], math.sqrt, y0=sin_pi)
    for row in rows[1:]:
        assert row.diff_l2 > 0.0 and np.isfinite(row.diff_l2)
        assert row.diff_linf > 0.0 and np.isfinite(row.diff_linf)


def serial_epsilon_rows(base, mesh, grid, epsilons, gain_rule, y0):
    """Study rows rebuilt from one simulate per epsilon (the serial formulas)."""
    mass = assemble(mesh).mass

    def rowwise_l2(states):
        mv = states * mass.diag
        mv[:, :-1] += states[:, 1:] * mass.upper
        mv[:, 1:] += states[:, :-1] * mass.lower
        return np.sqrt(np.maximum(np.einsum("ij,ij->i", states, mv), 0.0))

    rows, trajectories, prev = [], [], None
    for i, eps in enumerate(epsilons):
        params = dataclasses.replace(base, r=float(gain_rule(eps)), epsilon=eps)
        traj = simulate(params, mesh, y0, grid)
        failed = traj.failed_at is not None
        diffs = (None, None, None)
        if i > 0:
            if failed or prev is None:
                diffs = (float("nan"),) * 3
            else:
                d = traj.states - prev.states
                diffs = (float(np.max(rowwise_l2(d))), float(np.max(np.abs(d))),
                         float(np.max(np.abs(traj.controls - prev.controls))))
        rows.append(EpsilonRow(
            epsilon=eps, r=params.r, state_l2=float(traj.l2[-1]),
            state_linf=float(traj.linf[-1]), state_l2_sup=float(np.max(traj.l2)),
            state_linf_sup=float(np.max(traj.linf)),
            control_linf=float(np.max(np.abs(traj.controls))),
            diff_l2=diffs[0], diff_linf=diffs[1], control_diff_linf=diffs[2], failed=failed,
        ))
        trajectories.append(traj)
        prev = None if failed else traj
    return rows, trajectories


class FailAt:
    """Test double for ``solver.newton_solve`` that fails chosen steps.

    ``fail_at`` maps an epsilon to the step (counted from 1) whose report is
    marked unconverged; the state and every other field are the real solve's.
    A run is told by its linear part's boundary scale ``eps/nu``, with the
    ``nu`` of :func:`study_base`, so every run must be penalized.  Steps are
    counted per epsilon, so an epsilon given a step must belong to one run
    only.
    """

    def __init__(self, fail_at):
        nu = study_base().nu
        self.fail_at = {eps / nu: step for eps, step in fail_at.items()}
        self.steps = collections.Counter()

    def __call__(self, linear, *args, **kwargs):
        y, reports = REAL_NEWTON_SOLVE(linear, *args, **kwargs)
        for j, scale in enumerate(np.ravel(linear.scale).tolist()):
            self.steps[scale] += 1
            if self.fail_at.get(scale) == self.steps[scale]:
                if y.ndim == 1:
                    reports = dataclasses.replace(reports, converged=False)
                else:  # marked in the stack's report, which the march reads
                    reports.converged[j] = False
        return y, reports


def assert_study_equals_separate_runs(monkeypatch, epsilons, fail_at=None, *,
                                      n_elements=128, n_steps=40):
    """Check the stacked study against one simulate per epsilon; return those runs.

    Every field of every row must be equal bit for bit, and so must every
    step report.  ``fail_at`` is passed to a fresh :class:`FailAt` for the
    study, for the separate runs, and for the stepped reports alike.
    """
    def inject_failures():
        monkeypatch.setattr(solver, "newton_solve", FailAt(fail_at or {}))

    mesh = make_uniform_mesh(n_elements)
    grid = TimeGrid(k=1.0 / n_steps, n_steps=n_steps)
    base = study_base()
    inject_failures()
    expected, trajectories = serial_epsilon_rows(base, mesh, grid, epsilons, math.sqrt, sin_pi)

    inject_failures()
    rows = epsilon_cauchy_study(base, mesh, grid, epsilons, math.sqrt, y0=sin_pi)
    for row, want in zip(rows, expected, strict=True):
        for field in dataclasses.fields(EpsilonRow):
            got, ref = getattr(row, field.name), getattr(want, field.name)
            both_nan = isinstance(got, float) and isinstance(ref, float) and \
                math.isnan(got) and math.isnan(ref)
            assert both_nan or got == ref, (row.epsilon, field.name, got, ref)

    inject_failures()
    members = [dataclasses.replace(base, r=math.sqrt(eps), epsilon=eps) for eps in epsilons]
    reports = [[] for _ in members]
    system = assemble(mesh)
    for level in step_ensemble(members, system, project_initial(mesh, sin_pi), grid):
        for i, step_report in level.reports.items():
            reports[i].append(step_report)
    for got, traj in zip(reports, trajectories, strict=True):
        assert got == traj.step_reports
    return trajectories


def test_epsilon_study_equals_separate_runs_bit_for_bit(monkeypatch):
    # down to eps = 1e-12 every run finishes: the boundary row is taken times
    # eps/nu, so its round-off does not grow as eps shrinks
    trajectories = assert_study_equals_separate_runs(
        monkeypatch, [1e-3, 1e-10, 1e-11, 1e-12, 1e-12])
    assert [t.failed_at for t in trajectories] == [None] * 5

    # members leave the stack (with their extrapolation levels) at chosen steps
    trajectories = assert_study_equals_separate_runs(
        monkeypatch, [1.0, 1e-1, 1e-3, 1e-6, 1e-10, 1e-11, 1e-12],
        {1.0: 5, 1e-1: 1, 1e-6: 1, 1e-10: 7, 1e-12: 2})
    failed_at = [t.failed_at for t in trajectories]
    assert failed_at == [5, 1, None, 1, 7, None, 2]
    assert None in failed_at and 1 in failed_at
    assert any(step is not None and step >= 2 for step in failed_at)


TEN_EPSILONS = [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]


def test_epsilon_study_blocks_equal_separate_runs_bit_for_bit(monkeypatch):
    # 41 levels in blocks of 6: the last block is partial
    block = _fold_block_length(len(TEN_EPSILONS), 128)
    assert block == 6 and 41 % block
    assert_study_equals_separate_runs(monkeypatch, TEN_EPSILONS)

    # a drop-out mid-block flushes the levels before it and starts a block
    # at its level, so a drop-out one block later falls on a block's first
    # level; a third one ends the march with a partial block
    mid, first = block // 2, block // 2 + block
    trajectories = assert_study_equals_separate_runs(
        monkeypatch, TEN_EPSILONS, {1e-2: mid, 1e-5: first, 1e-6: first, 1e-8: 40})
    failed_at = [t.failed_at for t in trajectories]
    assert failed_at == [None, None, mid, None, None, first, first, None, 40, None]


def test_epsilon_study_block_of_one_level_equals_separate_runs(monkeypatch):
    # 10 states of N=1024 exceed the block budget, so each level is a block
    assert _fold_block_length(len(TEN_EPSILONS), 1024) == 1
    trajectories = assert_study_equals_separate_runs(
        monkeypatch, TEN_EPSILONS, {1e-3: 4}, n_elements=1024, n_steps=12)
    assert [t.failed_at for t in trajectories] == [None] * 3 + [4] + [None] * 6


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", ["decay_controlled.json", "decay_quadratic_profile.json"])
def test_fitted_decay_rate_is_at_least_the_certified_rate(config):
    # every variant of both decay configs, each against its own certified
    # rate: the penalized max_decay_rate, the Dirichlet feedback gamma_max,
    # and the latter at r = 0 for the pinned baseline
    resolved = validate_config(load_config(CONFIGS / config), "decay")
    model = resolved["model"]
    params = ModelParams(nu=model["nu"], alpha=model["alpha"], delta=model["delta"],
                         r=_gain(model["r"])(model["epsilon"]), epsilon=model["epsilon"])
    # (name, parameters, simulate variant, certified rate); epsilon = 0 is the
    # Dirichlet feedback problem
    certified = [("penalized_feedback", params, "penalized_feedback", max_decay_rate(params)),
                 ("dirichlet_feedback", dataclasses.replace(params, epsilon=0.0),
                  "penalized_feedback", dirichlet_rate_bounds(params).gamma_max),
                 ("uncontrolled_dirichlet", params, "uncontrolled_dirichlet",
                  dirichlet_rate_bounds(dataclasses.replace(params, r=0.0)).gamma_max)]
    mesh = make_uniform_mesh(resolved["mesh"]["n_elements"])
    T, n_steps = resolved["time"]["T"], resolved["time"]["n_steps"]
    grid = TimeGrid(k=T / n_steps, n_steps=n_steps)
    for name, run_params, variant, gamma in certified:
        traj = simulate(run_params, mesh, INITIAL_PROFILES[resolved["initial"]], grid, variant)
        assert traj.failed_at is None
        assert fit_decay_rate(traj).gamma_fit >= gamma > 0.0, name

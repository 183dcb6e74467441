import math

import numpy as np
import pytest

import oracles
from penalty_stab import (
    LinearPart,
    MeshError,
    ModelParams,
    ParameterDomainError,
    ParamStack,
    RankOneUpdate,
    SingularCoreError,
    SingularUpdateError,
    TimeGrid,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    jacobian,
    make_uniform_mesh,
    newton_solve,
    norms,
    project_initial,
    residual,
    simulate,
    solve_structured,
    step_ensemble,
)

RNG = np.random.default_rng(987654)

EXAMPLE = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.1, epsilon=0.01)


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x))


def random_structured_system(rng, n):
    diag = 3.0 + rng.random(n)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    core = TridiagMatrix(diag=diag, lower=lower, upper=upper)
    rank_one = RankOneUpdate(u=0.5 * rng.standard_normal(n), v=0.5 * rng.standard_normal(n))
    rhs = rng.standard_normal(n)
    return core, rank_one, rhs


# ---------------------------------------------------------------------------
# time grid


def test_time_grid_from_final_time():
    grid = TimeGrid.from_final_time(1.0 / 1050.0, 1.0)
    assert grid.n_steps == 1050
    assert grid.T == pytest.approx(1.0, abs=1e-12)
    times = grid.times()
    assert times.shape == (1051,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_time_grid_validation():
    with pytest.raises(ParameterDomainError):
        TimeGrid.from_final_time(0.3, 1.0)  # 0.3 does not divide 1
    with pytest.raises(ParameterDomainError):
        TimeGrid(k=-0.1, n_steps=5)
    with pytest.raises(ParameterDomainError):
        TimeGrid(k=0.1, n_steps=0)


# ---------------------------------------------------------------------------
# residual and jacobian


def test_residual_zero_at_zero_steady_state():
    system = assemble(make_uniform_mesh(8))
    zero = np.zeros(8)
    assert np.array_equal(residual(EXAMPLE, system, zero, zero, 0.1), zero)


def test_residual_matches_dense_oracle():
    mesh = make_uniform_mesh(4)
    system = assemble(mesh)
    y = RNG.standard_normal(4)
    y_prev = RNG.standard_normal(4)
    ours = residual(EXAMPLE, system, y, y_prev, 0.1)
    ref = oracles.dense_residual(EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, EXAMPLE.r,
                                 EXAMPLE.epsilon, mesh.nodes, y, y_prev, 0.1)
    assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_linear_heat_residual_matches_dense_matrices():
    # delta = 0 and r = 0 reduce to (M/k + nu K + (nu/eps) e e' - alpha M) y - M y_prev / k
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.0, epsilon=0.01)
    mesh = make_uniform_mesh(6)
    system = assemble(mesh)
    y = RNG.standard_normal(6)
    y_prev = RNG.standard_normal(6)
    k = 0.05
    m = oracles.dense_mass(mesh.nodes)
    kk = oracles.dense_stiffness(mesh.nodes)
    a = m / k + params.nu * kk - params.alpha * m
    a[-1, -1] += params.nu / params.epsilon
    expected = a @ y - m @ y_prev / k
    assert np.allclose(residual(params, system, y, y_prev, k), expected, rtol=1e-12, atol=1e-14)


def test_residual_rejects_mismatched_states():
    system = assemble(make_uniform_mesh(8))
    with pytest.raises(MeshError):
        residual(EXAMPLE, system, np.zeros(7), np.zeros(8), 0.1)


def test_jacobian_matches_finite_differences_columnwise():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    y = RNG.standard_normal(8)
    k = 0.1
    core, rank_one = jacobian(EXAMPLE, system, y, k)
    dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
    y_prev = np.zeros(8)
    base = residual(EXAMPLE, system, y, y_prev, k)
    for j in range(8):
        errors = []
        for tau in (1e-4, 1e-5, 1e-6):
            e_j = np.zeros(8)
            e_j[j] = tau
            fd = (residual(EXAMPLE, system, y + e_j, y_prev, k) - base) / tau
            errors.append(np.max(np.abs(fd - dense[:, j])))
        # first order in the perturbation until round-off
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.2)


def test_jacobian_matches_dense_oracle():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    y = RNG.standard_normal(8)
    core, rank_one = jacobian(EXAMPLE, system, y, 0.1)
    dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
    ref = oracles.dense_jacobian(EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, EXAMPLE.r,
                                 EXAMPLE.epsilon, mesh.nodes, y, 0.1)
    assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobian_zero_gain_has_no_rank_one_part():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    system = assemble(make_uniform_mesh(8))
    core, rank_one = jacobian(params, system, RNG.standard_normal(8), 0.1)
    assert rank_one is None
    assert np.array_equal(core.lower, core.upper)


def test_jacobian_linear_problem_is_state_independent():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.1, epsilon=0.01)
    system = assemble(make_uniform_mesh(8))
    core1, _ = jacobian(params, system, RNG.standard_normal(8), 0.1)
    core2, _ = jacobian(params, system, RNG.standard_normal(8), 0.1)
    assert np.array_equal(core1.diag, core2.diag)
    assert np.array_equal(core1.lower, core2.lower)


def from_scratch_core(params, system, y, k, hard_constraint=False, **_):
    """Tridiagonal Newton core built in one pass, the order the hoisting must keep."""
    jc = cubic_jacobian(system.mesh, y)
    weight = 1.0 / k - params.alpha
    diag = weight * system.mass.diag + params.nu * system.stiffness.diag + params.delta * jc.diag
    off = weight * system.mass.lower + params.nu * system.stiffness.lower + params.delta * jc.lower
    lower, b = off.copy(), system.boundary_dof
    if hard_constraint:
        diag[..., b] = 1.0
        lower[..., b - 1] = 0.0
    else:
        diag[..., b:b + 1] += params.nu / params.epsilon
    return diag, lower, off


@pytest.mark.parametrize("case", ["penalized", "hard_constraint", "zero_gain", "lagged",
                                  "stack_take"])
def test_jacobian_with_prebuilt_linear_part_is_bit_identical(case):
    system = assemble(make_uniform_mesh(12))
    y = 0.7 * sin_pi(system.mesh.nodes[1:])
    params, options, k = EXAMPLE, {}, 0.01
    if case == "hard_constraint":
        options = {"hard_constraint": True}
    elif case == "zero_gain":
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    elif case == "lagged":
        options = {"implicit_control": False}
    if case == "stack_take":
        stack = ParamStack.of([EXAMPLE, ModelParams(nu=0.2, alpha=0.1, delta=1.0, r=0.3,
                                                    epsilon=0.05),
                               ModelParams(nu=0.1, alpha=0.05, delta=0.5, r=0.01, epsilon=1e-4)])
        rows = np.array([0, 2])
        params, linear = stack.take(rows), LinearPart.of(stack, system, k).take(rows)
        y = np.stack([y, 2.0 * y])
    else:
        linear = LinearPart.of(params, system, k, **options)
    prebuilt = [linear.diag, linear.off, linear.penalty]
    if linear.rank_one is not None:
        prebuilt += [linear.rank_one.u, linear.rank_one.v]
    prebuilt = [a for a in prebuilt if a is not None]
    saved = [np.copy(a) for a in prebuilt]
    # compared after both calls: the second must not write into the first's arrays
    states = (y, -1.5 * y)
    results = [(jacobian(params, system, state, k, **options, linear=linear),
                jacobian(params, system, state, k, **options)) for state in states]
    for state, ((core, rank_one), (ref_core, ref_rank_one)) in zip(states, results):
        expected = from_scratch_core(params, system, state, k, **options)
        for name, bands in zip(("diag", "lower", "upper"), expected):
            assert np.array_equal(getattr(core, name), bands)
            assert np.array_equal(getattr(ref_core, name), bands)
        assert (rank_one is None) == (ref_rank_one is None) == (case in ("zero_gain", "lagged"))
        if rank_one is not None:
            assert np.array_equal(rank_one.u, ref_rank_one.u)
            assert np.array_equal(rank_one.v, ref_rank_one.v)
    for array, copy in zip(prebuilt, saved):
        assert np.array_equal(array, copy)


# ---------------------------------------------------------------------------
# structured solve


def test_structured_solve_without_update_is_plain_tridiagonal():
    eye = TridiagMatrix.symmetric(np.ones(6), np.zeros(5))
    rhs = RNG.standard_normal(6)
    assert np.allclose(solve_structured(eye, None, rhs), rhs, rtol=1e-15)


def test_structured_solve_matches_dense_elimination():
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 17))
        core, rank_one, rhs = random_structured_system(rng, n)
        x = solve_structured(core, rank_one, rhs)
        dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_structured_solve_singular_update_detected():
    # engineer 1 + v . core^{-1} u = 0 through the dense inverse
    rng = np.random.default_rng(7)
    core, _, rhs = random_structured_system(rng, 8)
    u = np.zeros(8)
    u[-1] = 1.0
    x_u = np.linalg.solve(core.to_dense(), u)
    v = -x_u / float(x_u @ x_u)  # v . core^{-1} u = -1 exactly (up to round-off)
    with pytest.raises(SingularUpdateError):
        solve_structured(core, RankOneUpdate(u=u, v=v), rhs)


def stacked(systems):
    """One stack of cores, rank-one updates and right-hand sides."""
    cores, rank_ones, rhss = zip(*systems)
    core = TridiagMatrix(diag=np.stack([c.diag for c in cores]),
                         lower=np.stack([c.lower for c in cores]),
                         upper=np.stack([c.upper for c in cores]))
    rank_one = RankOneUpdate(u=np.stack([r.u for r in rank_ones]),
                             v=np.stack([r.v for r in rank_ones]))
    return core, rank_one, np.stack(rhss)


def test_stacked_solves_equal_separate_solves_bit_for_bit():
    rng = np.random.default_rng(31)
    systems = [random_structured_system(rng, 12) for _ in range(5)]
    core, rank_one, rhs = stacked(systems)
    plain = core.solve(rhs)
    structured = solve_structured(core, rank_one, rhs)
    for b, (core_b, rank_one_b, rhs_b) in enumerate(systems):
        assert np.array_equal(plain[b], core_b.solve(rhs_b))
        assert np.array_equal(structured[b], solve_structured(core_b, rank_one_b, rhs_b))


def test_stacked_solve_zero_pivot_in_one_block_raises():
    rng = np.random.default_rng(32)
    core, _, rhs = stacked([random_structured_system(rng, 6) for _ in range(3)])
    core.diag[1, 0] = 0.0  # column 0 of block 1 is zero: a zero pivot
    core.lower[1, 0] = 0.0
    with pytest.raises(SingularCoreError):
        core.solve(rhs)


def test_stacked_solve_singular_update_in_one_member_raises():
    rng = np.random.default_rng(33)
    systems = [random_structured_system(rng, 8) for _ in range(3)]
    core_1, _, rhs_1 = systems[1]
    u = np.zeros(8)
    u[-1] = 1.0
    x_u = np.linalg.solve(core_1.to_dense(), u)
    systems[1] = (core_1, RankOneUpdate(u=u, v=-x_u / float(x_u @ x_u)), rhs_1)
    with pytest.raises(SingularUpdateError):
        solve_structured(*stacked(systems))


# ---------------------------------------------------------------------------
# newton


def test_newton_zero_state_converges_in_one_iteration():
    system = assemble(make_uniform_mesh(8))
    y, report = newton_solve(EXAMPLE, system, np.zeros(8), k=0.1)
    assert np.array_equal(y, np.zeros(8))
    assert report.newton_iterations == 1
    assert report.converged
    assert report.final_residual_norm == 0.0


def test_newton_linear_problem_single_iteration():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.3, epsilon=0.01)
    system = assemble(make_uniform_mesh(16))
    y_prev = sin_pi(system.mesh.nodes[1:])
    y, report = newton_solve(params, system, y_prev, k=0.01)
    assert report.newton_iterations == 1
    assert report.converged
    assert report.final_residual_norm <= 1e-12


def test_newton_reference_setup_iteration_budget():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    from penalty_stab import project_initial
    y = project_initial(mesh, sin_pi)
    k = 1.0 / 1050.0
    for _ in range(10):
        y, report = newton_solve(EXAMPLE, system, y, k)
        assert report.converged
        assert report.newton_iterations <= 5
        assert report.final_residual_norm <= 1e-12


def test_newton_quadratic_convergence_ratios():
    mesh = make_uniform_mesh(16)
    system = assemble(mesh)
    params = ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05)
    y_prev = 3.0 * sin_pi(mesh.nodes[1:])
    _, report = newton_solve(params, system, y_prev, k=0.5, tol=1e-13, max_iter=30)
    assert report.converged
    hist = report.residual_norms
    assert len(hist) >= 5
    ratios = [hist[i + 1] / hist[i] ** 2 for i in range(len(hist) - 1)]
    # terminal phase: ||F_{i+1}|| <= C ||F_i||^2 with modest C (measured ~0.35)
    assert ratios[-1] <= 1.0
    assert ratios[-2] <= 1.0


def test_newton_nonconvergence_reported_not_raised():
    system = assemble(make_uniform_mesh(8))
    y_prev = 5.0 * np.ones(8)
    y, report = newton_solve(EXAMPLE, system, y_prev, k=10.0, tol=1e-30, max_iter=2)
    assert not report.converged
    assert report.newton_iterations == 2
    assert np.all(np.isfinite(y))


def test_newton_stack_equals_separate_steps():
    # members converge after different iteration counts and one runs out of
    # iterations; each must take exactly the iterates of its own step
    system = assemble(make_uniform_mesh(16))
    x = system.mesh.nodes[1:]
    members = [
        (ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.3, epsilon=0.01), sin_pi(x)),
        (ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05), 3.0 * sin_pi(x)),
        (EXAMPLE, 0.5 * sin_pi(x)),
        (ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05), 2.0 * sin_pi(x)),
    ]
    for implicit in (True, False):
        params = ParamStack.of([p for p, _ in members])
        y_prev = np.stack([y for _, y in members])
        y, reports = newton_solve(params, system, y_prev, k=0.5, tol=1e-13, max_iter=4,
                                  implicit_control=implicit)
        separate = [newton_solve(p, system, y0, k=0.5, tol=1e-13, max_iter=4,
                                 implicit_control=implicit) for p, y0 in members]
        assert len({r.newton_iterations for r in reports}) > 1
        assert not all(r.converged for r in reports)
        for b, (y_b, report_b) in enumerate(separate):
            assert np.array_equal(y[b], y_b)
            assert reports[b] == report_b


def test_newton_start_sets_the_first_iterate_only():
    system = assemble(make_uniform_mesh(16))
    y_prev = 0.5 * sin_pi(system.mesh.nodes[1:])
    plain, plain_report = newton_solve(EXAMPLE, system, y_prev, k=0.01)
    y, report = newton_solve(EXAMPLE, system, y_prev, k=0.01, start=y_prev.copy())
    assert np.array_equal(y, plain) and report == plain_report
    start = 1.01 * y_prev
    y, report = newton_solve(EXAMPLE, system, y_prev, k=0.01, start=start)
    assert np.array_equal(start, 1.01 * y_prev)  # not written into
    f = residual(EXAMPLE, system, start, y_prev, k=0.01)
    f[-1] /= EXAMPLE.nu / EXAMPLE.epsilon
    assert report.residual_norms[0] == pytest.approx(np.linalg.norm(f), rel=1e-14)
    assert report.converged
    assert np.max(np.abs(y - plain)) <= 1e-12
    with pytest.raises(MeshError):
        newton_solve(EXAMPLE, system, y_prev, k=0.01, start=start[:-1])


@pytest.mark.parametrize("hard_constraint", [False, True])
def test_newton_norm_divides_only_the_penalized_boundary_entry(hard_constraint):
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.05, epsilon=1e-9)
    system = assemble(make_uniform_mesh(32))
    y_prev = sin_pi(system.mesh.nodes[1:])
    y, report = newton_solve(params, system, y_prev, k=1e-3, hard_constraint=hard_constraint)
    assert report.converged
    f = residual(params, system, y, y_prev, k=1e-3, hard_constraint=hard_constraint)
    if not hard_constraint:
        f[-1] *= params.epsilon / params.nu
    assert report.final_residual_norm == pytest.approx(np.linalg.norm(f), rel=1e-12)
    assert report.final_residual_norm <= 1e-12


@pytest.mark.filterwarnings("ignore:stabilization conditions")
@pytest.mark.parametrize("n_elements, epsilon, r, n_steps", [
    (64, 1e-7, 0.05, 210),
    (128, 1e-11, math.sqrt(1e-11), 1050),
    (2048, 1e-11, math.sqrt(1e-11), 50),
    (2048, 1e-12, math.sqrt(1e-12), 50),
])
def test_small_eps_runs_finish_at_default_tolerance(n_elements, epsilon, r, n_steps):
    # the nu/eps-amplified boundary entry used to hold Newton at a round-off
    # floor above 1e-12, failing these runs at steps 3, 10, 1 and 1
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=r, epsilon=epsilon)
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=n_steps)
    traj = simulate(params, make_uniform_mesh(n_elements), sin_pi, grid)
    assert traj.failed_at is None
    assert all(report.converged for report in traj.step_reports)


@pytest.mark.parametrize("variant", ["penalized_feedback", "uncontrolled_dirichlet"])
def test_extrapolated_start_takes_one_newton_iteration_per_step(variant):
    # the decay config's runs; from y_n alone every step took 2 iterations
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=1050)
    traj = simulate(EXAMPLE, make_uniform_mesh(128), sin_pi, grid, variant)
    assert traj.failed_at is None
    assert sum(report.newton_iterations for report in traj.step_reports) <= 1.05 * 1050


def test_stacked_runs_equal_runs_stepped_one_by_one_from_extrapolation():
    system = assemble(make_uniform_mesh(32))
    y0 = project_initial(system.mesh, sin_pi)
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=12)
    members = [ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(eps), epsilon=eps)
               for eps in (1e-1, 1e-4, 1e-8)]
    stacked = list(step_ensemble(members, system, y0, grid))
    # members leave the stacked iteration after one or after two updates
    assert {r.newton_iterations for r in stacked[-1].reports.values()} == {1, 2}
    for b, params in enumerate(members):
        # Newton by hand, each step after the first from 2 y_n - y_{n-1}
        previous, y = None, y0
        for level in stacked[1:]:
            start = None if previous is None else 2.0 * y - previous
            previous, (y, report) = y, newton_solve(params, system, y, grid.k, start=start)
            assert np.array_equal(level.states[b], y)
            assert level.reports[b] == report


def test_newton_nan_state_reported_not_raised():
    system = assemble(make_uniform_mesh(8))
    y_prev = np.ones(8)
    y_prev[3] = np.nan
    _, report = newton_solve(EXAMPLE, system, y_prev, k=0.01, max_iter=3)
    assert not report.converged
    assert report.newton_iterations == 3


def test_newton_control_value_matches_state():
    system = assemble(make_uniform_mesh(8))
    y0 = 0.5 * sin_pi(system.mesh.nodes[1:])
    y, report = newton_solve(EXAMPLE, system, y0, k=0.01)
    assert report.control_value == -EXAMPLE.r * float(system.moment @ y)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_initial_data_stays_zero():
    grid = TimeGrid(k=0.01, n_steps=20)
    traj = simulate(EXAMPLE, make_uniform_mesh(8), lambda x: 0.0 * np.asarray(x), grid)
    assert np.array_equal(traj.states, np.zeros((21, 8)))
    assert np.array_equal(traj.controls, np.zeros(21))
    assert np.array_equal(traj.l2, np.zeros(21))


def test_simulate_records_full_trajectory():
    grid = TimeGrid(k=0.01, n_steps=15)
    traj = simulate(EXAMPLE, make_uniform_mesh(8), sin_pi, grid)
    assert traj.failed_at is None
    for arr in (traj.times, traj.controls, traj.l2, traj.linf, traj.l4, traj.h1_semi):
        assert arr.shape == (16,)
    assert traj.states.shape == (16, 8)
    assert len(traj.step_reports) == 16


def test_simulate_decay_is_monotone():
    grid = TimeGrid.from_final_time(1.0 / 1050.0, 0.2)
    traj = simulate(EXAMPLE, make_uniform_mesh(16), sin_pi, grid)
    assert np.all(np.diff(traj.l2) <= 0.0)


def test_simulate_controls_recomputable_bit_for_bit():
    grid = TimeGrid(k=0.01, n_steps=25)
    mesh = make_uniform_mesh(12)
    system = assemble(mesh)
    traj = simulate(EXAMPLE, mesh, sin_pi, grid)
    recomputed = np.array([-EXAMPLE.r * float(system.moment @ s) for s in traj.states])
    assert np.array_equal(traj.controls, recomputed)


def test_simulate_initial_control_matches_analytic_moment():
    # u(0) = -r * integral(x sin(pi x)) = -r / pi, exact for the L2 projection
    grid = TimeGrid(k=0.01, n_steps=2)
    traj = simulate(EXAMPLE, make_uniform_mesh(64), sin_pi, grid)
    assert traj.controls[0] == pytest.approx(-EXAMPLE.r / np.pi, rel=1e-10)


def test_simulate_matches_dense_oracle_trajectory():
    mesh = make_uniform_mesh(8)
    grid = TimeGrid(k=0.1, n_steps=3)
    from penalty_stab import project_initial
    y0 = project_initial(mesh, sin_pi)
    traj = simulate(EXAMPLE, mesh, sin_pi, grid)
    ref = oracles.dense_simulate(EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, EXAMPLE.r,
                                 EXAMPLE.epsilon, mesh.nodes, y0, grid.k, grid.n_steps)
    assert np.max(np.abs(traj.states - ref)) <= 1e-10


def test_dirichlet_feedback_matches_dense_oracle():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    coefficients = (EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, EXAMPLE.r)
    for trial in range(5):
        rng = np.random.default_rng(177 + trial)
        y = rng.standard_normal(8)
        y_prev = rng.standard_normal(8)
        ours = residual(EXAMPLE, system, y, y_prev, 0.1, hard_constraint=True)
        ref = oracles.dense_residual(*coefficients, 0.0, mesh.nodes, y, y_prev, 0.1)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        core, rank_one = jacobian(EXAMPLE, system, y, 0.1, hard_constraint=True)
        dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
        ref_jac = oracles.dense_jacobian(*coefficients, 0.0, mesh.nodes, y, 0.1)
        assert np.max(np.abs(dense - ref_jac)) <= 1e-12 * np.max(np.abs(ref_jac))
    grid = TimeGrid(k=0.1, n_steps=3)
    traj = simulate(EXAMPLE, mesh, sin_pi, grid, "dirichlet_feedback")
    ref = oracles.dense_simulate(*coefficients, 0.0, mesh.nodes, project_initial(mesh, sin_pi),
                                 grid.k, grid.n_steps)
    assert np.max(np.abs(traj.states - ref)) <= 1e-10
    # y(1) = u holds from the first step on
    assert np.max(np.abs(traj.states[1:, -1] - traj.controls[1:])) <= 1e-12


def test_dirichlet_feedback_at_zero_gain_is_the_pinned_baseline():
    # interpolated x(1 - x) vanishes at x = 1, so both variants start from
    # the same state (the pinned baseline zeroes the boundary value of its
    # initial state, which the feedback variant keeps as projected)
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    grid = TimeGrid(k=0.01, n_steps=30)
    mesh = make_uniform_mesh(16)
    runs = [simulate(params, mesh, lambda x: x * (1.0 - x), grid, variant,
                     projection="interpolation")
            for variant in ("dirichlet_feedback", "uncontrolled_dirichlet")]
    assert np.array_equal(runs[0].states, runs[1].states)
    for hard, pinned in zip(runs[0].step_reports, runs[1].step_reports):
        assert hard.newton_iterations == pinned.newton_iterations
        assert hard.residual_norms == pinned.residual_norms


def test_uncontrolled_matches_dense_oracle_from_pinned_projection():
    # the L2 projection of sin(pi x) is nonzero at x = 1; the baseline starts
    # from it with the boundary value zeroed, and pins it there
    mesh = make_uniform_mesh(8)
    grid = TimeGrid(k=0.1, n_steps=3)
    y0 = project_initial(mesh, sin_pi)
    assert y0[-1] != 0.0
    y0[-1] = 0.0
    traj = simulate(EXAMPLE, mesh, sin_pi, grid, "uncontrolled_dirichlet")
    ref = oracles.dense_simulate(EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, 0.0, 0.0,
                                 mesh.nodes, y0, grid.k, grid.n_steps)
    assert np.max(np.abs(traj.states - ref)) <= 1e-10
    assert np.array_equal(traj.states[:, -1], np.zeros(4))
    assert not np.signbit(traj.controls).any()  # +0.0 at zero gain, never -0.0


@pytest.mark.filterwarnings("ignore:stabilization conditions")
def test_penalized_runs_approach_dirichlet_feedback_at_rate_eps():
    # with the gain held fixed the penalty error is O(eps)
    mesh = make_uniform_mesh(64)
    system = assemble(mesh)
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=210)

    def run(epsilon, variant):
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.05, epsilon=epsilon)
        traj = simulate(params, mesh, sin_pi, grid, variant)
        assert traj.failed_at is None
        return traj.states

    hard = run(1.0, "dirichlet_feedback")
    diffs = [max(norms(system, a - b).l2 for a, b in zip(run(eps, "penalized_feedback"), hard))
             for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
    assert diffs[0] == pytest.approx(8.53e-4, rel=1e-3)
    for a, b in zip(diffs, diffs[1:]):
        assert a / b == pytest.approx(10.0, rel=0.01)


def test_simulate_uncontrolled_pins_boundary():
    grid = TimeGrid(k=0.01, n_steps=30)
    traj = simulate(EXAMPLE, make_uniform_mesh(16), sin_pi, grid, "uncontrolled_dirichlet")
    assert np.array_equal(traj.controls, np.zeros(31))
    assert np.array_equal(traj.states[:, -1], np.zeros(31))
    assert traj.failed_at is None
    assert np.all(np.diff(traj.l2) <= 0.0)  # zero is linearly stable here


def test_simulate_rejects_unknown_variant():
    grid = TimeGrid(k=0.01, n_steps=2)
    with pytest.raises(ParameterDomainError):
        simulate(EXAMPLE, make_uniform_mesh(8), sin_pi, grid, "robin_lagged")


def test_simulate_explicit_control_close_to_implicit():
    grid = TimeGrid(k=0.001, n_steps=50)
    mesh = make_uniform_mesh(16)
    implicit = simulate(EXAMPLE, mesh, sin_pi, grid)
    explicit = simulate(EXAMPLE, mesh, sin_pi, grid, implicit_control=False)
    gap = np.max(np.abs(implicit.states[-1] - explicit.states[-1]))
    assert 0.0 < gap < 1e-3  # differs by O(k * control), not identical


def test_simulate_truncates_on_newton_failure():
    grid = TimeGrid(k=10.0, n_steps=5)
    traj = simulate(EXAMPLE, make_uniform_mesh(8), sin_pi, grid,
                    newton_tol=1e-30, newton_max_iter=2)
    assert traj.failed_at == 1
    assert traj.states.shape == (1, 8)  # only the initial level survived
    assert len(traj.step_reports) == 2
    assert not traj.step_reports[-1].converged


def test_simulate_warns_when_inadmissible():
    params = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=np.sqrt(0.002), epsilon=0.001)
    grid = TimeGrid(k=0.01, n_steps=3)
    with pytest.warns(RuntimeWarning, match="stabilization conditions"):
        simulate(params, make_uniform_mesh(8), sin_pi, grid)

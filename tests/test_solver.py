import math
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from penalty_stab import fem, solver
from penalty_stab import (
    LinearPart,
    MeshError,
    ModelParams,
    ParameterDomainError,
    RankOneUpdate,
    SingularCoreError,
    SingularUpdateError,
    TimeGrid,
    R_MAX_DIRICHLET,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    dirichlet_rate_bounds,
    energy_monitor,
    error_vs_reference,
    jacobian,
    make_partition,
    make_uniform_mesh,
    max_decay_rate,
    newton_solve,
    norms,
    project_initial,
    residual,
    simulate,
    solve_structured,
    step_ensemble,
)
from penalty_stab.solver import StepReport, _residual_norms

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
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=1050)
    assert grid.T == pytest.approx(1.0, abs=1e-12)
    times = grid.times()
    assert times.shape == (1051,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0, abs=1e-12)


def test_time_grid_validation():
    with pytest.raises(ParameterDomainError):
        TimeGrid(k=-0.1, n_steps=5)
    with pytest.raises(ParameterDomainError):
        TimeGrid(k=float("nan"), n_steps=5)
    with pytest.raises(ParameterDomainError):
        TimeGrid(k=0.1, n_steps=0)


# ---------------------------------------------------------------------------
# residual and jacobian


def test_residual_zero_at_zero_steady_state():
    system = assemble(make_uniform_mesh(8))
    zero = np.zeros(8)
    assert np.array_equal(residual(LinearPart.of(EXAMPLE, system, 0.1), system, zero, zero), zero)


GRADED_NODES = [0.0, 0.1, 0.3, 0.45, 0.8, 1.0]


def residual_inputs(members, k):
    """Three residual inputs, with each row's parameters and variant.

    Yields ``(mesh, linear, runs)``: ``members[0]`` alone on a uniform and
    on a graded mesh, penalized, and on the graded mesh a stack of
    ``members`` with mixed boundary scales, after ``take`` of its last two
    members (``members[1]`` at ``epsilon = 0``, Dirichlet feedback, then
    penalized).  ``runs`` holds each row's ``ModelParams``.
    """
    lone = members[0]
    for mesh in (make_uniform_mesh(6), make_partition(GRADED_NODES)):
        yield mesh, LinearPart.of(lone, assemble(mesh), k), [lone]
    mesh = make_partition(GRADED_NODES)
    mixed = [members[0], replace(members[1], epsilon=0.0), members[2]]
    yield mesh, LinearPart.of(mixed, assemble(mesh), k).take(np.array([1, 2])), mixed[1:]


def test_residual_matches_dense_oracle():
    members = [EXAMPLE, ModelParams(nu=0.2, alpha=0.1, delta=1.0, r=0.3, epsilon=0.05),
               ModelParams(nu=0.05, alpha=0.05, delta=0.5, r=0.02, epsilon=1e-4)]
    for mesh, linear, runs in residual_inputs(members, 0.1):
        system = assemble(mesh)
        shape = linear.conductance.shape[:-1] + (mesh.n_dof,)
        y, y_prev = RNG.standard_normal(shape), RNG.standard_normal(shape)
        ours = np.atleast_2d(residual(linear, system, y, y_prev))
        for row, (p, y_row, prev_row) in enumerate(zip(runs, np.atleast_2d(y),
                                                       np.atleast_2d(y_prev))):
            ref = oracles.dense_residual(p.nu, p.alpha, p.delta, p.r, p.epsilon, mesh.nodes,
                                         y_row, prev_row, 0.1)
            if p.epsilon:
                ref[-1] *= p.epsilon / p.nu  # the boundary row is taken times eps/nu
            assert np.max(np.abs(ours[row] - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_linear_heat_residual_matches_dense_matrices():
    # delta = 0 and r = 0 reduce to (M/k + nu K + (nu/eps) e e' - alpha M) y - M y_prev / k,
    # whose boundary row the residual takes times eps/nu; at eps = 0 the row is y(1)
    members = [ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.0, epsilon=0.01),
               ModelParams(nu=0.3, alpha=0.2, delta=0.0, r=0.0, epsilon=0.1),
               ModelParams(nu=0.02, alpha=0.05, delta=0.0, r=0.0, epsilon=1e-3)]
    k = 0.05
    for mesh, linear, runs in residual_inputs(members, k):
        system = assemble(mesh)
        shape = linear.conductance.shape[:-1] + (mesh.n_dof,)
        y, y_prev = RNG.standard_normal(shape), RNG.standard_normal(shape)
        ours = np.atleast_2d(residual(linear, system, y, y_prev))
        m = oracles.dense_mass(mesh.nodes)
        kk = oracles.dense_stiffness(mesh.nodes)
        for row, (p, y_row, prev_row) in enumerate(zip(runs, np.atleast_2d(y),
                                                       np.atleast_2d(y_prev))):
            a = m / k + p.nu * kk - p.alpha * m
            expected = a @ y_row - m @ prev_row / k
            if p.epsilon:
                expected[-1] += p.nu / p.epsilon * y_row[-1]
                expected[-1] *= p.epsilon / p.nu
            else:
                expected[-1] = y_row[-1]
            assert np.allclose(ours[row], expected, rtol=1e-12, atol=1e-14)


def test_residual_rejects_mismatched_states():
    system = assemble(make_uniform_mesh(8))
    lone = LinearPart.of(EXAMPLE, system, 0.1)
    with pytest.raises(MeshError):
        residual(lone, system, np.zeros(7), np.zeros(8))
    # a stack has one row per member of its linear part, and a lone state none
    stack = LinearPart.of([EXAMPLE] * 3, system, 0.1)
    for linear, y in [(lone, np.zeros((3, 8))), (stack, np.zeros((2, 8))), (stack, np.zeros(8))]:
        with pytest.raises(MeshError):
            residual(linear, system, y, y)
        with pytest.raises(MeshError):
            jacobian(linear, system, y)
    with pytest.raises(ParameterDomainError):  # k is checked where the run is built
        LinearPart.of(EXAMPLE, system, 0.0)


def _nan_at_zero(x):
    """``x``, except NaN at ``x = 0``: a profile whose ``f(0)`` is NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(x == 0.0, math.nan, x)


def _newton_at_nan_tol():
    system = assemble(make_uniform_mesh(8))
    newton_solve(LinearPart.of(EXAMPLE, system, 0.01), system,
                 project_initial(system.mesh, sin_pi), tol=math.nan)


@pytest.mark.parametrize("build, error", [
    (lambda: make_partition([0.0, math.nan, 1.0]), MeshError),
    (lambda: TimeGrid(k=math.inf, n_steps=2), ParameterDomainError),
    (lambda: LinearPart.of(EXAMPLE, assemble(make_uniform_mesh(8)), math.nan),
     ParameterDomainError),
    (_newton_at_nan_tol, ParameterDomainError),
    (lambda: project_initial(make_uniform_mesh(8), _nan_at_zero), ParameterDomainError),
], ids=["partition_node", "time_grid_k", "linear_part_k", "newton_tol", "profile_at_0"])
def test_nan_and_inf_fail_the_domain_guards(build, error):
    # each guard is written so that a NaN fails it, not only a value on the wrong side
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("case", ["penalized", "dirichlet_feedback", "stack_take"])
def test_residual_with_precomputed_pieces_is_bit_identical(case):
    system = assemble(make_uniform_mesh(12))
    x = system.mesh.nodes[1:]
    y, y_prev = 0.7 * sin_pi(x) + 0.1 * x, 0.8 * sin_pi(x)
    k = 0.01
    if case == "stack_take":
        members = [EXAMPLE, ModelParams(nu=0.2, alpha=0.1, delta=1.0, r=0.3, epsilon=0.05),
                   ModelParams(nu=0.1, alpha=0.05, delta=0.5, r=0.01, epsilon=1e-4)]
        linear = LinearPart.of(members, system, k).take(np.array([0, 2]))
        y, y_prev = np.stack([y, -2.0 * y]), np.stack([y_prev, 1.5 * y_prev])
    else:
        params = replace(EXAMPLE, epsilon=0.0) if case == "dirichlet_feedback" else EXAMPLE
        linear = LinearPart.of(params, system, k)
    diffs, gauss = fem.element_values(y)
    pieces = {"prev_load": system.mass.matvec(y_prev) / k, "gauss": gauss, "diffs": diffs}
    expected = residual(linear, system, y, y_prev)
    assert np.array_equal(residual(linear, system, y, y_prev, **pieces), expected)
    for name, piece in pieces.items():
        assert np.array_equal(residual(linear, system, y, y_prev, **{name: piece}), expected), name
    # the previous level enters only through its load, the diffusion flux
    # through the differences
    wrong_level = system.mass.matvec(y) / k
    assert not np.array_equal(residual(linear, system, y, y_prev, prev_load=wrong_level), expected)
    assert not np.array_equal(residual(linear, system, y, y_prev, diffs=2.0 * diffs), expected)


def test_jacobian_matches_finite_differences_columnwise():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    y = RNG.standard_normal(8)
    linear = LinearPart.of(EXAMPLE, system, 0.1)
    core, rank_one = jacobian(linear, system, y)
    dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
    y_prev = np.zeros(8)
    base = residual(linear, system, y, y_prev)
    for j in range(8):
        errors = []
        for tau in (1e-4, 1e-5, 1e-6):
            e_j = np.zeros(8)
            e_j[j] = tau
            fd = (residual(linear, system, y + e_j, y_prev) - base) / tau
            errors.append(np.max(np.abs(fd - dense[:, j])))
        # first order in the perturbation until round-off
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.2)


def test_jacobian_matches_dense_oracle():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    y = RNG.standard_normal(8)
    core, rank_one = jacobian(LinearPart.of(EXAMPLE, system, 0.1), system, y)
    dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
    ref = oracles.dense_jacobian(EXAMPLE.nu, EXAMPLE.alpha, EXAMPLE.delta, EXAMPLE.r,
                                 EXAMPLE.epsilon, mesh.nodes, y, 0.1)
    ref[-1] *= EXAMPLE.epsilon / EXAMPLE.nu  # the boundary row is taken times eps/nu
    assert np.max(np.abs(dense - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jacobian_zero_gain_has_no_rank_one_part():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    system = assemble(make_uniform_mesh(8))
    core, rank_one = jacobian(LinearPart.of(params, system, 0.1), system, RNG.standard_normal(8))
    assert rank_one is None
    # symmetric but for the boundary row, which is taken times eps/nu
    assert np.array_equal(core.lower[:-1], core.upper[:-1])
    assert core.lower[-1] == core.upper[-1] * (params.epsilon / params.nu)


def test_jacobian_linear_problem_is_state_independent():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.1, epsilon=0.01)
    system = assemble(make_uniform_mesh(8))
    linear = LinearPart.of(params, system, 0.1)
    core1, _ = jacobian(linear, system, RNG.standard_normal(8))
    core2, _ = jacobian(linear, system, RNG.standard_normal(8))
    assert np.array_equal(core1.diag, core2.diag)
    assert np.array_equal(core1.lower, core2.lower)


def from_scratch_core(params, system, y, k):
    """Tridiagonal Newton core built in one pass, the order the hoisting must keep."""
    jc = cubic_jacobian(system.mesh, y)
    weight = 1.0 / k - params.alpha
    diag = weight * system.mass.diag + params.nu * system.stiffness.diag + params.delta * jc.diag
    off = weight * system.mass.lower + params.nu * system.stiffness.lower + params.delta * jc.lower
    lower, b = off.copy(), system.boundary_dof
    scale = params.epsilon / params.nu
    diag[..., b:b + 1] *= scale
    diag[..., b] += 1.0
    lower[..., b - 1:b] *= scale
    return diag, lower, off


@pytest.mark.parametrize("case", ["penalized", "dirichlet_feedback", "zero_gain", "stack_take"])
def test_jacobian_with_prebuilt_linear_part_is_bit_identical(case):
    system = assemble(make_uniform_mesh(12))
    y = 0.7 * sin_pi(system.mesh.nodes[1:])
    runs, k = [EXAMPLE], 0.01
    if case == "dirichlet_feedback":
        runs = [replace(EXAMPLE, epsilon=0.0)]
    elif case == "zero_gain":
        runs = [ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)]
    if case == "stack_take":
        members = [EXAMPLE, ModelParams(nu=0.2, alpha=0.1, delta=1.0, r=0.3, epsilon=0.05),
                   ModelParams(nu=0.1, alpha=0.05, delta=0.5, r=0.01, epsilon=1e-4)]
        runs = [members[0], members[2]]
        linear = LinearPart.of(members, system, k).take(np.array([0, 2]))
        y = np.stack([y, 2.0 * y])
    else:
        linear = LinearPart.of(runs[0], system, k)
    prebuilt = [linear.core.diag, linear.core.band[0], linear.scale]
    if linear.rank_one is not None:
        prebuilt += [linear.rank_one.u, linear.rank_one.v]
    saved = [np.copy(a) for a in prebuilt]
    # compared after both calls: the second must not write into the first's arrays
    states = (y, -1.5 * y)
    # a linear part built for each call, straight from the runs it holds
    fresh = runs[0] if case != "stack_take" else runs
    results = [(jacobian(linear, system, state, gauss=fem.gauss_values(state)),
                jacobian(LinearPart.of(fresh, system, k), system, state))
               for state in states]
    for state, ((core, rank_one), (ref_core, ref_rank_one)) in zip(states, results):
        for b, params in enumerate(runs):
            expected = from_scratch_core(params, system, np.atleast_2d(state)[b], k)
            for name, band in zip(("diag", "lower", "upper"), expected):
                assert np.array_equal(np.atleast_2d(getattr(core, name))[b], band)
                assert np.array_equal(np.atleast_2d(getattr(ref_core, name))[b], band)
        assert (rank_one is None) == (ref_rank_one is None) == (case == "zero_gain")
        if rank_one is not None:
            assert np.array_equal(rank_one.u, ref_rank_one.u)
            assert np.array_equal(rank_one.v, ref_rank_one.v)
    for array, copy in zip(prebuilt, saved):
        assert np.array_equal(array, copy)


def bits(a):
    """The bits of an array of doubles, which tell -0.0 from +0.0."""
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("deltas, shared", [((0.13, 0.13, 0.13), True),
                                            ((0.13, 0.5, 0.13), False),
                                            ((0.0, -0.0, 0.0), False)],
                         ids=["shared", "differ", "signed zeros"])
def test_stack_holds_a_coefficient_its_members_share_as_a_float(deltas, shared):
    # every member has alpha = 0.13, so weight = 1/k - alpha is shared in each case
    system = assemble(make_uniform_mesh(12))
    k, x = 0.01, system.mesh.nodes[1:]
    members = [ModelParams(nu=0.1, alpha=0.13, delta=d, r=math.sqrt(eps), epsilon=eps)
               for d, eps in zip(deltas, (1e-1, 1e-4, 0.0))]
    linear = LinearPart.of(members, system, k)
    assert isinstance(linear.weight, float) and isinstance(linear.delta, float) == shared
    # the same part with both coefficients as (B, 1) columns built by hand
    columns = replace(linear, delta=np.array([[d] for d in deltas]),
                      weight=np.full((3, 1), 1.0 / k - 0.13))
    assert bits(linear.weight).tolist() == bits(columns.weight[0, 0]).tolist()
    if not shared:
        assert bits(linear.delta).tolist() == bits(columns.delta).tolist()
    y = np.stack([0.7 * sin_pi(x), -1.2 * sin_pi(x) + x, 0.3 * x])
    rows = np.array([0, 2])
    for part, ref, states in [(linear, columns, y),
                              (linear.take(rows), columns.take(rows), y[rows])]:
        assert isinstance(part.weight, float) and isinstance(part.delta, float) == shared
        assert np.array_equal(bits(residual(part, system, states, 0.9 * states)),
                              bits(residual(ref, system, states, 0.9 * states)))
        assert np.array_equal(bits(jacobian(part, system, states)[0].band),
                              bits(jacobian(ref, system, states)[0].band))
    if not shared:
        assert bits(linear.take(rows).delta).tolist() == bits(columns.delta[rows]).tolist()


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


def test_stacked_structured_solve_rejects_a_right_hand_side_of_another_shape():
    # a 1-D right-hand side would broadcast into the stacked pair buffer;
    # core.solve raises for it, and so does the solve with an update
    rng = np.random.default_rng(34)
    core, rank_one, _ = stacked([random_structured_system(rng, 5) for _ in range(2)])
    pair = rank_one.pair.copy()
    with pytest.raises(ValueError, match=r"\(5,\).*\(2, 5\)"):
        solve_structured(core, rank_one, rng.standard_normal(5))
    assert np.array_equal(rank_one.pair, pair)  # rejected before the buffer is written
    with pytest.raises(ValueError):
        core.solve(rng.standard_normal(5))


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


@st.composite
def dominant_structured_systems(draw, stacked):
    """A diagonally dominant tridiagonal core, a rank-one term and a right-hand side.

    Each diagonal entry exceeds the magnitudes of its row's off-diagonals by
    a margin in [0.5, 4], with either sign; ``stacked`` draws a ``(B, n)``
    stack.  The rank-one term is left free, so a system may be badly
    conditioned; the test skips those.
    """
    n = draw(st.integers(2, 24))
    shape = (draw(st.integers(1, 4)), n) if stacked else (n,)
    off_shape = shape[:-1] + (n - 1,)
    unit = st.floats(-1.0, 1.0)
    lower = draw(hnp.arrays(float, off_shape, elements=unit))
    upper = draw(hnp.arrays(float, off_shape, elements=unit))
    margin = draw(hnp.arrays(float, shape, elements=st.floats(0.5, 4.0)))
    sign = draw(hnp.arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    pad = [(0, 0)] * (len(shape) - 1)
    row_sum = np.pad(np.abs(lower), pad + [(1, 0)]) + np.pad(np.abs(upper), pad + [(0, 1)])
    core = TridiagMatrix(diag=sign * (row_sum + margin), lower=lower, upper=upper)
    u, v, rhs = (draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0)))
                 for _ in range(3))
    return core, RankOneUpdate(u=u, v=v), rhs


def assert_matches_dense_solve(core, rank_one, rhs, x):
    dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
    ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def well_conditioned(core, rank_one):
    return np.linalg.cond(core.to_dense() + np.outer(rank_one.u, rank_one.v)) <= 1e4


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dominant_structured_systems(stacked=False))
def test_structured_solve_property_matches_dense_solve(system):
    core, rank_one, rhs = system
    assume(well_conditioned(core, rank_one))
    assert_matches_dense_solve(core, rank_one, rhs, solve_structured(core, rank_one, rhs))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dominant_structured_systems(stacked=True))
def test_stacked_structured_solve_property_matches_dense_solves(system):
    core, rank_one, rhs = system
    members = [(TridiagMatrix(diag=core.diag[b], lower=core.lower[b], upper=core.upper[b]),
                RankOneUpdate(u=rank_one.u[b], v=rank_one.v[b])) for b in range(rhs.shape[0])]
    assume(all(well_conditioned(*member) for member in members))
    x = solve_structured(core, rank_one, rhs)
    for b, member in enumerate(members):
        assert_matches_dense_solve(*member, rhs[b], x[b])
        assert np.array_equal(x[b], solve_structured(*member, rhs[b]))


# ---------------------------------------------------------------------------
# newton


def test_newton_zero_state_converges_in_one_iteration():
    system = assemble(make_uniform_mesh(8))
    y, report = newton_solve(LinearPart.of(EXAMPLE, system, 0.1), system, np.zeros(8))
    assert np.array_equal(y, np.zeros(8))
    assert report.newton_iterations == 1
    assert report.converged
    assert report.final_residual_norm == 0.0


def test_newton_linear_problem_single_iteration():
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.3, epsilon=0.01)
    system = assemble(make_uniform_mesh(16))
    y_prev = sin_pi(system.mesh.nodes[1:])
    y, report = newton_solve(LinearPart.of(params, system, 0.01), system, y_prev)
    assert report.newton_iterations == 1
    assert report.converged
    assert report.final_residual_norm <= 1e-12


def test_newton_reference_setup_iteration_budget():
    mesh = make_uniform_mesh(8)
    system = assemble(mesh)
    from penalty_stab import project_initial
    y = project_initial(mesh, sin_pi)
    linear = LinearPart.of(EXAMPLE, system, 1.0 / 1050.0)
    for _ in range(10):
        y, report = newton_solve(linear, system, y)
        assert report.converged
        assert report.newton_iterations <= 5
        assert report.final_residual_norm <= 1e-12


def test_newton_quadratic_convergence_ratios():
    mesh = make_uniform_mesh(16)
    system = assemble(mesh)
    params = ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05)
    y_prev = 3.0 * sin_pi(mesh.nodes[1:])
    _, report = newton_solve(LinearPart.of(params, system, 0.5), system, y_prev, tol=1e-13,
                             max_iter=30)
    assert report.converged
    hist = report.residual_norms
    assert len(hist) >= 5
    ratios = [hist[i + 1] / hist[i] ** 2 for i in range(len(hist) - 1)]
    # terminal phase: ||F_{i+1}|| <= C ||F_i||^2 with modest C (measured ~0.35)
    assert ratios[-1] <= 1.0
    assert ratios[-2] <= 1.0


def assert_stack_of_one_steps_alike(system, k, y_prev, y, report, **settings):
    """The step of ``y_prev`` as a ``(1, N)`` stack equals its 1-D step ``y, report``.

    NaN-aware: the states are compared with equal NaNs, the reports by their
    ``repr``, which spells every float so that it reads back to the same bits.
    """
    stacked, reports = newton_solve(LinearPart.of([EXAMPLE], system, k), system, y_prev[None],
                                    **settings)
    assert np.array_equal(stacked, y[None], equal_nan=True)
    assert repr(tuple(reports)) == repr((report,))


def test_newton_nonconvergence_reported_not_raised():
    system = assemble(make_uniform_mesh(8))
    y_prev = 5.0 * np.ones(8)
    y, report = newton_solve(LinearPart.of(EXAMPLE, system, 10.0), system, y_prev, tol=1e-30,
                             max_iter=2)
    assert not report.converged
    assert report.newton_iterations == 2
    assert np.all(np.isfinite(y))
    assert_stack_of_one_steps_alike(system, 10.0, y_prev, y, report, tol=1e-30, max_iter=2)


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
    linear = LinearPart.of([p for p, _ in members], system, 0.5)
    y_prev = np.stack([y for _, y in members])
    y, reports = newton_solve(linear, system, y_prev, tol=1e-13, max_iter=4)
    separate = [newton_solve(LinearPart.of(p, system, 0.5), system, y0, tol=1e-13, max_iter=4)
                for p, y0 in members]
    assert len({r.newton_iterations for r in reports}) > 1
    assert not all(r.converged for r in reports)
    for b, (y_b, report_b) in enumerate(separate):
        assert np.array_equal(y[b], y_b)
        assert reports[b] == report_b


def test_newton_rejects_a_stack_that_does_not_match_its_linear_part():
    # one run's linear part is not shared by a stack, and a stack's is not taken
    # by a stack of another size or by a lone state
    system = assemble(make_uniform_mesh(8))
    lone = LinearPart.of(EXAMPLE, system, 0.1)
    stack = LinearPart.of([EXAMPLE] * 3, system, 0.1)
    for linear, y_prev in [(lone, np.zeros((3, 8))), (lone, np.zeros((1, 8))),
                           (stack, np.zeros((2, 8))), (stack, np.zeros(8))]:
        with pytest.raises(MeshError, match="do not match a linear part"):
            newton_solve(linear, system, y_prev)


@pytest.mark.parametrize("stacked", [False, True])
def test_newton_writes_into_neither_y_prev_nor_start(stacked):
    # stacked, the linear member leaves after one update and the others iterate
    # on, one of them to max_iter: the only path that writes rows into the result
    system = assemble(make_uniform_mesh(16))
    x = system.mesh.nodes[1:]
    members = [(ModelParams(nu=0.1, alpha=0.13, delta=0.0, r=0.3, epsilon=0.01), sin_pi(x)),
               (ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05), 3.0 * sin_pi(x)),
               (ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05), 2.0 * sin_pi(x))]
    if not stacked:
        members = members[1:2]
    params = [p for p, _ in members] if stacked else members[0][0]
    y_prev = np.stack([y for _, y in members]) if stacked else members[0][1]
    linear = LinearPart.of(params, system, 0.5)
    for start in (None, 1.01 * y_prev):
        inputs = [y_prev] if start is None else [y_prev, start]
        saved = [a.copy() for a in inputs]
        y, reports = newton_solve(linear, system, y_prev, tol=1e-13, max_iter=4, start=start)
        for array, copy in zip(inputs, saved):
            assert np.array_equal(array, copy)
            assert not np.shares_memory(y, array)
        if stacked:
            assert len({r.newton_iterations for r in reports}) > 1
            assert not all(r.converged for r in reports)


@pytest.mark.parametrize("stacked", [False, True, "shared"],
                         ids=["lone", "stack of 3", "stack of 3 sharing delta and alpha"])
def test_kernel_results_share_no_memory_with_inputs_run_or_previous_result(stacked):
    # the kernels write their own buffers in place; none of them may be an
    # input, an array the run holds, or the buffer of the call before
    system = assemble(make_uniform_mesh(16))
    x = system.mesh.nodes[1:]
    members = [EXAMPLE, ModelParams(nu=0.2, alpha=0.1, delta=1.0, r=0.3, epsilon=0.0),
               ModelParams(nu=0.1, alpha=0.05, delta=0.5, r=0.01, epsilon=1e-4)]
    if stacked == "shared":  # an epsilon study's stack: delta and weight are floats
        members = [replace(EXAMPLE, r=math.sqrt(eps), epsilon=eps) for eps in (1.0, 1e-4, 0.0)]
    linear = LinearPart.of(members if stacked else EXAMPLE, system, 0.01)
    assert isinstance(linear.delta, float) == (stacked in (False, "shared"))
    y = 0.7 * sin_pi(x) + 0.1 * x
    y = np.stack([y, -2.0 * y, 0.5 * y]) if stacked else y
    y_prev = 0.9 * y
    load = linear.mass.matvec(y_prev) / linear.k
    run = [linear.core.band, linear.mass.band, linear.rank_one.pair, linear.rank_one.u,
           linear.rank_one.v, linear.conductance, system.mass.band, system.stiffness.band,
           system.moment, system.mesh.element_sizes]

    def calls():
        diffs, gauss = fem.element_values(y)
        flux = linear.conductance * diffs
        f = residual(linear, system, y, y_prev, prev_load=load, gauss=gauss, diffs=diffs)
        core = jacobian(linear, system, y, gauss=gauss)[0]
        return {
            "element_values.diffs": (diffs, [y]),
            "element_values.gauss": (gauss, [y]),
            "reaction_load": (fem.reaction_load(system.mesh, gauss, linear.weight, linear.delta,
                                                flux), [gauss, flux]),
            "cubic_jacobian": (fem.cubic_jacobian(system.mesh, y, gauss=gauss).band, [y, gauss]),
            "residual": (f, [y, y_prev, load, gauss, diffs]),
            "jacobian": (core.band, [y, gauss]),
            "solve_structured": (solve_structured(core, linear.rank_one, f), [core.band, f]),
        }

    first, second = calls(), calls()
    for name, (result, inputs) in second.items():
        for other in inputs + run + [first[name][0]]:
            assert not np.shares_memory(result, other), name
        assert np.array_equal(result, first[name][0]), name  # the same call, the same bits


def test_newton_start_sets_the_first_iterate_only():
    system = assemble(make_uniform_mesh(16))
    y_prev = 0.5 * sin_pi(system.mesh.nodes[1:])
    linear = LinearPart.of(EXAMPLE, system, 0.01)
    plain, plain_report = newton_solve(linear, system, y_prev)
    y, report = newton_solve(linear, system, y_prev, start=y_prev.copy())
    assert np.array_equal(y, plain) and report == plain_report
    start = 1.01 * y_prev
    y, report = newton_solve(linear, system, y_prev, start=start)
    assert np.array_equal(start, 1.01 * y_prev)  # not written into
    f = residual(linear, system, start, y_prev)
    assert report.residual_norms[0] == pytest.approx(np.linalg.norm(f), rel=1e-14, abs=0)
    assert report.converged
    assert np.max(np.abs(y - plain)) <= 1e-12
    with pytest.raises(MeshError):
        newton_solve(linear, system, y_prev, start=start[:-1])


def residual_floor(params, system, k, y, y_prev):
    """A round-off floor of ``residual`` at ``y``: 8 unit round-offs times the
    Euclidean norm of the sum of the magnitudes of its terms.

    Measured over 3000 random steps, a computed residual exceeded the
    remainder bound by at most 1.24 unit round-offs times that norm.
    """
    mass, stiffness = np.abs(system.mass.to_dense()), np.abs(system.stiffness.to_dense())
    y_abs = np.abs(y)
    w = mass.sum(axis=1)  # integral(phi_i)
    terms = ((abs(1.0 / k - params.alpha) * mass + params.nu * stiffness) @ y_abs
             + mass @ np.abs(y_prev) / k + abs(params.delta) * y_abs.max() ** 3 * w)
    terms[-1] = (params.epsilon / params.nu * terms[-1] + y_abs[-1]
                 + params.r * np.abs(system.moment) @ y_abs)
    return 8.0 * 2.0 ** -53 * np.linalg.norm(terms)


@pytest.mark.parametrize("dirichlet", [False, True])
def test_newton_final_residual_norm_is_the_euclidean_norm(dirichlet):
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.05,
                         epsilon=0.0 if dirichlet else 1e-9)
    system = assemble(make_uniform_mesh(32))
    y_prev = sin_pi(system.mesh.nodes[1:])
    linear = LinearPart.of(params, system, 1e-3)
    # one update from y_prev is not certified: its norm is the computed one
    y, report = newton_solve(linear, system, y_prev, max_iter=1)
    assert not report.certified and not report.converged
    f = residual(linear, system, y, y_prev)
    assert report.final_residual_norm == pytest.approx(np.linalg.norm(f), rel=1e-12, abs=0.0)
    # the second update is certified: its norm is the remainder bound, which
    # the computed residual does not exceed beyond its round-off floor
    y, report = newton_solve(linear, system, y_prev)
    assert report.converged and report.certified and report.newton_iterations == 2
    assert report.final_residual_norm <= 1e-12
    f = residual(linear, system, y, y_prev)
    assert np.linalg.norm(f) <= report.final_residual_norm + residual_floor(
        params, system, 1e-3, y, y_prev)


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 0.05, 1.0])
def test_residual_after_an_update_is_the_cubic_remainder(epsilon):
    # F(y - dy) = delta integral((3 y dy^2 - dy^3) phi_i) for J(y) dy = F(y),
    # the boundary row times eps/nu (0 at eps = 0), against the dense oracle
    nodes = np.array([0.0, 0.1, 0.25, 0.5, 0.6, 0.8, 0.9, 1.0])
    params = ModelParams(nu=0.1, alpha=0.13, delta=1.5, r=0.3, epsilon=epsilon)
    system = assemble(make_partition(nodes))
    y_prev = sin_pi(nodes[1:])
    y = 2.5 * y_prev + nodes[1:]  # far from the step's solution
    linear = LinearPart.of(params, system, 0.01)
    core, rank_one = jacobian(linear, system, y)
    dy = solve_structured(core, rank_one, residual(linear, system, y, y_prev))
    expected = params.delta * oracles.dense_cubic_remainder(nodes, y, dy)
    expected[-1] *= epsilon / params.nu
    assert np.abs(expected).max() > 1.0
    np.testing.assert_allclose(residual(linear, system, y - dy, y_prev), expected, rtol=0.0,
                               atol=1e-13 * np.abs(expected).max())


@st.composite
def newton_updates(draw):
    """One Newton update from a start far from its step's solution, at eps/nu up to 1000."""
    nu = draw(st.sampled_from([0.01, 0.1, 1.0]))
    epsilon = draw(st.one_of(st.just(0.0), st.floats(-6.0, 1.0).map(lambda e: 10.0 ** e)))
    params = ModelParams(nu=nu, alpha=0.13, delta=draw(st.floats(0.1, 2.0)),
                         r=draw(st.floats(0.0, 1.0)), epsilon=epsilon)
    n = draw(st.integers(2, 32))
    profile = draw(st.sampled_from(PROFILES))
    amplitude, start_scale = draw(st.floats(0.1, 2.0)), draw(st.floats(-3.0, 3.0))
    k = draw(st.sampled_from([1.0 / 1050.0, 1e-2, 0.1]))
    return params, n, profile, amplitude, start_scale, k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(newton_updates())
def test_remainder_bound_covers_the_residual_after_any_update(update):
    # the bound holds after every update, not only near convergence, so a
    # smaller bound (without the 3, with ||dy|| for ||dy||^2 or without the
    # boundary row's eps/nu) fails some of these draws
    params, n, profile, amplitude, start_scale, k = update
    system = assemble(make_uniform_mesh(n))
    y_prev = amplitude * profile(system.mesh.nodes[1:])
    y = start_scale * y_prev
    linear = LinearPart.of(params, system, k)
    gauss, f = solver._evaluate(linear, system, y, y_prev, linear.mass.matvec(y_prev) / k)
    y1, bound = solver._update(linear, system, y, gauss, f)
    assert isinstance(bound, float)
    norm = np.linalg.norm(residual(linear, system, y1, y_prev))
    assert norm <= bound + residual_floor(params, system, k, y1, y_prev)


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


@pytest.mark.parametrize("epsilon, r", [(0.01, 0.1), (1.0, 1.0)])
def test_start_residual_falls_as_k_squared_from_the_quadratic_predictor(epsilon, r):
    # from step 3 on the start's error is O(k^3), so its residual, about M e / k,
    # is O(k^2) and quarters as k halves; from 2 y_n - y_{n-1} it only halves
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=r, epsilon=epsilon)
    medians = []
    for n_steps in (50, 100, 200, 400):
        grid = TimeGrid(k=0.5 / n_steps, n_steps=n_steps)
        traj = simulate(params, make_uniform_mesh(16), sin_pi, grid)
        # step_reports[n] is step n's report; entry 0 is the initial level's
        medians.append(np.median([report.residual_norms[0] for report in traj.step_reports[4:]]))
    ratios = [coarse / fine for coarse, fine in zip(medians, medians[1:])]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios), ratios


def extrapolated_start(past):
    """The march's Newton start from the levels ``past`` so far: none, linear, then quadratic."""
    if len(past) == 1:
        return None
    if len(past) == 2:
        return 2.0 * past[-1] - past[-2]
    return 3.0 * (past[-1] - past[-2]) + past[-3]


def test_stacked_runs_equal_runs_stepped_one_by_one_from_extrapolation():
    system = assemble(make_uniform_mesh(32))
    y0 = project_initial(system.mesh, sin_pi)
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=12)
    members = [ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(eps), epsilon=eps)
               for eps in (1e-1, 1e-4, 1e-8)]
    stacked = list(step_ensemble(members, system, y0, grid))
    # at level 9 members leave the stacked iteration after one or after two updates
    assert {r.newton_iterations for r in stacked[9].reports.values()} == {1, 2}
    for b, params in enumerate(members):
        # Newton by hand: step 2 from 2 y_1 - y_0, later ones from 3 (y_n - y_{n-1}) + y_{n-2}
        past, linear = [y0], LinearPart.of(params, system, grid.k)
        for level in stacked[1:]:
            y, report = newton_solve(linear, system, past[-1], start=extrapolated_start(past))
            past.append(y)
            assert np.array_equal(level.states[b], y)
            assert level.reports[b] == report


def test_penalized_run_and_pinned_baseline_step_as_one_stack():
    # the decay config's two runs differ only in their epsilon (eps and 0)
    # and gain, so one stack steps both, each bit for bit
    eps = 0.01
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(eps), epsilon=eps)
    pinned = replace(params, r=0.0, epsilon=0.0)
    system = assemble(make_uniform_mesh(16))
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=1050)
    y0 = project_initial(system.mesh, sin_pi)
    y0_pinned = y0.copy()
    y0_pinned[-1] = 0.0
    separate = [list(step_ensemble([params], system, y0, grid)),
                list(step_ensemble([pinned], system, y0_pinned, grid))]
    linear = LinearPart.of([params, pinned], system, grid.k)
    past = [np.stack([y0, y0_pinned])]
    for n in range(1, grid.n_steps + 1):
        y, reports = newton_solve(linear, system, past[-1], start=extrapolated_start(past))
        past.append(y)
        for b, levels in enumerate(separate):
            assert np.array_equal(y[b], levels[n].states[0])
            assert reports[b] == levels[n].reports[0]
    assert y[1, -1] == 0.0


@st.composite
def newton_steps(draw):
    """One Newton step, lone or stacked; each member penalized or Dirichlet feedback."""
    n = draw(st.integers(4, 64))
    n_members = draw(st.sampled_from([1, 2, 3]))
    epsilons = st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))
    members = [ModelParams(nu=0.1, alpha=0.13, delta=draw(st.floats(0.0, 2.0)),
                           r=draw(st.floats(0.0, 1.0)), epsilon=draw(epsilons))
               for _ in range(n_members)]
    amplitudes = [draw(st.floats(-2.0, 2.0)) for _ in members]
    k = draw(st.sampled_from([1.0 / 1050.0, 1e-2, 0.1]))
    start_scale = draw(st.one_of(st.none(), st.floats(0.9, 1.1)))
    return n, members, amplitudes, k, start_scale


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(newton_steps())
def test_residual_at_the_returned_state_is_within_tolerance(step):
    n, members, amplitudes, k, start_scale = step
    system = assemble(make_uniform_mesh(n))
    x = system.mesh.nodes[1:]
    y_prev = np.stack([a * sin_pi(x) + 0.1 * a * x * (1.0 - x) for a in amplitudes])
    start = None if start_scale is None else start_scale * y_prev
    tol = 1e-12
    if len(members) == 1:
        linear = LinearPart.of(members[0], system, k)
        y, report = newton_solve(linear, system, y_prev[0], tol=tol,
                                 start=None if start is None else start[0])
        y, reports = y[None], (report,)
    else:
        linear = LinearPart.of(members, system, k)
        y, reports = newton_solve(linear, system, y_prev, tol=tol, start=start)
    for params, y_b, prev_b, report in zip(members, y, y_prev, reports):
        # recomputed by the public residual, with no other precomputed piece
        linear = LinearPart.of(params, system, k)
        [norm] = _residual_norms(residual(linear, system, y_b, prev_b))
        assert report.converged
        assert report.final_residual_norm <= tol
        if report.certified:  # the final norm is the remainder bound
            assert norm <= report.final_residual_norm + residual_floor(params, system, k, y_b,
                                                                       prev_b)
        else:
            assert norm == report.final_residual_norm


def assert_arrays_are_the_member_reports(stack):
    """Each ``(B,)`` array of ``stack`` holds its members' :class:`StepReport` fields.

    Compared by ``repr``, which is NaN-aware and spells every float exactly.
    """
    reports = list(stack)
    assert len(reports) == len(stack) == stack.converged.size
    assert all(type(report) is StepReport for report in reports)
    for field in fields(StepReport):
        if field.name != "residual_norms":
            assert repr(getattr(stack, field.name).tolist()) == \
                repr([getattr(report, field.name) for report in reports]), field.name
    for b, report in enumerate(reports):
        taken = stack.residual_norms[:report.newton_iterations + 1]
        assert repr(report.residual_norms) == repr(tuple(float(norms[b]) for norms in taken))
        assert repr(report.residual_norms[-1]) == repr(report.final_residual_norm)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(newton_steps(), st.sampled_from([1, 2, 25]))
def test_stack_report_arrays_are_the_reports_of_lone_steps(step, max_iter):
    # members leave the iteration after different counts, or run out of updates
    n, members, amplitudes, k, start_scale = step
    system = assemble(make_uniform_mesh(n))
    x = system.mesh.nodes[1:]
    y_prev = np.stack([a * sin_pi(x) + 0.1 * a * x * (1.0 - x) for a in amplitudes])
    start = None if start_scale is None else start_scale * y_prev
    y, stack = newton_solve(LinearPart.of(members, system, k), system, y_prev, max_iter=max_iter,
                            start=start)
    assert_arrays_are_the_member_reports(stack)
    for b, params in enumerate(members):
        lone_y, lone = newton_solve(LinearPart.of(params, system, k), system, y_prev[b],
                                    max_iter=max_iter, start=None if start is None else start[b])
        assert np.array_equal(y[b], lone_y)
        assert repr(stack[b]) == repr(lone)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(newton_steps(), st.sampled_from([1, 25]))
def test_newton_given_the_previous_mass_product_steps_alike(step, max_iter):
    # the march hands each step the mass product of its previous level
    n, members, amplitudes, k, start_scale = step
    system = assemble(make_uniform_mesh(n))
    x = system.mesh.nodes[1:]
    y_prev = np.stack([a * sin_pi(x) + 0.1 * a * x * (1.0 - x) for a in amplitudes])
    start = None if start_scale is None else start_scale * y_prev
    lone = (members[0], y_prev[0], None if start is None else start[0])
    for params, prev, first in (lone, (members, y_prev, start)):
        linear = LinearPart.of(params, system, k)
        y, report = newton_solve(linear, system, prev, max_iter=max_iter, start=first)
        shared_y, shared = newton_solve(linear, system, prev, max_iter=max_iter, start=first,
                                        prev_mass=linear.mass.matvec(prev))
        assert shared_y.tobytes() == y.tobytes()
        if isinstance(report, StepReport):
            assert repr(shared) == repr(report)
        else:
            assert repr(list(shared)) == repr(list(report))


def test_newton_nan_state_reported_not_raised():
    system = assemble(make_uniform_mesh(8))
    y_prev = np.ones(8)
    y_prev[3] = np.nan
    y, report = newton_solve(LinearPart.of(EXAMPLE, system, 0.01), system, y_prev, max_iter=3)
    assert not report.converged
    assert report.newton_iterations == 0  # a start whose residual is NaN takes no update
    assert np.array_equal(y, y_prev, equal_nan=True) and not np.shares_memory(y, y_prev)
    assert_stack_of_one_steps_alike(system, 0.01, y_prev, y, report, max_iter=3)


@pytest.mark.parametrize("bad_row", [0, 1])
def test_newton_nan_member_leaves_the_rest_of_its_stack_alone(bad_row):
    # dgtsv spreads a NaN block to the blocks on both sides of it in a
    # stacked band, so a member whose residual is NaN must not enter the solve
    system = assemble(make_uniform_mesh(16))
    params = ModelParams(nu=0.1, alpha=0.5, delta=2.0, r=0.3, epsilon=0.05)
    good = 3.0 * sin_pi(system.mesh.nodes[1:])
    bad = good.copy()
    bad[3] = np.nan
    settings = dict(tol=1e-13, max_iter=6)
    linear = LinearPart.of(params, system, 0.5)
    lone = [newton_solve(linear, system, y0, **settings) for y0 in (good, bad)]
    assert lone[0][1].converged and lone[0][1].newton_iterations == 6
    order = [1, 0] if bad_row == 0 else [0, 1]
    y, reports = newton_solve(LinearPart.of([params, params], system, 0.5), system,
                              np.stack([(good, bad)[i] for i in order]), **settings)
    for row, i in enumerate(order):
        assert np.array_equal(y[row], lone[i][0], equal_nan=True)
        assert repr(reports[row]) == repr(lone[i][1])  # repr: NaN-aware, bit-exact


def test_newton_converges_at_a_residual_norm_equal_to_tol():
    # a step whose residual norm drops to tol exactly has converged; one a
    # float above it has not.  r1, the norm after one update from sin(pi x)
    # at N=16, is 4.6e-8
    system = assemble(make_uniform_mesh(16))
    y_prev = sin_pi(system.mesh.nodes[1:])
    linear = LinearPart.of(EXAMPLE, system, 1.0 / 1050.0)
    r1 = newton_solve(linear, system, y_prev, max_iter=1)[1].final_residual_norm
    _, report = newton_solve(linear, system, y_prev, tol=r1, max_iter=3)
    assert (report.newton_iterations, report.converged) == (1, True)
    _, report = newton_solve(linear, system, y_prev, tol=np.nextafter(r1, 0.0), max_iter=1)
    assert (report.newton_iterations, report.converged) == (1, False)
    # a stack of two, at the larger of its members' r1: both stop after one
    # update, and a float below it the larger one has not converged
    stack = LinearPart.of([EXAMPLE, EXAMPLE], system, 1.0 / 1050.0)
    y_prev = np.stack([y_prev, 0.5 * y_prev])
    r1 = newton_solve(stack, system, y_prev, max_iter=1)[1].final_residual_norm
    largest = int(np.argmax(r1))
    assert r1[1 - largest] < r1[largest]
    _, reports = newton_solve(stack, system, y_prev, tol=r1[largest], max_iter=3)
    assert reports.newton_iterations.tolist() == [1, 1] and reports.converged.all()
    _, reports = newton_solve(stack, system, y_prev, tol=np.nextafter(r1[largest], 0.0),
                              max_iter=1)
    assert reports.newton_iterations.tolist() == [1, 1]
    assert reports.converged.tolist() == [largest != 0, largest != 1]


def test_newton_control_value_matches_state():
    system = assemble(make_uniform_mesh(8))
    y0 = 0.5 * sin_pi(system.mesh.nodes[1:])
    y, report = newton_solve(LinearPart.of(EXAMPLE, system, 0.01), system, y0)
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
    for arr in (traj.times, traj.controls, traj.l2, traj.linf):
        assert arr.shape == (16,)
    assert traj.states.shape == (16, 8)
    assert len(traj.step_reports) == 16


@pytest.mark.parametrize("variant", ["penalized_feedback", "dirichlet_feedback",
                                     "uncontrolled_dirichlet"])
def test_simulate_norms_equal_norms_of_recorded_states_bit_for_bit(variant):
    mesh = make_uniform_mesh(16)
    grid = TimeGrid(k=0.01, n_steps=30)
    if variant == "dirichlet_feedback":  # epsilon = 0 is the Dirichlet feedback problem
        traj = simulate(replace(EXAMPLE, epsilon=0.0), mesh, sin_pi, grid)
    else:
        traj = simulate(EXAMPLE, mesh, sin_pi, grid, variant)
    system = assemble(mesh)
    assert traj.failed_at is None
    for n, state in enumerate(traj.states):
        assert (traj.l2[n], traj.linf[n]) == norms(system, state)


@pytest.mark.parametrize("variant, settings", [
    ("penalized_feedback", {}),
    ("dirichlet_feedback", {}),
    ("uncontrolled_dirichlet", {}),
    # the first step needs 3 updates here: the run fails and is truncated
    ("penalized_feedback", {"newton_tol": 3e-14, "newton_max_iter": 2}),
], ids=["penalized", "dirichlet_feedback", "uncontrolled", "failed_step"])
def test_simulate_equals_one_run_step_ensemble_bit_for_bit(variant, settings):
    # simulate records the lone march, which steps a 1-D state; a one-run
    # stack steps a (1, N) stack and equals it too
    mesh = make_uniform_mesh(16)
    grid = TimeGrid(k=1.0 / 50.0, n_steps=40)
    params, y0 = EXAMPLE, project_initial(mesh, sin_pi)
    if variant != "penalized_feedback":
        params = replace(params, epsilon=0.0)
    if variant == "dirichlet_feedback":  # epsilon = 0 is the Dirichlet feedback problem
        traj = simulate(params, mesh, sin_pi, grid, **settings)
    else:
        traj = simulate(EXAMPLE, mesh, sin_pi, grid, variant, **settings)
    if variant == "uncontrolled_dirichlet":
        params, y0[-1] = replace(params, r=0.0), 0.0
    system = assemble(mesh)
    lone = list(step_ensemble(params, system, y0, grid, **settings))
    stack = list(step_ensemble([params], system, y0, grid, **settings))
    assert not np.shares_memory(lone[0].states, y0)
    assert len(lone) == len(stack) == len(traj.step_reports)
    for level, one, report in zip(lone, stack, traj.step_reports):
        assert_level_carries_the_mass_product(params, system, grid.k, level)
        assert_level_carries_the_mass_product([params], system, grid.k, one)
        assert level.step == report  # a lone level's step is its StepReport
        assert level.reports == one.reports == {0: report}
        assert level.index == one.index
        assert np.array_equal(level.members, one.members)
        assert np.array_equal(level.attempted, one.attempted)
        assert level.states.shape == one.states.shape[1:] or not level.members.size
    # a failed step's level holds no state, and the trajectory stops before it
    assert traj.failed_at == (None if lone[-1].members.size else lone[-1].index)
    assert traj.n_recorded == len(lone) - (traj.failed_at is not None)
    assert lone[-1].states.size == stack[-1].states.size
    for level, one, state, control in zip(lone, stack, traj.states, traj.controls):
        assert np.array_equal(level.states, state) and np.array_equal(one.states[0], state)
        assert control == level.reports[0].control_value
    assert (traj.failed_at is None) == (settings == {})


PROFILES = (sin_pi, lambda x: np.asarray(x, dtype=float), lambda x: 4.0 * x * (1.0 - x),
            lambda x: np.sin(3.0 * np.pi * np.asarray(x)) + x ** 2)


@st.composite
def admissible_members(draw):
    """Parameters of either variant inside its stabilization conditions.

    Penalized: ``r^2 < 3 eps`` and ``alpha/nu`` strictly below the ratio
    bound, so :func:`max_decay_rate` is positive.  Dirichlet feedback
    (``epsilon = 0``): ``r`` below ``R_MAX_DIRICHLET`` and ``alpha/nu``
    within :func:`dirichlet_rate_bounds`' ratio bound.
    """
    nu = draw(st.floats(1e-2, 1.0))
    epsilon = draw(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)))
    fraction = st.floats(0.01, 0.95)
    if epsilon == 0.0:
        r = R_MAX_DIRICHLET * draw(fraction)
        ratio_bound = (6.0 - r * r) / (r + 3.0)
    else:
        r = math.sqrt(3.0 * epsilon) * draw(fraction)
        ratio_bound = 2.0 * (3.0 * epsilon - r * r) / (3.0 * epsilon)
    return ModelParams(nu=nu, alpha=nu * ratio_bound * draw(fraction),
                       delta=draw(st.floats(1e-2, 10.0)), r=r, epsilon=epsilon)


@st.composite
def admissible_stacks(draw):
    """1 to 6 admissible members of either variant, a small mesh, a short grid and a start."""
    members = draw(st.lists(admissible_members(), min_size=1, max_size=6))
    grid = TimeGrid(k=draw(st.sampled_from([1 / 50, 1 / 200, 1 / 800])),
                    n_steps=draw(st.integers(1, 4)))
    amplitude = draw(st.floats(0.1, 3.0))
    profile = draw(st.sampled_from(PROFILES))
    return (members, make_uniform_mesh(draw(st.sampled_from([2, 3, 5, 16]))),
            grid, lambda x: amplitude * profile(x))


def from_level(traj, n):
    """The trajectory ``traj`` from level ``n`` on, its times counted from that level."""
    return replace(traj, times=traj.times[n:] - traj.times[n], states=traj.states[n:],
                   controls=traj.controls[n:], l2=traj.l2[n:], linf=traj.linf[n:],
                   step_reports=traj.step_reports[n:])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(admissible_stacks())
# a draw whose penalized member (eps/nu = 85) stalled at the round-off floor
# of its boundary row, 5e-12, when the computed residual decided convergence
@example(case=([ModelParams(nu=1.0, alpha=0.5325765385825233, delta=1.0, r=1.224744871391589,
                            epsilon=0.0),
                ModelParams(nu=0.01171875, alpha=0.0087890625, delta=1.0,
                            r=0.8660254037844386, epsilon=1.0)],
               make_uniform_mesh(2), TimeGrid(k=1 / 800, n_steps=1),
               lambda x: 2.0 * sin_pi(x)))
def test_whole_stacks_equal_lone_runs_and_decay_property(case):
    # a stack may mix variants; every member of a stepped stack equals its
    # lone run (array_equal, so an exact zero's sign is not compared; see
    # fem.TridiagMatrix.solve); each also keeps its certified energy bound:
    # penalized from level 0, Dirichlet feedback from level 1, as its first
    # step imposes y(1) = -r (w . y) on initial data that need not satisfy it;
    # and at each step the remainder bound accepted, the residual computed at
    # the accepted state is at most that bound, up to its round-off floor
    members, mesh, grid, y0 = case
    system = assemble(mesh)
    levels = list(step_ensemble(members, system, project_initial(mesh, y0), grid))
    for i, params in enumerate(members):
        dirichlet = params.epsilon == 0.0
        traj = simulate(params, mesh, y0, grid)  # epsilon = 0 is the Dirichlet feedback problem
        assert traj.failed_at is None
        assert [level.reports[i] for level in levels] == traj.step_reports
        linear = LinearPart.of(params, system, grid.k)
        for n, report in enumerate(traj.step_reports[1:], start=1):
            if report.certified:
                y, y_prev = traj.states[n], traj.states[n - 1]
                assert np.linalg.norm(residual(linear, system, y, y_prev)) <= \
                    report.final_residual_norm + residual_floor(params, system, grid.k, y, y_prev)
        for level, state, control in zip(levels, traj.states, traj.controls, strict=True):
            assert np.array_equal(level.states[i], state)
            assert control == level.reports[i].control_value
        if dirichlet:
            gamma = dirichlet_rate_bounds(params).gamma_max
            assert energy_monitor(from_level(traj, 1), gamma).passed
        else:
            assert energy_monitor(traj, max_decay_rate(params)).passed


def assert_level_carries_the_mass_product(params, system, k, level):
    """``level.mass_states`` is the mass product of its states, bit for bit,
    through the linear part of its members; ``None`` when none is left."""
    if not level.members.size:
        assert level.mass_states is None
        return
    linear = LinearPart.of(params, system, k)
    if not isinstance(params, ModelParams):
        linear = linear.take(level.members)
    expected = linear.mass.matvec(level.states)
    assert level.mass_states.shape == expected.shape
    assert level.mass_states.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(admissible_stacks())
def test_each_level_carries_the_mass_product_of_its_states(case):
    members, mesh, grid, y0 = case
    system = assemble(mesh)
    y_start = project_initial(mesh, y0)
    for params in (members[0], members):  # a lone run and a stack
        for level in step_ensemble(params, system, y_start, grid):
            assert_level_carries_the_mass_product(params, system, grid.k, level)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(admissible_stacks(), st.data())
def test_a_member_marked_unconverged_is_dropped_and_reported_alike(case, data):
    # a test double marks one member's step unconverged in the stack's report;
    # the march drops that member, and the level's reports say it failed
    members, mesh, grid, y0 = case
    failing = data.draw(st.integers(0, len(members) - 1))
    fail_at = data.draw(st.integers(1, grid.n_steps))
    real, steps = solver.newton_solve, []

    def marking(linear, *args, **kwargs):
        y, stack = real(linear, *args, **kwargs)
        steps.append(stack)
        if len(steps) == fail_at:  # no member has left before: row j is member j
            stack.converged[failing] = False
        return y, stack

    system = assemble(mesh)
    y_start = project_initial(mesh, y0)
    unmarked = list(step_ensemble(members, system, y_start, grid))
    with mock.patch.object(solver, "newton_solve", marking):
        levels = list(step_ensemble(members, system, y_start, grid))
    others = [i for i in range(len(members)) if i != failing]
    assert len(steps) == len(levels) - 1 == (grid.n_steps if others else fail_at)
    for level, reference in zip(levels, unmarked):
        assert_arrays_are_the_member_reports(level.step)
        assert_level_carries_the_mass_product(members, system, grid.k, level)
        assert level.reports == dict(zip(level.attempted.tolist(), level.step))
        gone = level.index >= fail_at
        assert level.members.tolist() == (others if gone else list(range(len(members))))
        assert (failing in level.reports) == (level.index <= fail_at)
        if level.index == fail_at:
            assert level.step is steps[fail_at - 1] and not level.step.converged[failing]
        for i, report in level.reports.items():
            marked = i == failing and level.index == fail_at
            assert report == replace(reference.reports[i], converged=not marked)
        for row, i in enumerate(level.members.tolist()):
            assert np.array_equal(level.states[row], reference.states[i])


def test_backward_euler_is_first_order_in_time():
    # The final-state L2 error at N=16 after n = 50, 100, 200 and 400 steps
    # over T = 1, against a run of 6400 steps, with the convergence study's
    # eps = 0.01 h^2 and r = sqrt(eps).  An error C k measured against that
    # reference is C (k - 1/6400), so halving k from 1/n divides it by
    # (6400/n - 1) / (3200/n - 1): 2.016, 2.032 and 2.067.  Measured: errors
    # 2.45e-3, 1.22e-3, 6.03e-4 and 2.92e-4, ratios 2.007, 2.028 and 2.064,
    # the same to three digits at (eps, r) = (0, sqrt(0.01 h^2)), (0.01, 0.1)
    # and (0.01 h^2, 0.1).  The band is twice the largest gap, 0.009.
    mesh = make_uniform_mesh(16)
    eps = 0.01 / 16 ** 2
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(eps), epsilon=eps)

    def final_state(n):
        return simulate(params, mesh, sin_pi, TimeGrid(k=1.0 / n, n_steps=n)).states[-1]

    reference = final_state(6400)
    errors = [error_vs_reference(final_state(n), reference, assemble(mesh), mesh)[0]
              for n in (50, 100, 200, 400)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    first_order = [(6400 / n - 1) / (3200 / n - 1) for n in (50, 100, 200)]
    assert np.allclose(ratios, first_order, rtol=0.0, atol=0.02), ratios


def test_simulate_decay_is_monotone():
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=210)
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
    linear = LinearPart.of(replace(EXAMPLE, epsilon=0.0), system, 0.1)
    for trial in range(5):
        rng = np.random.default_rng(177 + trial)
        y = rng.standard_normal(8)
        y_prev = rng.standard_normal(8)
        ours = residual(linear, system, y, y_prev)
        ref = oracles.dense_residual(*coefficients, 0.0, mesh.nodes, y, y_prev, 0.1)
        assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
        core, rank_one = jacobian(linear, system, y)
        dense = core.to_dense() + np.outer(rank_one.u, rank_one.v)
        ref_jac = oracles.dense_jacobian(*coefficients, 0.0, mesh.nodes, y, 0.1)
        assert np.max(np.abs(dense - ref_jac)) <= 1e-12 * np.max(np.abs(ref_jac))
    grid = TimeGrid(k=0.1, n_steps=3)
    traj = simulate(replace(EXAMPLE, epsilon=0.0), mesh, sin_pi, grid)
    ref = oracles.dense_simulate(*coefficients, 0.0, mesh.nodes, project_initial(mesh, sin_pi),
                                 grid.k, grid.n_steps)
    assert np.max(np.abs(traj.states - ref)) <= 1e-10
    # y(1) = u holds from the first step on
    assert np.max(np.abs(traj.states[1:, -1] - traj.controls[1:])) <= 1e-12


def test_dirichlet_feedback_at_zero_gain_is_the_pinned_baseline():
    # the L2 projection of x(1 - x) is not 0 at x = 1, and the pinned baseline
    # zeroes that value of its start: from the same pinned start, the
    # Dirichlet feedback problem at zero gain steps exactly as the baseline
    params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.0, epsilon=0.01)
    grid = TimeGrid(k=0.01, n_steps=30)
    mesh = make_uniform_mesh(16)

    def profile(x):
        return x * (1.0 - x)

    y0 = project_initial(mesh, profile)
    assert y0[-1] != 0.0
    y0[-1] = 0.0
    hard = list(step_ensemble(replace(params, epsilon=0.0), assemble(mesh), y0, grid))
    pinned = simulate(params, mesh, profile, grid, "uncontrolled_dirichlet")
    assert pinned.failed_at is None
    assert np.array_equal(np.array([level.states for level in hard]), pinned.states)
    assert [level.step for level in hard] == pinned.step_reports


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

    def run(epsilon):
        params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=0.05, epsilon=epsilon)
        traj = simulate(params, mesh, sin_pi, grid)
        assert traj.failed_at is None
        return traj.states

    hard = run(0.0)  # the Dirichlet feedback problem
    diffs = [max(norms(system, a - b)[0] for a, b in zip(run(eps), hard))
             for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)]
    assert diffs[0] == pytest.approx(8.53e-4, rel=1e-3)
    for a, b in zip(diffs, diffs[1:]):
        assert a / b == pytest.approx(10.0, rel=0.01)


@pytest.mark.filterwarnings("ignore:stabilization conditions")
@pytest.mark.parametrize("gain", [lambda eps: 0.05, math.sqrt], ids=["r=0.05", "r=sqrt(eps)"])
def test_penalty_limit_is_first_order_in_eps(gain):
    """``sup_t ||y_eps - y_0||_L2`` is ``C eps`` with ``C`` bounded: eps -> 0 is first order.

    Each penalized member steps in one ``step_ensemble`` stack with its
    ``eps = 0`` twin, the Dirichlet feedback problem at the same gain (nu
    0.1, alpha 0.13, delta 0.13, ``sin(pi x)``, T = 1, k = 1/1050, N = 16).
    Measured at N = 16: ``sup_t ||y_eps - y_0|| / eps`` is 0.8844-0.8888 with
    r = 0.05 and 0.8807-0.8819 with r = sqrt(eps), for eps = 1e-3 to 1e-6,
    and 0.8785-0.8852 at N = 32; the log10 ratios of successive decades are
    0.9988-1.0003.  So the bound on ``C`` is 1.0, about 12% above the
    largest measured value, and the ratios must be within 1 +- 0.05 from
    eps = 1e-4 down, where the limit is reached.
    """
    epsilons = [1e-3, 1e-4, 1e-5, 1e-6]
    members = [ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=gain(eps), epsilon=e)
               for eps in epsilons for e in (eps, 0.0)]
    mesh = make_uniform_mesh(16)
    system = assemble(mesh)
    y0 = project_initial(mesh, sin_pi)
    sup = np.zeros(len(epsilons))
    for level in step_ensemble(members, system, y0, TimeGrid(k=1.0 / 1050.0, n_steps=1050)):
        assert level.members.size == len(members)
        d = level.states[0::2] - level.states[1::2]
        sup = np.maximum(sup, np.sqrt(np.vecdot(d, system.mass.matvec(d))))
    constants = sup / np.array(epsilons)
    assert np.all((0.8 < constants) & (constants < 1.0)), constants
    decade_ratios = np.log10(sup[:-1] / sup[1:])
    assert np.all(np.abs(decade_ratios[1:] - 1.0) <= 0.05), decade_ratios


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
    # epsilon = 0 is the Dirichlet feedback problem, and no variant names it again
    with pytest.raises(ParameterDomainError, match="dirichlet_feedback"):
        simulate(EXAMPLE, make_uniform_mesh(8), sin_pi, grid, "dirichlet_feedback")


def test_simulate_truncates_on_newton_failure():
    grid = TimeGrid(k=10.0, n_steps=5)
    traj = simulate(EXAMPLE, make_uniform_mesh(8), sin_pi, grid,
                    newton_tol=1e-30, newton_max_iter=2)
    assert traj.failed_at == 1
    assert traj.states.shape == (1, 8)  # only the initial level survived
    assert len(traj.step_reports) == 2
    assert not traj.step_reports[-1].converged


def test_only_penalized_members_warn_when_inadmissible():
    # epsilon = 0 is the Dirichlet feedback problem, which the penalized
    # conditions do not cover; a mixed stack warns once, for its penalized member
    params = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=np.sqrt(0.002), epsilon=0.001)
    dirichlet = replace(params, epsilon=0.0)
    system = assemble(make_uniform_mesh(8))
    y0 = project_initial(system.mesh, sin_pi)
    grid = TimeGrid(k=0.01, n_steps=3)
    with pytest.warns(RuntimeWarning, match="stabilization conditions") as caught:
        list(step_ensemble([dirichlet, params], system, y0, grid))
    assert len(caught) == 1 and "ratio condition" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        list(step_ensemble([dirichlet], system, y0, grid))
        simulate(dirichlet, system.mesh, sin_pi, grid)


def test_simulate_warns_when_inadmissible():
    params = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=np.sqrt(0.002), epsilon=0.001)
    grid = TimeGrid(k=0.01, n_steps=3)
    with pytest.warns(RuntimeWarning, match="stabilization conditions"):
        simulate(params, make_uniform_mesh(8), sin_pi, grid)


@pytest.mark.parametrize("entry", ["simulate", "lone", "stack"])
def test_inadmissibility_warning_points_at_the_caller(entry):
    # the default filter shows a warning once per line it points at, so it
    # must point at the caller's line, not at one inside the solver
    params = ModelParams(nu=0.01, alpha=0.1, delta=0.1, r=np.sqrt(0.002), epsilon=0.001)
    mesh, grid = make_uniform_mesh(8), TimeGrid(k=0.01, n_steps=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "simulate":
            simulate(params, mesh, sin_pi, grid)
        else:
            step_ensemble(params if entry == "lone" else [params], assemble(mesh),
                          project_initial(mesh, sin_pi), grid)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert caught[0].filename == __file__


def test_simulate_forms_the_mass_product_once_per_level(monkeypatch):
    # the march forms M y_n once; the next step's load and the level's norms share it
    calls = {"matvec": 0, "norms": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    monkeypatch.setattr(TridiagMatrix, "matvec", counted("matvec", TridiagMatrix.matvec))
    monkeypatch.setattr(solver, "norms", counted("norms", solver.norms))
    n_steps = 12
    traj = simulate(EXAMPLE, make_uniform_mesh(16), sin_pi, TimeGrid(k=0.01, n_steps=n_steps))
    assert traj.failed_at is None
    assert calls == {"matvec": n_steps + 1, "norms": n_steps + 1}

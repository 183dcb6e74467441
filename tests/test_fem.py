import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from penalty_stab import fem
from penalty_stab import (
    MeshError,
    ParameterDomainError,
    SingularCoreError,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    cubic_term,
    evaluate,
    h1_seminorm,
    l4_norm,
    make_partition,
    make_uniform_mesh,
    norms,
    project_initial,
)

RNG = np.random.default_rng(20240811)


def sin_pi(x):
    return np.sin(np.pi * np.asarray(x))


# ---------------------------------------------------------------------------
# meshes


def test_uniform_mesh_two_elements():
    mesh = make_uniform_mesh(2)
    assert np.array_equal(mesh.nodes, [0.0, 0.5, 1.0])
    assert mesh.h == 0.5
    assert mesh.n_dof == 2


def test_uniform_mesh_eight_elements():
    mesh = make_uniform_mesh(8)
    assert mesh.h == pytest.approx(0.125, rel=1e-15, abs=0)
    assert mesh.n_dof == 8


def test_uniform_mesh_rejects_single_element():
    with pytest.raises(MeshError):
        make_uniform_mesh(1)


def test_partition_validation():
    with pytest.raises(MeshError):
        make_partition([0.0, 0.6, 0.5, 1.0])
    with pytest.raises(MeshError):
        make_partition([0.0, 0.5, 0.9])
    with pytest.raises(MeshError):
        make_partition([0.1, 0.5, 1.0])


def graded_mesh():
    return make_partition([0.0, 0.1, 0.3, 0.45, 0.8, 1.0])


# ---------------------------------------------------------------------------
# assembly


def test_assembled_stencils_uniform():
    n = 4
    h = 0.25
    system = assemble(make_uniform_mesh(n))
    assert np.allclose(system.mass.diag, [2 * h / 3] * (n - 1) + [h / 3], rtol=1e-15)
    assert np.allclose(system.mass.lower, [h / 6] * (n - 1), rtol=1e-15)
    assert np.allclose(system.stiffness.diag, [2 / h] * (n - 1) + [1 / h], rtol=1e-15)
    assert np.allclose(system.stiffness.lower, [-1 / h] * (n - 1), rtol=1e-15)
    # interior moments h * x_i, boundary moment h/2 - h^2/6
    assert np.allclose(system.moment[:-1], h * system.mesh.nodes[1:-1], rtol=1e-15)
    assert system.moment[-1] == pytest.approx(h / 2 - h * h / 6, rel=1e-15, abs=0)
    assert system.boundary_dof == n - 1


@pytest.mark.parametrize("n", [2, 5, 8, 64])
def test_moment_sum_identity_uniform(n):
    system = assemble(make_uniform_mesh(n))
    h = 1.0 / n
    assert float(np.sum(system.moment)) == pytest.approx(0.5 - h * h / 6.0, abs=1e-15)


def test_moment_sum_identity_graded():
    mesh = graded_mesh()
    system = assemble(mesh)
    h1 = mesh.element_sizes[0]
    assert float(np.sum(system.moment)) == pytest.approx(0.5 - h1 * h1 / 6.0, abs=1e-15)


@pytest.mark.parametrize("mesh_factory", [lambda: make_uniform_mesh(6), graded_mesh])
def test_assembly_matches_dense_oracle(mesh_factory):
    mesh = mesh_factory()
    system = assemble(mesh)
    assert np.allclose(system.mass.to_dense(), oracles.dense_mass(mesh.nodes),
                       rtol=1e-13, atol=1e-16)
    assert np.allclose(system.stiffness.to_dense(), oracles.dense_stiffness(mesh.nodes),
                       rtol=1e-13, atol=1e-12)
    assert np.allclose(system.moment, oracles.dense_moment(mesh.nodes),
                       rtol=1e-13, atol=1e-16)


def test_mass_and_stiffness_are_spd():
    system = assemble(make_uniform_mesh(16))
    assert np.array_equal(system.mass.lower, system.mass.upper)
    assert np.array_equal(system.stiffness.lower, system.stiffness.upper)
    for _ in range(20):
        y = RNG.standard_normal(16)
        assert y @ system.mass.matvec(y) > 0.0
        assert y @ system.stiffness.matvec(y) > 0.0


def test_stiffness_row_sums_reflect_pinned_node():
    mesh = graded_mesh()
    system = assemble(mesh)
    ones = np.ones(mesh.n_dof)
    row_sums = system.stiffness.matvec(ones)
    expected = np.zeros(mesh.n_dof)
    expected[0] = 1.0 / mesh.element_sizes[0]  # coupling to the eliminated node
    assert np.allclose(row_sums, expected, atol=1e-12)
    # the unpinned matrix has exactly zero row sums
    full = oracles.dense_stiffness(mesh.nodes, pinned=False)
    assert np.allclose(full @ np.ones(len(mesh.nodes)), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# initial projection


def test_project_zero_profile():
    mesh = make_uniform_mesh(8)
    assert np.array_equal(project_initial(mesh, lambda x: 0.0 * np.asarray(x)), np.zeros(8))


def test_projection_reproduces_linear_functions():
    mesh = make_uniform_mesh(8)
    coeffs = project_initial(mesh, lambda x: np.asarray(x))
    assert np.allclose(coeffs, mesh.nodes[1:], rtol=1e-13, atol=1e-14)


def test_projection_of_sine_matches_dense_quadrature_oracle():
    # 3-point Gauss load vs 50-point composite load: the gap is pure
    # quadrature truncation, O(h^5) for smooth data
    for n, bound in ((8, 5e-7), (16, 2e-8)):
        mesh = make_uniform_mesh(n)
        ours = project_initial(mesh, sin_pi)
        load = np.array([
            oracles.quad50(mesh.nodes,
                           lambda x, i=i: np.sin(np.pi * x) * oracles.hat(mesh.nodes, i + 1)(x))
            for i in range(n)
        ])
        reference = np.linalg.solve(oracles.dense_mass(mesh.nodes), load)
        assert np.max(np.abs(ours - reference)) < bound


def test_projection_differs_from_interpolant_at_second_order():
    gaps = []
    for n in (8, 16):
        mesh = make_uniform_mesh(n)
        gap = project_initial(mesh, sin_pi) - sin_pi(mesh.nodes[1:])  # minus the interpolant
        gaps.append(float(np.max(np.abs(gap))))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.5)


def test_projection_rejects_nonzero_origin():
    mesh = make_uniform_mesh(4)
    with pytest.raises(ParameterDomainError):
        project_initial(mesh, lambda x: np.asarray(x) + 1.0)


def test_evaluate_is_zero_at_origin():
    mesh = make_uniform_mesh(4)
    y = RNG.standard_normal(4)
    assert evaluate(mesh, y, 0.0) == 0.0
    assert evaluate(mesh, y, 1.0) == pytest.approx(y[-1], rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# cubic term and its jacobian


def test_gauss_values_are_point_major_closed_form():
    y = RNG.standard_normal((4, 7))
    vals = fem.gauss_values(y)
    assert vals.shape == (3, 4, 7)
    left = np.concatenate([np.zeros((4, 1)), y[:, :-1]], axis=1)  # pinned node is zero
    for j, point in enumerate(fem.GAUSS3_POINTS):
        assert np.array_equal(vals[j], left + point * (y - left))
    assert np.array_equal(fem.gauss_values(y[1]), vals[:, 1])


def test_element_values_are_the_nodal_differences_and_the_gauss_values():
    y = RNG.standard_normal((4, 7))
    diffs, vals = fem.element_values(y)
    left = np.concatenate([np.zeros((4, 1)), y[:, :-1]], axis=1)  # pinned node is zero
    assert np.array_equal(diffs, y - left)
    assert np.array_equal(diffs[:, 0], y[:, 0])
    assert np.array_equal(vals, fem.gauss_values(y))
    lone_diffs, lone_vals = fem.element_values(y[2])
    assert np.array_equal(lone_diffs, diffs[2]) and np.array_equal(lone_vals, vals[:, 2])


def test_cubic_term_of_zero_state():
    mesh = make_uniform_mesh(8)
    assert np.array_equal(cubic_term(mesh, np.zeros(8)), np.zeros(8))


def test_cubic_term_constant_patch():
    # state equal to c on the two elements around one interior node:
    # that node's entry is c^3 * h (the hat integrates to h there)
    n, c = 6, 1.7
    mesh = make_uniform_mesh(n)
    y = np.zeros(n)
    y[1:4] = c  # nodes 2,3,4 -> constant on elements 2..4, hat of node 3 inside
    out = cubic_term(mesh, y)
    assert out[2] == pytest.approx(c ** 3 / n, rel=1e-13, abs=0)


def test_cubic_term_is_odd():
    mesh = make_uniform_mesh(9)
    y = RNG.standard_normal(9)
    assert np.array_equal(cubic_term(mesh, -y), -cubic_term(mesh, y))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_cubic_term_matches_quadrature_oracle(n):
    mesh = make_uniform_mesh(n)
    y = RNG.standard_normal(n)
    ours = cubic_term(mesh, y)
    ref = oracles.dense_cubic_term(mesh.nodes, y)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_cubic_term_matches_quadrature_oracle_on_graded_mesh():
    mesh = graded_mesh()
    y = RNG.standard_normal(mesh.n_dof)
    ours = cubic_term(mesh, y)
    ref = oracles.dense_cubic_term(mesh.nodes, y)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_cubic_jacobian_of_zero_state():
    mesh = make_uniform_mesh(6)
    jac = cubic_jacobian(mesh, np.zeros(6))
    assert np.array_equal(jac.to_dense(), np.zeros((6, 6)))


def test_cubic_jacobian_of_unit_state():
    # away from the first element (where the pinned node makes the state ramp
    # from 0) the state is identically 1, so the jacobian rows equal 3*mass
    n = 8
    mesh = make_uniform_mesh(n)
    system = assemble(mesh)
    jac = cubic_jacobian(mesh, np.ones(n))
    h = 1.0 / n
    assert jac.diag[0] == pytest.approx(8 * h / 5, rel=1e-13, abs=0)  # ramp element + unit element
    assert np.allclose(jac.diag[1:], 3.0 * system.mass.diag[1:], rtol=1e-13)
    assert np.allclose(jac.lower, 3.0 * system.mass.lower, rtol=1e-13)


def test_cubic_jacobian_matches_quadrature_oracle():
    mesh = graded_mesh()
    y = RNG.standard_normal(mesh.n_dof)
    ours = cubic_jacobian(mesh, y).to_dense()
    ref = oracles.dense_cubic_jacobian(mesh.nodes, y)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cubic_jacobian_is_directional_derivative():
    mesh = make_uniform_mesh(8)
    y = RNG.standard_normal(8)
    psi = RNG.standard_normal(8)
    jac_psi = cubic_jacobian(mesh, y).matvec(psi)
    errors = []
    for tau in (1e-3, 1e-4, 1e-5):
        fd = (cubic_term(mesh, y + tau * psi) - cubic_term(mesh, y)) / tau
        errors.append(np.max(np.abs(fd - jac_psi)))
    # forward differences converge at first order in tau
    assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.15)
    assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.15)


@pytest.mark.parametrize("mesh_factory", [lambda: make_uniform_mesh(16), graded_mesh],
                         ids=["uniform", "graded"])
def test_reaction_load_equals_mass_product_plus_cubic_term(mesh_factory):
    # plus the stiffness product, from the element fluxes: the linear part
    # dominates at k = 1/1050, the cubic one at k = 1 and amplitude 3, the
    # diffusion one at nu = 10; the last row is linear only, and the first
    # has no diffusion
    mesh = mesh_factory()
    system = assemble(mesh)
    y = RNG.standard_normal((4, mesh.n_dof)) * np.array([[1.0], [3.0], [0.1], [1.0]])
    weight = (1.0 / np.array([[1.0 / 1050.0], [1.0], [0.01], [1.0]])
              - np.array([[0.13], [0.5], [1.0], [0.1]]))
    delta = np.array([[0.13], [2.0], [0.0], [0.1]])
    nu = np.array([[0.0], [0.1], [0.1], [10.0]])
    diffs, gauss = fem.element_values(y)
    conductance = nu / mesh.element_sizes
    stacked = fem.reaction_load(mesh, gauss, weight, delta, conductance * diffs)
    for b in range(4):
        diffs_b, gauss_b = fem.element_values(y[b])
        lone = fem.reaction_load(mesh, gauss_b, weight[b, 0], delta[b, 0],
                                 conductance[b] * diffs_b)
        assert np.array_equal(stacked[b], lone)
        ref = (weight[b, 0] * system.mass.matvec(y[b]) + delta[b, 0] * cubic_term(mesh, y[b])
               + nu[b, 0] * system.stiffness.matvec(y[b]))
        assert np.max(np.abs(lone - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("b", [2, 3, 10])
@pytest.mark.parametrize("n", [2, 3, 7, 128, 1025])
def test_stacked_gauss_kernels_equal_lone_calls_bit_for_bit(n, b):
    # one matrix product over the B*N point-major columns must round each
    # member's columns exactly as its own call does
    mesh = make_uniform_mesh(n)
    y = RNG.standard_normal((b, n))
    weight, delta = RNG.uniform(1.0, 1e3, (b, 1)), RNG.uniform(0.0, 2.0, (b, 1))
    conductance = RNG.uniform(0.01, 1.0, (b, 1)) / mesh.element_sizes
    diffs, gauss = fem.element_values(y)
    load = fem.reaction_load(mesh, gauss, weight, delta, conductance * diffs)
    term = cubic_term(mesh, y)
    jac = cubic_jacobian(mesh, y)
    for row in range(b):
        diffs_row, gauss_row = fem.element_values(y[row])
        assert np.array_equal(diffs[row], diffs_row)
        lone = fem.reaction_load(mesh, gauss_row, weight[row, 0], delta[row, 0],
                                 conductance[row] * diffs_row)
        assert np.array_equal(load[row], lone)
        assert np.array_equal(term[row], cubic_term(mesh, y[row]))
        lone_jac = cubic_jacobian(mesh, y[row])
        for band in ("diag", "lower", "upper"):
            assert np.array_equal(getattr(jac, band)[row], getattr(lone_jac, band))


def assert_same_bits(a, b):
    """Equal entries and equal signs of zero (``array_equal`` has -0.0 == +0.0)."""
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def signed_zero_stack(n):
    """Five states whose zeros meet their neighbours' ends: random; all -0.0;
    positive with -0.0 in every other entry, after the row of -0.0; the
    pinned baseline's start (boundary value +0.0); and one starting with two
    -0.0, after that +0.0."""
    y = RNG.standard_normal((5, n))
    y[1] = -0.0
    y[2] = np.abs(y[2])
    y[2, 1::2] = -0.0
    y[3, -1] = 0.0
    y[4, :2] = -0.0
    return y


@pytest.mark.parametrize("n", [2, 3, 16])
def test_stacked_kernels_keep_signed_zeros_of_lone_calls(n):
    # the flat shifts pair each row's ends with its neighbours; the fix-ups
    # must leave every entry, signed zeros included, as the row's own call
    mesh = make_uniform_mesh(n)
    system = assemble(mesh)
    y = signed_zero_stack(n)
    b = y.shape[0]
    weight, delta = RNG.uniform(1.0, 1e3, (b, 1)), RNG.uniform(0.0, 2.0, (b, 1))
    conductance = RNG.uniform(0.01, 1.0, (b, 1)) / mesh.element_sizes
    diffs, gauss = fem.element_values(y)
    load = fem.reaction_load(mesh, gauss, weight, delta, conductance * diffs)
    term = cubic_term(mesh, y)
    jac = cubic_jacobian(mesh, y)
    masses = system.mass.repeat(b)
    for padding in (jac.band[0::2, :, -1], masses.band[0::2, :, -1]):
        assert_same_bits(padding, np.zeros((2, b)))  # +0.0, the couplings of the stack
    for matrix in (masses, system.mass):  # a stack, and one matrix broadcast
        products = matrix.matvec(y)
        for row in range(b):
            assert_same_bits(products[row], system.mass.matvec(y[row]))
    for row in range(b):
        diffs_row, gauss_row = fem.element_values(y[row])
        assert_same_bits(diffs[row], diffs_row)
        assert_same_bits(gauss[:, row], gauss_row)
        lone = fem.reaction_load(mesh, gauss_row, weight[row, 0], delta[row, 0],
                                 conductance[row] * diffs_row)
        assert_same_bits(load[row], lone)
        assert_same_bits(term[row], cubic_term(mesh, y[row]))
        lone_jac = cubic_jacobian(mesh, y[row])
        for band in ("diag", "lower", "upper"):
            assert_same_bits(getattr(jac, band)[row], getattr(lone_jac, band))


def layouts(stack):
    """The same stack as a Fortran-ordered copy and as a strided view."""
    spaced = np.empty((2 * stack.shape[0],) + stack.shape[1:])
    spaced[::2] = stack
    return {"fortran": np.asfortranarray(stack), "strided": spaced[::2]}


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_stacked_kernels_accept_non_contiguous_stacks(layout):
    n, b = 9, 4
    mesh = make_uniform_mesh(n)
    system = assemble(mesh)
    y = RNG.standard_normal((b, n))
    weight, delta = RNG.uniform(1.0, 1e3, (b, 1)), RNG.uniform(0.0, 2.0, (b, 1))
    conductance = RNG.uniform(0.01, 1.0, (b, 1)) / mesh.element_sizes
    x = layouts(y)[layout]
    assert not x.flags.c_contiguous
    diffs, gauss = fem.element_values(x)
    load = fem.reaction_load(mesh, gauss, weight, delta, conductance * diffs)
    jac = cubic_jacobian(mesh, x)
    products = system.mass.repeat(b).matvec(x)
    core = TridiagMatrix(diag=3.0 + RNG.random((b, n)), lower=RNG.uniform(-1, 1, (b, n - 1)),
                         upper=RNG.uniform(-1, 1, (b, n - 1)))
    solution = core.solve(x)
    for row in range(b):
        diffs_row, gauss_row = fem.element_values(y[row])
        assert np.array_equal(diffs[row], diffs_row)
        assert np.array_equal(gauss[:, row], gauss_row)
        lone = fem.reaction_load(mesh, gauss_row, weight[row, 0], delta[row, 0],
                                 conductance[row] * diffs_row)
        assert np.array_equal(load[row], lone)
        lone_jac = cubic_jacobian(mesh, y[row])
        for band in ("diag", "lower", "upper"):
            assert np.array_equal(getattr(jac, band)[row], getattr(lone_jac, band))
        assert np.array_equal(products[row], system.mass.matvec(y[row]))
        lone_core = TridiagMatrix(diag=core.diag[row], lower=core.lower[row],
                                  upper=core.upper[row])
        assert np.array_equal(solution[row], lone_core.solve(y[row]))


def test_stacked_matvec_rejects_a_stack_of_another_size():
    masses = assemble(make_uniform_mesh(6)).mass.repeat(3)
    with pytest.raises(ValueError, match="cannot multiply"):
        masses.matvec(np.ones((2, 6)))


# ---------------------------------------------------------------------------
# norms


def test_norms_of_zero_state():
    system = assemble(make_uniform_mesh(8))
    y = np.zeros(8)
    assert norms(system, y) == (0.0, 0.0)
    assert l4_norm(system, y) == h1_seminorm(system, y) == 0.0


def test_norms_of_identity_interpolant():
    # y(x) = x: exact L2 norm 1/sqrt(3), L4 norm (1/5)^{1/4}, slope 1
    n = 16
    system = assemble(make_uniform_mesh(n))
    y = system.mesh.nodes[1:].copy()
    l2, linf = norms(system, y)
    assert l2 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
    assert l4_norm(system, y) == pytest.approx(0.2 ** 0.25, rel=1e-14, abs=0)
    assert h1_seminorm(system, y) == pytest.approx(1.0, rel=1e-13, abs=0)
    assert linf == 1.0


def test_norms_match_quadrature_oracle():
    mesh = make_uniform_mesh(32)
    system = assemble(mesh)
    y = RNG.standard_normal(32)
    f = oracles.p1_function(mesh.nodes, y)
    assert norms(system, y)[0] == pytest.approx(
        math.sqrt(oracles.quad50(mesh.nodes, lambda x: f(x) ** 2)), rel=1e-13, abs=0)
    assert l4_norm(system, y) == pytest.approx(
        oracles.quad50(mesh.nodes, lambda x: f(x) ** 4) ** 0.25, rel=1e-13, abs=0)


def test_norms_match_quadrature_oracle_on_graded_mesh():
    mesh = graded_mesh()
    system = assemble(mesh)
    y = RNG.standard_normal(mesh.n_dof)
    f = oracles.p1_function(mesh.nodes, y)
    assert norms(system, y)[0] == pytest.approx(
        math.sqrt(oracles.quad50(mesh.nodes, lambda x: f(x) ** 2)), rel=1e-13, abs=0)
    assert l4_norm(system, y) == pytest.approx(
        oracles.quad50(mesh.nodes, lambda x: f(x) ** 4) ** 0.25, rel=1e-13, abs=0)


def eager_norms(system, y):
    """``(l2, linf, l4, h1_semi)`` of ``y``, all computed at once as ``norms`` did."""
    quartic = fem.gauss_values(y) ** 4
    integral_4 = float(system.mesh.element_sizes @ (fem.GAUSS3_WEIGHTS @ quartic))
    return (math.sqrt(max(float(y @ system.mass.matvec(y)), 0.0)),
            float(np.abs(y).max()),
            integral_4 ** 0.25,
            math.sqrt(max(float(y @ system.stiffness.matvec(y)), 0.0)))


def all_norms(system, y):
    """``(l2, linf, l4, h1_semi)`` of ``y`` from the package's functions."""
    return (*norms(system, y), l4_norm(system, y), h1_seminorm(system, y))


@pytest.mark.parametrize("mesh", [make_uniform_mesh(2), make_uniform_mesh(128), graded_mesh()],
                         ids=["uniform2", "uniform128", "graded"])
def test_norms_read_on_access_equal_eager_expressions_bit_for_bit(mesh):
    system = assemble(mesh)
    for y in RNG.standard_normal((5, mesh.n_dof)):
        assert all_norms(system, y) == eager_norms(system, y)
        # the mass product a march level carries gives the same bits
        given = norms(system, y, mass_y=system.mass.matvec(y))
        assert repr(given) == repr(norms(system, y))
        assert all(type(value) is float for value in given)


@pytest.mark.parametrize("mesh", [make_uniform_mesh(128), graded_mesh()],
                         ids=["uniform128", "graded"])
@pytest.mark.parametrize("with_mass", [False, True], ids=["formed", "given"])
def test_norms_of_a_block_equal_each_states_own_norms_bit_for_bit(mesh, with_mass):
    system = assemble(mesh)
    block = RNG.standard_normal((3, 4, mesh.n_dof))  # (L, B, N), as the epsilon study folds
    block[1, 2] = 0.0
    # the stacked product of a march, one mass matrix per state
    mass_y = system.mass.repeat(12).matvec(block) if with_mass else None
    l2, linf = norms(system, block, mass_y=mass_y)
    assert l2.shape == linf.shape == (3, 4)
    for index in np.ndindex(3, 4):
        lone = norms(system, block[index])
        assert repr((float(l2[index]), float(linf[index]))) == repr(lone)


def test_norms_do_not_see_the_state_change_after_the_call():
    system = assemble(graded_mesh())
    levels = RNG.standard_normal((2, system.n_dof))
    expected = eager_norms(system, levels[0].copy())
    computed = all_norms(system, levels[0])  # a view, as simulate passes
    levels[0] = levels[1]
    assert computed == expected


def test_norms_reject_mismatched_state():
    system = assemble(make_uniform_mesh(8))
    with pytest.raises(MeshError):
        norms(system, np.zeros(7))
    system = assemble(make_uniform_mesh(4))
    # a scalar is not a state, nor a stack of states of another length; the message
    # names the shape
    for y, shape in ((np.float64(1.0), r"\(\)"), (np.zeros((2, 3)), r"\(2, 3\)")):
        with pytest.raises(MeshError, match=f"state of shape {shape}, system expects \\(4,\\)"):
            norms(system, np.asarray(y))


# ---------------------------------------------------------------------------
# tridiagonal solve


def test_tridiag_identity_solve():
    eye = TridiagMatrix.symmetric(np.ones(5), np.zeros(4))
    rhs = RNG.standard_normal(5)
    assert np.allclose(eye.solve(rhs), rhs, rtol=1e-15)


def test_tridiag_singular_matrix_raises():
    singular = TridiagMatrix.symmetric(np.zeros(4), np.zeros(3))
    with pytest.raises(SingularCoreError):
        singular.solve(np.ones(4))


@pytest.mark.parametrize("rhs_shape", [(9,), (9, 2)])
def test_tridiag_vector_solve_equals_stack_of_one(rhs_shape):
    rng = np.random.default_rng(41)
    diag, lower, upper = 3.0 + rng.random(9), rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
    rhs = rng.standard_normal(rhs_shape)
    inputs = (diag, lower, upper, rhs)
    saved = [a.copy() for a in inputs]
    x = TridiagMatrix(diag=diag, lower=lower, upper=upper).solve(rhs)
    stack = TridiagMatrix(diag=diag[None], lower=lower[None], upper=upper[None])
    assert x.shape == rhs_shape
    assert np.array_equal(x, stack.solve(rhs[None])[0])
    for array, copy in zip(inputs, saved):  # dgtsv works on copies
        assert np.array_equal(array, copy)


def test_tridiag_zero_pivot_after_elimination_raises():
    # the leading 2x2 block [[1, 1], [1, 1]] is singular: row 2 pivots on 0
    core = TridiagMatrix.symmetric(np.array([1.0, 1.0, 5.0, 5.0]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(SingularCoreError, match="row 2"):
        core.solve(np.ones(4))


@pytest.mark.parametrize("interchanges", [False, True], ids=["dominant", "interchanging"])
@pytest.mark.parametrize("columns", [None, 2], ids=["1 rhs", "2 rhs"])
@pytest.mark.parametrize("members", [None, 4], ids=["lone", "stack of 4"])
def test_tridiag_solve_equals_dgtsv_bit_for_bit(members, columns, interchanges):
    # one dgttrf per matrix and a dgttrs per solve give the bits of one dgtsv
    # call, block by block for a stack; diagonals in [-1, 1] make dgttrf
    # interchange rows, dominant ones (3 + [0, 1)) never do
    from scipy.linalg import lapack

    rng = np.random.default_rng(61 + 2 * bool(interchanges))
    swapped = factored = 0
    for _ in range(60):
        n = int(rng.integers(2, 24))
        shape = (n,) if members is None else (members, n)
        off = shape[:-1] + (n - 1,)
        diag = rng.uniform(-1.0, 1.0, shape) if interchanges else 3.0 + rng.random(shape)
        lower, upper = rng.uniform(-1.0, 1.0, off), rng.uniform(-1.0, 1.0, off)
        rhs = rng.standard_normal(shape + (() if columns is None else (columns,)))
        x = TridiagMatrix(diag=diag, lower=lower, upper=upper).solve(rhs)
        assert x.shape == rhs.shape
        for block in [...] if members is None else range(members):  # ...: the lone system
            ref = lapack.dgtsv(lower[block], diag[block], upper[block], rhs[block])[3]
            assert x[block].tobytes() == ref.tobytes()
            if n >= 3:  # scipy's dgttrf wrapper takes no smaller order
                pivots = lapack.dgttrf(lower[block], diag[block], upper[block])[4]
                swapped += bool(np.any(pivots != np.arange(1, n + 1)))
                factored += 1
    assert (swapped > factored // 2) if interchanges else swapped == 0


@pytest.mark.parametrize("factored", [(True, True), (True, False), (False, True)],
                         ids=["both factored", "blocks unfactored", "stack unfactored"])
def test_set_blocks_equals_a_stack_factored_from_scratch(factored):
    # moved blocks keep their factors with their pivot indices shifted; the
    # systems interchange rows, so the shift is exercised
    rng = np.random.default_rng(71)

    def stack(members):
        shape, off = (members, 9), (members, 8)
        return TridiagMatrix(diag=rng.uniform(-1, 1, shape), lower=rng.uniform(-1, 1, off),
                             upper=rng.uniform(-1, 1, off))

    kept, blocks = stack(5), stack(2)
    rhs = rng.standard_normal((5, 9))
    for matrix, wanted in zip((kept, blocks), factored):
        if wanted:
            matrix.solve(rng.standard_normal(matrix.band.shape[1:]))
    index = np.array([3, 0])
    expected = kept.band.copy()
    expected[:, index] = blocks.band
    kept.set_blocks(index, blocks)
    assert kept.band.tobytes() == expected.tobytes()
    assert (kept._factors is not None) == all(factored)  # else factored on the next solve
    assert kept.solve(rhs).tobytes() == TridiagMatrix.from_band(expected).solve(rhs).tobytes()
    with pytest.raises(ValueError, match="read-only"):  # solved, so read-only again
        kept.diag[0, 0] = 5.0
    with pytest.raises(ValueError, match="cannot replace"):
        kept.set_blocks(np.array([1]), blocks)


def test_a_solved_matrix_cannot_go_stale():
    # the first solve keeps dgttrf's factors with the matrix and makes its band
    # read-only, so no write can leave them describing another matrix
    rng = np.random.default_rng(67)
    band = np.stack([rng.uniform(-1, 1, (3, 7)), 3.0 + rng.random((3, 7)),
                     rng.uniform(-1, 1, (3, 7))])
    band[0::2, :, -1] = 0.0
    for matrix in [TridiagMatrix(diag=band[1, 0], lower=band[0, 0, :-1], upper=band[2, 0, :-1]),
                   TridiagMatrix.from_band(band)]:
        rhs = rng.standard_normal(matrix.band.shape[1:])
        x = matrix.solve(rhs)
        for name in ("band", "diag", "lower", "upper"):
            view = getattr(matrix, name)
            with pytest.raises(ValueError, match="read-only"):
                view[(0,) * view.ndim] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                view *= 2.0
        assert matrix.solve(rhs).tobytes() == x.tobytes()
    with pytest.raises(ValueError, match="read-only"):  # the buffer from_band was given
        band[1, 0, 0] = 5.0
    # a matrix that is never solved stays writable
    fresh = TridiagMatrix.symmetric(np.full(4, 3.0), np.ones(3))
    fresh.diag[0] = 4.0
    assert fresh.band[1, 0] == 4.0


# ---------------------------------------------------------------------------
# the LAPACK binding

SRC = Path(__file__).resolve().parent.parent / "src"

# Solves the systems saved by ``tridiag_cases`` in a fresh interpreter in
# which ``find_spec`` cannot see scipy, so fem takes the ordinary import, and
# saves the solutions with the scipy modules that were loaded.
SOLVE_WITH_FALLBACK = """
import importlib.util, sys
import numpy as np
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: (
    None if name == "scipy" else find_spec(name, package))
from penalty_stab import TridiagMatrix
cases = np.load(sys.argv[1])
np.savez(sys.argv[2], modules=sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
         **{name: TridiagMatrix(diag=cases[name + "_diag"], lower=cases[name + "_lower"],
                                upper=cases[name + "_upper"]).solve(cases[name + "_rhs"])
            for name in ("vector", "pair", "stack")})
"""


def tridiag_cases():
    """A vector, an ``(n, 2)`` and a stacked ``(B, n)`` right-hand side."""
    rng = np.random.default_rng(59)

    def case(shape, rhs_shape):
        n = shape[-1]
        off = shape[:-1] + (n - 1,)
        return (TridiagMatrix(diag=3.0 + rng.random(shape), lower=rng.uniform(-1, 1, off),
                              upper=rng.uniform(-1, 1, off)), rng.standard_normal(rhs_shape))

    return {"vector": case((11,), (11,)), "pair": case((11,), (11, 2)),
            "stack": case((4, 11), (4, 11))}


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_loads_only_the_flapack_extension():
    # a plain ``import scipy.linalg`` costs more than the rest of start-up; the
    # extension is loaded without it and leaves no entry in sys.modules
    loaded = run_python("-c", "import sys, penalty_stab.cli; "
                              "print(type(penalty_stab.fem.dgttrf).__name__, "
                              "type(penalty_stab.fem.dgttrs).__name__, "
                              "*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.split() == ["fortran", "fortran"]


@pytest.mark.parametrize("first", ["penalty_stab", "scipy"])
def test_scipy_linalg_and_the_package_share_one_flapack_either_way(first):
    # imported after the package, scipy loads the extension itself and sets
    # its attribute; imported before, its module is the one the package uses
    imports = ["penalty_stab.fem as fem", "scipy.linalg"]
    if first == "scipy":
        imports.reverse()
    out = run_python("-c", f"import sys, {', '.join(imports)}; "
                           "print(scipy.linalg._flapack is sys.modules['scipy.linalg._flapack'], "
                           "scipy.linalg.lapack.dgttrf is fem.dgttrf, "
                           "scipy.linalg.lapack.dgttrs is fem.dgttrs)")
    assert out.split() == ["True", "True", "True"]


def test_scipy_linalg_reuses_the_loaded_extension_bit_for_bit():
    import scipy.linalg
    from scipy.linalg import _flapack, lapack

    assert lapack.dgttrf is fem.dgttrf and lapack.dgttrs is fem.dgttrs
    assert _flapack is sys.modules["scipy.linalg._flapack"]
    for name, (core, rhs) in tridiag_cases().items():
        x = core.solve(rhs)
        if name == "stack":
            for b in range(rhs.shape[0]):
                ref = lapack.dgtsv(core.lower[b], core.diag[b], core.upper[b], rhs[b])[3]
                assert np.array_equal(x[b], ref)
        else:
            assert np.array_equal(x, lapack.dgtsv(core.lower, core.diag, core.upper, rhs)[3]), name
        if name == "vector":
            bands = np.stack([np.r_[0.0, core.upper], core.diag, np.r_[core.lower, 0.0]])
            assert np.allclose(scipy.linalg.solve_banded((1, 1), bands, rhs), x,
                               rtol=1e-14, atol=1e-14)


def test_ordinary_scipy_import_gives_the_same_bits(tmp_path):
    cases = tridiag_cases()
    np.savez(tmp_path / "cases.npz", **{f"{name}_{part}": array
                                        for name, (core, rhs) in cases.items()
                                        for part, array in [("diag", core.diag),
                                                            ("lower", core.lower),
                                                            ("upper", core.upper),
                                                            ("rhs", rhs)]})
    run_python("-c", SOLVE_WITH_FALLBACK, str(tmp_path / "cases.npz"), str(tmp_path / "x.npz"))
    solved = np.load(tmp_path / "x.npz")
    assert "scipy.linalg.lapack" in solved["modules"]
    for name, (core, rhs) in cases.items():
        assert np.array_equal(solved[name], core.solve(rhs)), name

"""Independent brute-force oracles for cross-checking the library.

Everything here is coded directly against the mathematical definitions:
hat functions evaluated pointwise through np.interp, dense matrices filled
entry by entry with 50-point composite Gauss quadrature, stiffness entries
from exact P1 slopes, and a dense backward-Euler/Newton stepper solved with
numpy's dense elimination.  Nothing reuses the library's assembly,
quadrature, or solve paths.
"""

import numpy as np

_G50_X, _G50_W = np.polynomial.legendre.leggauss(50)


def quad50(nodes, func):
    """50-point composite Gauss quadrature of ``func`` over the partition."""
    total = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * float(np.sum(_G50_W * func(mid + half * _G50_X)))
    return total


def hat(nodes, node_index):
    """Pointwise hat function of a node (0-based over all nodes)."""
    values = np.zeros(len(nodes))
    values[node_index] = 1.0
    return lambda x: np.interp(x, nodes, values)


def p1_function(nodes, dof_values):
    """P1 function with the pinned-left-node DOF convention."""
    values = np.concatenate(([0.0], np.asarray(dof_values, dtype=float)))
    return lambda x: np.interp(x, nodes, values)


def dense_mass(nodes):
    n = len(nodes) - 1
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            hi, hj = hat(nodes, i + 1), hat(nodes, j + 1)
            m[i, j] = quad50(nodes, lambda x: hi(x) * hj(x))
    return m


def dense_stiffness(nodes, pinned=True):
    """Stiffness from exact P1 slopes (hat differences across elements)."""
    start = 1 if pinned else 0
    indices = range(start, len(nodes))
    sizes = np.diff(nodes)
    slopes = {}
    for idx in indices:
        f = hat(nodes, idx)
        slopes[idx] = (f(nodes[1:]) - f(nodes[:-1])) / sizes
    k = np.zeros((len(slopes), len(slopes)))
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            k[a, b] = float(np.sum(sizes * slopes[i] * slopes[j]))
    return k


def dense_moment(nodes):
    n = len(nodes) - 1
    w = np.zeros(n)
    for i in range(n):
        f = hat(nodes, i + 1)
        w[i] = quad50(nodes, lambda x: x * f(x))
    return w


def dense_cubic_term(nodes, dof_values):
    n = len(nodes) - 1
    y = p1_function(nodes, dof_values)
    out = np.zeros(n)
    for i in range(n):
        f = hat(nodes, i + 1)
        out[i] = quad50(nodes, lambda x: y(x) ** 3 * f(x))
    return out


def dense_cubic_remainder(nodes, dof_values, update_values):
    """``integral((3 y dy^2 - dy^3) phi_i)`` of P1 ``y`` and ``dy``: ``C(y - dy)
    - C(y) + C'(y) dy``, the cubic term's part of the residual after a Newton
    update ``y - dy``, per unit ``delta``."""
    n = len(nodes) - 1
    y, dy = p1_function(nodes, dof_values), p1_function(nodes, update_values)
    out = np.zeros(n)
    for i in range(n):
        f = hat(nodes, i + 1)
        out[i] = quad50(nodes, lambda x: (3.0 * y(x) - dy(x)) * dy(x) ** 2 * f(x))
    return out


def dense_cubic_jacobian(nodes, dof_values):
    n = len(nodes) - 1
    y = p1_function(nodes, dof_values)
    jac = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            fi, fj = hat(nodes, i + 1), hat(nodes, j + 1)
            jac[i, j] = quad50(nodes, lambda x: 3.0 * y(x) ** 2 * fi(x) * fj(x))
    return jac


def dense_residual(nu, alpha, delta, r, epsilon, nodes, y, y_prev, k):
    """Penalized step residual; ``epsilon=0`` gives the eps -> 0 boundary row.

    That row is the penalized one times ``epsilon/nu`` at ``epsilon = 0``:
    ``y(1) + r (w . y)``, the feedback condition imposed exactly.
    """
    m = dense_mass(nodes)
    kk = dense_stiffness(nodes)
    w = dense_moment(nodes)
    f = m @ (y - y_prev) / k + nu * (kk @ y) - alpha * (m @ y)
    f += delta * dense_cubic_term(nodes, y)
    if epsilon == 0.0:
        f[-1] = y[-1] + r * float(w @ y)
    else:
        f[-1] += nu / epsilon * (y[-1] + r * float(w @ y))
    return f


def dense_jacobian(nu, alpha, delta, r, epsilon, nodes, y, k):
    """Jacobian of :func:`dense_residual`; ``epsilon=0`` gives the row ``e_b + r w``."""
    m = dense_mass(nodes)
    kk = dense_stiffness(nodes)
    w = dense_moment(nodes)
    jac = m / k + nu * kk - alpha * m + delta * dense_cubic_jacobian(nodes, y)
    if epsilon == 0.0:
        jac[-1, :] = r * w
        jac[-1, -1] += 1.0
    else:
        jac[-1, -1] += nu / epsilon
        jac[-1, :] += (nu * r / epsilon) * w
    return jac


def dense_simulate(nu, alpha, delta, r, epsilon, nodes, y0_dofs, k, n_steps,
                   tol=1e-12, max_iter=40):
    """Dense backward-Euler/Newton trajectory from given initial DOF values.

    ``epsilon=0`` steps the hard-constrained (Dirichlet feedback) problem.
    """
    y = np.asarray(y0_dofs, dtype=float).copy()
    states = [y.copy()]
    for _ in range(n_steps):
        y_prev = y.copy()
        for _ in range(max_iter):
            f = dense_residual(nu, alpha, delta, r, epsilon, nodes, y, y_prev, k)
            y = y - np.linalg.solve(
                dense_jacobian(nu, alpha, delta, r, epsilon, nodes, y, k), f)
            f = dense_residual(nu, alpha, delta, r, epsilon, nodes, y, y_prev, k)
            if np.linalg.norm(f) <= tol:
                break
        states.append(y.copy())
    return np.array(states)

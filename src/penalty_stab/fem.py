"""1D piecewise-linear finite elements on (0, 1) with the left node pinned.

Conventions used throughout the package:

* A partition ``0 = x_0 < x_1 < ... < x_N = 1`` carries one hat function per
  node; the space pins ``x_0`` to honor the boundary value ``y(t, 0) = 0``.
* Degrees of freedom are the nodes ``1..N``.  A state vector ``y`` has length
  ``N`` with ``y[i]`` the value at node ``i + 1``; the value at ``x = 0`` is
  implicitly zero.  The boundary trace ``y(1)`` is the last entry.
* All matrices are tridiagonal (P1 elements never couple beyond neighbors)
  and stored as three diagonals.
* Every nonlinear or load integral uses 3-point Gauss-Legendre per element,
  which integrates the degree-4 polynomials arising from cubic terms of P1
  functions exactly, so quadrature contributes no error to convergence
  studies.  Values at the Gauss points are point-major, of shape
  ``(3, ..., n_elements)``: one contiguous row of the state's shape per
  point (see :func:`gauss_values`).

Assembly and evaluation are pure functions of immutable inputs.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import MeshError, ParameterDomainError, SingularCoreError

_FLAPACK = "scipy.linalg._flapack"


def _load_dgtsv() -> Callable:
    """scipy's f2py wrapper of LAPACK ``dgtsv``, without running ``import scipy``.

    ``scipy.linalg.lapack`` takes about 0.3 s to import, most of it in
    ``scipy._lib`` star-importing numpy's testing, f2py, ma and random
    subpackages, while this package needs one routine from one compiled
    extension.  The extension is found through the spec of ``scipy``, which
    locates the package without executing it, and loaded under its real
    name, so a later ``import scipy.linalg`` reuses this very module and its
    ``lapack.dgtsv`` is the function returned here (only the attribute
    ``scipy.linalg._flapack`` stays unset; ``from scipy.linalg import
    _flapack`` finds the module).  Where the extension cannot be found or
    loaded, the ordinary import is used; either way it is the same wrapper of
    the same compiled routine.
    """
    try:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            linalg = Path(scipy.submodule_search_locations[0], "linalg")
            path = next(p for suffix in importlib.machinery.EXTENSION_SUFFIXES
                        if (p := linalg / f"_flapack{suffix}").is_file())
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader))
            loader.exec_module(module)
            sys.modules[_FLAPACK] = module
        return module.dgtsv
    except (AttributeError, StopIteration, ImportError):  # no scipy, no file, load failed
        from scipy.linalg.lapack import dgtsv

        return dgtsv


dgtsv = _load_dgtsv()

# 3-point Gauss-Legendre rule mapped to the reference element [0, 1];
# exact for polynomials of degree <= 5.
_G = math.sqrt(0.6)
GAUSS3_POINTS = np.array([0.5 * (1.0 - _G), 0.5, 0.5 * (1.0 + _G)])
GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])
# Weights times the hat functions at the Gauss points: ``_W_LEFT``/``_W_RIGHT``
# integrate against the element's left/right hat, ``_W_LL``/``_W_RR``/``_W_LR``
# against products of two hats.  ``_W_LOAD`` and ``_W_JAC`` stack them, so
# one product with point-major Gauss values gives every element integral.
_W_LEFT = GAUSS3_WEIGHTS * (1.0 - GAUSS3_POINTS)
_W_RIGHT = GAUSS3_WEIGHTS * GAUSS3_POINTS
_W_LL = GAUSS3_WEIGHTS * (1.0 - GAUSS3_POINTS) ** 2
_W_RR = GAUSS3_WEIGHTS * GAUSS3_POINTS ** 2
_W_LR = GAUSS3_WEIGHTS * GAUSS3_POINTS * (1.0 - GAUSS3_POINTS)
_W_LOAD = np.stack([_W_LEFT, _W_RIGHT])
_W_JAC = np.stack([_W_LL, _W_RR, _W_LR])


@dataclass(frozen=True, eq=False)
class TridiagMatrix:
    """Tridiagonal matrix stored as three diagonals.

    ``lower[i]`` is entry ``(i+1, i)`` and ``upper[i]`` is entry ``(i, i+1)``.
    Diagonals with a leading axis, ``diag`` of shape ``(B, n)``, hold a stack
    of B matrices; :meth:`matvec` and :meth:`solve` then act on ``(B, n)``
    stacks row by row.
    """

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        off_shape = self.diag.shape[:-1] + (self.diag.shape[-1] - 1,)
        if self.lower.shape != off_shape or self.upper.shape != off_shape:
            raise ValueError("off-diagonals must have length n - 1")

    @classmethod
    def symmetric(cls, diag: np.ndarray, off: np.ndarray) -> "TridiagMatrix":
        return cls(diag=diag, lower=off, upper=off)

    @property
    def n(self) -> int:
        return self.diag.shape[-1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[..., :-1] += self.upper * x[..., 1:]
        y[..., 1:] += self.lower * x[..., :-1]
        return y

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.lower, -1)
        a += np.diag(self.upper, 1)
        return a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct tridiagonal solve (LAPACK ``dgtsv`` on the three bands).

        ``rhs`` may be a vector or a matrix of stacked right-hand sides, with
        the stack's leading axis in front for a stack of matrices.  A stack
        is solved as one block-diagonal band whose couplings between blocks
        are exactly zero; the elimination does no work across them, so every
        block's solution equals its own solve bit for bit.  ``dgtsv``
        overwrites its arguments, so it is left to copy them: the matrix and
        ``rhs`` are not modified.

        Raises
        ------
        SingularCoreError
            On a zero pivot (exactly singular matrix) in any block.
        """
        shape = self.diag.shape
        if len(shape) == 1:
            _, _, _, x, info = dgtsv(self.lower, self.diag, self.upper, rhs)
        else:
            lower, upper = np.zeros(shape), np.zeros(shape)
            lower[..., :-1] = self.lower
            upper[..., 1:] = self.upper
            _, _, _, x, info = dgtsv(lower.reshape(-1)[:-1], self.diag.reshape(-1),
                                     upper.reshape(-1)[1:],
                                     rhs.reshape((-1,) + rhs.shape[len(shape):]))
            x = x.reshape(rhs.shape)
        if info > 0:
            raise SingularCoreError(f"singular tridiagonal system: zero pivot in row {info}")
        return x


@dataclass(frozen=True, eq=False)
class MeshPartition:
    """Partition of [0, 1] with strictly increasing nodes."""

    nodes: np.ndarray
    element_sizes: np.ndarray
    h: float

    @property
    def n_elements(self) -> int:
        return self.element_sizes.shape[0]

    @property
    def n_dof(self) -> int:
        return self.n_elements  # nodes 1..N; node 0 is pinned


def make_partition(nodes) -> MeshPartition:
    """Build a (possibly graded) partition from explicit node coordinates."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.shape[0] < 3:
        raise MeshError("a partition needs at least 3 nodes (2 elements)")
    if nodes[0] != 0.0 or nodes[-1] != 1.0:
        raise MeshError("partition must span exactly [0, 1]")
    sizes = np.diff(nodes)
    if np.any(sizes <= 0.0):
        raise MeshError("nodes must be strictly increasing")
    return MeshPartition(nodes=nodes, element_sizes=sizes, h=float(sizes.max()))


def make_uniform_mesh(n_elements: int) -> MeshPartition:
    """Uniform partition with ``n_elements >= 2`` elements of size 1/n."""
    if n_elements < 2:
        raise MeshError(f"n_elements must be >= 2, got {n_elements}")
    return make_partition(np.linspace(0.0, 1.0, n_elements + 1))


@dataclass(frozen=True, eq=False)
class AssembledSystem:
    """Mass matrix, stiffness matrix, and control moment vector on a mesh.

    ``moment[i]`` is the integral of ``x`` times the hat function of DOF
    ``i``, so the feedback functional evaluates as ``-r * (moment @ y)``.
    ``boundary_dof`` is the 0-based index of the node at ``x = 1``.
    """

    mesh: MeshPartition
    mass: TridiagMatrix
    stiffness: TridiagMatrix
    moment: np.ndarray
    boundary_dof: int

    @property
    def n_dof(self) -> int:
        return self.mesh.n_dof


def _scatter_element_loads(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Accumulate per-element (left node, right node) loads into DOF order.

    Element ``e`` spans nodes ``e`` and ``e + 1``; the left load of element 0
    belongs to the pinned node and is dropped.  Loads may carry a leading
    batch axis.
    """
    out = right.copy()
    out[..., :-1] += left[..., 1:]
    return out


def _scatter_element_matrix(d_left, d_right, off) -> TridiagMatrix:
    """Assemble per-element 2x2 symmetric contributions into a TridiagMatrix."""
    diag = _scatter_element_loads(d_left, d_right)
    return TridiagMatrix.symmetric(diag, off[..., 1:].copy())


def _mass_matrix(mesh: MeshPartition) -> TridiagMatrix:
    h = mesh.element_sizes
    return _scatter_element_matrix(h / 3.0, h / 3.0, h / 6.0)


def _stiffness_matrix(mesh: MeshPartition) -> TridiagMatrix:
    inv = 1.0 / mesh.element_sizes
    return _scatter_element_matrix(inv, inv, -inv)


def _moment_vector(mesh: MeshPartition) -> np.ndarray:
    h = mesh.element_sizes
    x_left = mesh.nodes[:-1]
    return _scatter_element_loads(h * (x_left / 2.0 + h / 6.0),
                                  h * (x_left / 2.0 + h / 3.0))


def assemble(mesh: MeshPartition) -> AssembledSystem:
    """Assemble mass, stiffness, and moment exactly (closed-form integrals).

    On a uniform mesh the entries reduce to the familiar stencils: interior
    mass row ``(h/6)(1, 4, 1)``, interior stiffness row ``(1/h)(-1, 2, -1)``,
    ``moment[i] = h * x_i`` at interior nodes, and at the boundary node
    ``mass = h/3``, ``stiffness = 1/h``, ``moment = h/2 - h^2/6``.
    """
    return AssembledSystem(
        mesh=mesh,
        mass=_mass_matrix(mesh),
        stiffness=_stiffness_matrix(mesh),
        moment=_moment_vector(mesh),
        boundary_dof=mesh.n_dof - 1,
    )


def _element_endpoint_values(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values (left, right) of each element; the pinned node is zero."""
    left = np.empty_like(y)
    left[..., 0] = 0.0
    left[..., 1:] = y[..., :-1]
    return left, y


def gauss_values(y: np.ndarray) -> np.ndarray:
    """Values of the P1 function at the 3 Gauss points of every element.

    Point-major: returns an array of shape ``(3, ..., n_elements)``, that is
    ``(3,) + y.shape``, ``(3, B, n_elements)`` for a ``(B, n_dof)`` stack;
    row ``j`` holds every element's value at Gauss point ``j``, ``left +
    GAUSS3_POINTS[j] * (right - left)``, as one contiguous array.
    """
    left, right = _element_endpoint_values(y)
    vals = np.multiply.outer(GAUSS3_POINTS, right - left)
    vals += left
    return vals


def _element_integrals(mesh: MeshPartition, weights: np.ndarray,
                       vals: np.ndarray) -> np.ndarray:
    """Per-element integrals of point-major Gauss values ``vals`` against the
    rows of ``weights``: shape ``(len(weights),) + vals.shape[1:]``."""
    out = (weights @ vals.reshape(3, -1)).reshape(weights.shape[:1] + vals.shape[1:])
    out *= mesh.element_sizes
    return out


def evaluate(mesh: MeshPartition, y: np.ndarray, x) -> np.ndarray:
    """Evaluate the P1 function with coefficients ``y`` at points ``x``."""
    values = np.concatenate(([0.0], np.asarray(y, dtype=float)))
    return np.interp(x, mesh.nodes, values)


def cubic_term(mesh: MeshPartition, y: np.ndarray) -> np.ndarray:
    """Load vector of the cubic nonlinearity: entries ``integral(y^3 * phi_i)``.

    The integrand is polynomial of degree 4 per element, so the 3-point Gauss
    rule is exact.  A ``(B, n_dof)`` stack of states gives one load per row.
    """
    left, right = _element_integrals(mesh, _W_LOAD, gauss_values(y) ** 3)
    return _scatter_element_loads(left, right)


def reaction_load(mesh: MeshPartition, gauss: np.ndarray, linear, cubic) -> np.ndarray:
    """Load vector of the reaction ``linear * y + cubic * y^3``.

    Entries are ``integral((linear*y + cubic*y^3) * phi_i)``, by the 3-point
    Gauss rule (exact, as for :func:`cubic_term`) from the state's values
    ``gauss`` at the Gauss points (:func:`gauss_values`, point-major, shape
    ``(3, ..., n_elements)``).  It equals ``linear * M y + cubic *
    cubic_term(y)`` up to round-off, in one pass over the elements.  For a
    stack the coefficients are ``(B, 1)`` columns.
    """
    vals = gauss * gauss
    vals *= cubic
    vals += linear
    vals *= gauss
    left, right = _element_integrals(mesh, _W_LOAD, vals)
    return _scatter_element_loads(left, right)


def cubic_jacobian(mesh: MeshPartition, y: np.ndarray, *,
                   gauss: np.ndarray | None = None) -> TridiagMatrix:
    """Derivative of :func:`cubic_term`: entries ``integral(3*y^2*phi_j*phi_i)``.

    Symmetric positive semidefinite; exact by the same degree argument.  A
    ``(B, n_dof)`` stack of states gives a stack of matrices.  ``gauss`` is
    ``gauss_values(y)``, point-major of shape ``(3, ..., n_elements)``, when
    the caller has it already.
    """
    if gauss is None:
        gauss = gauss_values(y)
    sq = gauss * gauss
    sq *= 3.0
    return _scatter_element_matrix(*_element_integrals(mesh, _W_JAC, sq))


def project_initial(mesh: MeshPartition, f: Callable[[np.ndarray], np.ndarray],
                    mode: str = "l2") -> np.ndarray:
    """Discretize an initial profile ``f`` with ``f(0) = 0``.

    ``mode="l2"`` (default) solves ``M c = (f, phi_i)`` with the load computed
    by the 3-point Gauss rule per element; ``mode="interpolation"`` samples
    ``f`` at the nodes.  Both reproduce members of the P1 space exactly.
    """
    f0 = float(f(np.asarray(0.0)))
    if abs(f0) > 1e-9:
        raise ParameterDomainError(f"initial profile must vanish at x = 0, got f(0) = {f0!r}")
    if mode == "interpolation":
        return np.asarray(f(mesh.nodes[1:]), dtype=float)
    if mode != "l2":
        raise ParameterDomainError(f"unknown projection mode {mode!r}")
    x_left = mesh.nodes[:-1]
    h = mesh.element_sizes
    # f at the Gauss points of every element, shape (n_elements, 3)
    fx = np.asarray(f(x_left[:, None] + np.outer(h, GAUSS3_POINTS)), dtype=float)
    load = _scatter_element_loads(h * (fx @ _W_LEFT), h * (fx @ _W_RIGHT))
    return _mass_matrix(mesh).solve(load)


@dataclass(frozen=True)
class NormSet:
    """L2, max-nodal, L4, and H1-seminorm of a discrete state."""

    l2: float
    linf: float
    l4: float
    h1_semi: float


def norms(system: AssembledSystem, y: np.ndarray) -> NormSet:
    """Evaluate all norms of a state on the system's mesh.

    ``l2 = sqrt(y' M y)`` and ``h1_semi = sqrt(y' K y)`` are exact; ``l4``
    uses the (exact) 3-point Gauss rule; ``linf`` is the max nodal magnitude,
    which for P1 functions coincides with the true sup-norm.
    """
    if y.shape != (system.n_dof,):
        raise MeshError(f"state has {y.shape[0]} DOFs, system expects {system.n_dof}")
    quartic = gauss_values(y) ** 4
    integral_4 = float(system.mesh.element_sizes @ (GAUSS3_WEIGHTS @ quartic))
    return NormSet(
        l2=math.sqrt(max(float(y @ system.mass.matvec(y)), 0.0)),
        linf=float(np.abs(y).max()),
        l4=integral_4 ** 0.25,
        h1_semi=math.sqrt(max(float(y @ system.stiffness.matvec(y)), 0.0)),
    )

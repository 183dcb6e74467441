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
from dataclasses import dataclass, field
from functools import cached_property
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
    name.  The loader registers it in ``sys.modules``, and the entry is
    taken out again: a later ``import scipy.linalg`` then imports the
    extension itself and sets the attribute ``scipy.linalg._flapack``, and
    as the extension is initialized once per process and a second import
    copies the first one's namespace, its ``lapack.dgtsv`` is the function
    returned here.  A module that scipy has already imported is reused.
    Where the extension cannot be found or loaded, the ordinary import is
    used; either way it is the same wrapper of the same compiled routine.
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
            sys.modules.pop(_FLAPACK, None)
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


class TridiagMatrix:
    """Tridiagonal matrix, or a stack of them, stored as one band buffer.

    ``band`` has shape ``(3,) + shape``, ``shape`` being ``(n,)`` for one
    matrix and ``(B, n)`` for a stack of B, and each of its three rows is
    one C-contiguous run of memory.  Row 1 is the diagonal.
    Rows 0 and 2 hold the lower and upper diagonals, each padded at the end
    of every block: ``lower[..., i]`` (``band[0, ..., i]``) is entry ``(i+1,
    i)`` and ``upper[..., i]`` (``band[2, ..., i]``) entry ``(i, i+1)`` for
    ``i < n - 1``, and column ``n - 1`` of both holds +0.0.  That is
    ``dgtsv``'s layout: a stack read as one flat matrix of order ``B n``
    has the padding as its couplings between blocks, exactly zero, so
    :meth:`solve` passes the flat rows as they are.

    ``TridiagMatrix(diag, lower, upper)`` packs three diagonals, ``lower``
    and ``upper`` of length ``n - 1``, into a new band once;
    :meth:`from_band` wraps a band built in place.  ``diag``, ``lower`` and
    ``upper`` are views of the band, so writing into them writes the matrix.
    """

    __slots__ = ("band", "diag", "lower", "upper")

    def __init__(self, diag: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> None:
        diag = np.asarray(diag)
        off_shape = diag.shape[:-1] + (diag.shape[-1] - 1,)
        if np.shape(lower) != off_shape or np.shape(upper) != off_shape:
            raise ValueError("off-diagonals must have length n - 1")
        band = np.empty((3,) + diag.shape)
        band[0, ..., :-1] = lower
        band[1] = diag
        band[2, ..., :-1] = upper
        band[0::2, ..., -1] = 0.0
        self._wrap(band)

    @classmethod
    def from_band(cls, band: np.ndarray) -> "TridiagMatrix":
        """The matrix held in ``band``, a ``(3,) + shape`` buffer laid out as
        the class describes, each row C-contiguous; it is used, not copied."""
        matrix = cls.__new__(cls)
        matrix._wrap(band)
        return matrix

    def _wrap(self, band: np.ndarray) -> None:
        self.band = band
        self.diag = band[1]
        self.lower = band[0, ..., :-1]
        self.upper = band[2, ..., :-1]

    @classmethod
    def symmetric(cls, diag: np.ndarray, off: np.ndarray) -> "TridiagMatrix":
        return cls(diag=diag, lower=off, upper=off)

    @property
    def n(self) -> int:
        return self.band.shape[-1]

    def repeat(self, count: int) -> "TridiagMatrix":
        """A stack of ``count`` copies of this one matrix."""
        return TridiagMatrix.from_band(np.repeat(self.band[:, None], count, axis=1))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product with ``x``, a new array of ``x``'s shape.

        One matrix multiplies every vector along the last axis of ``x``.  A
        stack of B matrices multiplies B vectors, matrix ``i`` the ``i``-th
        vector of ``x`` in C order, whatever its leading shape: the products
        run along the flat rows of the band and of ``x``, and the entries at
        the ends of each block, which the flat shift pairs with the
        neighbouring block through the zero padding, are put back to what
        they were before that shift, so every entry, a signed zero or an
        inf among them, is that of the matrix's own product.
        """
        band = self.band
        if band.ndim == 2:
            y = self.diag * x
            y[..., :-1] += self.upper * x[..., 1:]
            y[..., 1:] += self.lower * x[..., :-1]
            return y
        n = band.shape[-1]
        if x.shape[-1] != n or 3 * x.size != band.size:
            raise ValueError(f"a stack of shape {band.shape[1:]} cannot multiply shape {x.shape}")
        lower, diag, upper = band.reshape(3, -1)
        y = np.empty(x.shape)
        flat, x = y.ravel(), x.ravel()
        np.multiply(diag, x, out=flat)
        block_end = flat[n - 1::n].copy()
        flat[:-1] += upper[:-1] * x[1:]
        flat[n - 1::n] = block_end
        block_start = flat[::n].copy()
        flat[1:] += lower[:-1] * x[:-1]
        flat[::n] = block_start
        return y

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        a += np.diag(self.lower, -1)
        a += np.diag(self.upper, 1)
        return a

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Direct tridiagonal solve (LAPACK ``dgtsv`` on the three bands).

        ``rhs`` may be a vector or a matrix of stacked right-hand sides, with
        the stack's leading axis in front for a stack of matrices.  One
        matrix passes its three diagonals.  A stack passes the flat rows of
        its band as they are, so it is solved as one block-diagonal band
        whose couplings between blocks are the padding, exactly zero, so
        every block's solution equals its own solve in value, as long as
        every band and right-hand side is finite.  An exact zero may carry
        the other sign: the elimination and the back substitution still run
        across the couplings, and a zero product added to a ``-0.0`` can
        make it ``+0.0``, in either neighbouring block.  For example,
        ``b(i+1) - (dl(i)/d(i)) b(i)`` does so for a ``-0.0`` in a block's
        first row when ``d(i)`` and ``b(i)``, the last row of the block
        above, have opposite signs.  A NaN or inf in one block
        reaches the others: ``dgtsv``'s pivot test ``|d(i)| >= |dl(i)|`` is
        false for NaN, so it interchanges rows, and back substitution
        multiplies the zero couplings by NaN, which hits the blocks before
        the bad one as well as those after it.  :func:`solver.newton_solve`
        keeps members whose residual is not finite out of the solve; a block
        whose own solution overflows can still reach the blocks above it.
        ``dgtsv`` overwrites its arguments, so it is left to copy them: the
        matrix and ``rhs`` are not modified.

        Raises
        ------
        SingularCoreError
            On a zero pivot (exactly singular matrix) in any block.
        """
        band = self.band
        if band.ndim == 2:
            _, _, _, x, info = dgtsv(self.lower, self.diag, self.upper, rhs)
        else:
            lower, diag, upper = band.reshape(3, -1)
            _, _, _, x, info = dgtsv(lower[:-1], diag, upper[:-1],
                                     rhs.reshape(diag.shape + rhs.shape[band.ndim - 1:]))
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
    """Accumulate per-element (left node, right node) loads into DOF order, in place.

    Element ``e`` spans nodes ``e`` and ``e + 1``: each element's left load is
    added into the right load of the element before it, which shares that
    node, and the left load of element 0 belongs to the pinned node and is
    dropped.  Loads may carry a leading batch axis.  Returns ``right``.
    """
    right[..., :-1] += left[..., 1:]
    return right


def _scatter_element_matrix(entries: np.ndarray) -> TridiagMatrix:
    """The matrix of per-element 2x2 symmetric contributions, built in place.

    ``entries`` is a C-contiguous ``(3, ..., n)`` array of every element's
    left-left, right-right and left-right entries, and becomes the band:
    the diagonal scatters like :func:`_scatter_element_loads`, and the next
    element's left-right entry is both off-diagonals, padded with +0.0.
    """
    lower, diag, upper = entries[0], entries[1], entries[2]  # named for what they become
    _scatter_element_loads(lower, diag)
    lower[..., :-1] = upper[..., 1:]
    lower[..., -1] = 0.0
    upper[...] = lower
    return TridiagMatrix.from_band(entries)


def _mass_matrix(mesh: MeshPartition) -> TridiagMatrix:
    h = mesh.element_sizes
    return _scatter_element_matrix(np.array([h / 3.0, h / 3.0, h / 6.0]))


def _stiffness_matrix(mesh: MeshPartition) -> TridiagMatrix:
    inv = 1.0 / mesh.element_sizes
    return _scatter_element_matrix(np.array([inv, inv, -inv]))


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


def element_values(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodal differences and Gauss-point values of every element of a P1 function.

    Returns ``(diffs, gauss)``.  ``diffs`` has the shape of ``y``: entry
    ``e`` is ``right - left``, the difference of element ``e``'s nodal
    values (the pinned node is zero, so ``diffs[..., 0] = y[..., 0]``).
    ``gauss`` is :func:`gauss_values`, computed from those differences.
    """
    left = np.empty(y.shape)
    left[..., 1:] = y[..., :-1]
    left[..., 0] = 0.0  # the pinned node
    diffs = y - left
    gauss = np.multiply.outer(GAUSS3_POINTS, diffs)
    gauss += left
    return diffs, gauss


def gauss_values(y: np.ndarray) -> np.ndarray:
    """Values of the P1 function at the 3 Gauss points of every element.

    Point-major: returns an array of shape ``(3, ..., n_elements)``, that is
    ``(3,) + y.shape``, ``(3, B, n_elements)`` for a ``(B, n_dof)`` stack;
    row ``j`` holds every element's value at Gauss point ``j``, ``left +
    GAUSS3_POINTS[j] * (right - left)``, as one contiguous array.
    """
    return element_values(y)[1]


def _element_integrals(mesh: MeshPartition, weights: np.ndarray,
                       vals: np.ndarray) -> np.ndarray:
    """Per-element integrals of point-major Gauss values ``vals`` against the
    rows of ``weights``: shape ``(len(weights),) + vals.shape[1:]``, C-contiguous.
    A stack's values are multiplied as one ``(3, B n)`` matrix."""
    if vals.ndim == 2:
        out = weights @ vals
    else:
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


def reaction_load(mesh: MeshPartition, gauss: np.ndarray, linear, cubic,
                  flux: np.ndarray) -> np.ndarray:
    """Load vector of the diffusion flux and the reaction ``linear * y + cubic * y^3``.

    Entries are ``integral((linear*y + cubic*y^3) * phi_i)`` plus the
    diffusion term ``integral(nu y_x phi_i_x)``, in one pass over the
    elements.  The reaction is integrated by the 3-point Gauss rule (exact,
    as for :func:`cubic_term`) from the state's values ``gauss`` at the Gauss
    points (:func:`gauss_values`, point-major, shape ``(3, ..., n_elements)``).
    The diffusion term of P1 functions is a sum of element fluxes: ``flux``
    holds ``s_e = (nu / h_e) (right - left)``, the conductance times
    :func:`element_values`' differences, which element ``e`` takes from its
    left node's load and adds to its right node's before the scatter, in
    place in the right loads.  The result equals ``linear * M y + cubic *
    cubic_term(y) + nu K y`` up to round-off.  For a stack the coefficients
    are ``(B, 1)`` columns and ``flux`` has one row per member.
    """
    vals = gauss * gauss
    vals *= cubic
    vals += linear
    vals *= gauss
    loads = _element_integrals(mesh, _W_LOAD, vals)
    left, right = loads[0], loads[1]  # indexing: unpacking an array iterates it
    left -= flux
    right += flux
    return _scatter_element_loads(left, right)


def cubic_jacobian(mesh: MeshPartition, y: np.ndarray, *,
                   gauss: np.ndarray | None = None) -> TridiagMatrix:
    """Derivative of :func:`cubic_term`: entries ``integral(3*y^2*phi_j*phi_i)``.

    Symmetric positive semidefinite; exact by the same degree argument.  A
    ``(B, n_dof)`` stack of states gives a stack of matrices.  ``gauss`` is
    ``gauss_values(y)``, point-major of shape ``(3, ..., n_elements)``, when
    the caller has it already.  Its element integrals become its band in place.
    """
    if gauss is None:
        gauss = gauss_values(y)
    sq = gauss * gauss
    sq *= 3.0
    return _scatter_element_matrix(_element_integrals(mesh, _W_JAC, sq))


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


@dataclass(frozen=True, eq=False)
class NormSet:
    """L2, max-nodal, L4, and H1-seminorm of a discrete state.

    :func:`norms` computes ``l2`` and ``linf``; ``l4`` and ``h1_semi`` are
    computed the first time they are read, from the copy of the state that
    :func:`norms` took, and then kept.  Sets compare by identity.
    """

    l2: float
    linf: float
    _system: AssembledSystem = field(repr=False)
    _y: np.ndarray = field(repr=False)

    @cached_property
    def l4(self) -> float:
        quartic = gauss_values(self._y) ** 4
        integral_4 = float(self._system.mesh.element_sizes @ (GAUSS3_WEIGHTS @ quartic))
        return integral_4 ** 0.25

    @cached_property
    def h1_semi(self) -> float:
        return math.sqrt(max(float(self._y @ self._system.stiffness.matvec(self._y)), 0.0))


def norms(system: AssembledSystem, y: np.ndarray) -> NormSet:
    """Norms of a state on the system's mesh, as a :class:`NormSet`.

    ``l2 = sqrt(y' M y)`` and ``h1_semi = sqrt(y' K y)`` are exact; ``l4``
    uses the (exact) 3-point Gauss rule; ``linf`` is the max nodal magnitude,
    which for P1 functions coincides with the true sup-norm.  Only ``l2`` and
    ``linf`` are computed in the call; ``l4`` and ``h1_semi`` are computed on
    first access from a copy of ``y`` taken here, so changing ``y`` after the
    call does not change them.
    """
    if y.shape != system.moment.shape:
        raise MeshError(f"state of shape {y.shape}, system expects {system.moment.shape}")
    return NormSet(
        l2=math.sqrt(max(float(y @ system.mass.matvec(y)), 0.0)),
        linf=float(np.maximum.reduce(np.abs(y))),
        _system=system,
        _y=y.copy(),
    )

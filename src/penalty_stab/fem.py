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


def _load_lapack(*names: str) -> list[Callable]:
    """scipy's f2py wrappers of the LAPACK routines ``names``, without running ``import scipy``.

    ``scipy.linalg.lapack`` takes about 0.3 s to import, most of it in
    ``scipy._lib`` star-importing numpy's testing, f2py, ma and random
    subpackages, while this package needs two routines from one compiled
    extension.  The extension is found through the spec of ``scipy``, which
    locates the package without executing it, and loaded under its real
    name.  The loader registers it in ``sys.modules``, and the entry is
    taken out again: a later ``import scipy.linalg`` then imports the
    extension itself and sets the attribute ``scipy.linalg._flapack``, and
    as the extension is initialized once per process and a second import
    copies the first one's namespace, its ``lapack.dgttrf`` and
    ``lapack.dgttrs`` are the functions returned here.  A module that scipy
    has already imported is reused.  Where the extension cannot be found or
    loaded, the ordinary import is used; either way they are the same
    wrappers of the same compiled routines.
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
        return [getattr(module, name) for name in names]
    except (AttributeError, StopIteration, ImportError):  # no scipy, no file, load failed
        from scipy.linalg import lapack

        return [getattr(lapack, name) for name in names]


dgttrf, dgttrs = _load_lapack("dgttrf", "dgttrs")

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
    ``i < n - 1``, and column ``n - 1`` of both holds +0.0.  That is the
    layout of LAPACK's tridiagonal routines: a stack read as one flat
    matrix of order ``B n`` has the padding as its couplings between
    blocks, exactly zero, so :meth:`solve` passes the flat rows as they
    are.

    ``TridiagMatrix(diag, lower, upper)`` packs three diagonals, ``lower``
    and ``upper`` of length ``n - 1``, into a new band once;
    :meth:`from_band` wraps a band built in place.  ``diag``, ``lower`` and
    ``upper`` are views of the band, so writing into them writes the
    matrix, until its first :meth:`solve` makes them read-only.
    """

    __slots__ = ("band", "diag", "lower", "upper", "_factors")

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
        self._factors = None  # dgttrf's, from the first solve: see _factor

    @classmethod
    def symmetric(cls, diag: np.ndarray, off: np.ndarray) -> "TridiagMatrix":
        return cls(diag=diag, lower=off, upper=off)

    @property
    def n(self) -> int:
        return self.band.shape[-1]

    def repeat(self, count: int) -> "TridiagMatrix":
        """A stack of ``count`` copies of this one matrix."""
        return TridiagMatrix.from_band(np.repeat(self.band[:, None], count, axis=1))

    def take(self, index: np.ndarray) -> "TridiagMatrix":
        """The matrices ``index`` of a stack, in a new band that is not factored."""
        return TridiagMatrix.from_band(self.band[:, index])

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
        """Direct tridiagonal solve: LAPACK ``dgttrf`` once per matrix, ``dgttrs`` per call.

        The first solve factors the matrix (an LU factorization with row
        interchanges) and keeps the factors with it; every solve, the first
        included, substitutes ``rhs`` through them.  Factor and substitution
        give the bits of one ``dgtsv`` call on the same system.  Once
        factored, the band and its ``diag``, ``lower`` and ``upper`` views
        are read-only, so the factors cannot go stale: writing into them
        raises ``ValueError`` (a view of the buffer that the caller of
        :meth:`from_band` made before the first solve is not covered).

        ``rhs`` may be a vector or a matrix of stacked right-hand sides, with
        the stack's leading axis in front for a stack of matrices.  One
        matrix passes its three diagonals.  A stack passes the flat rows of
        its band as they are, so it is factored as one block-diagonal band
        whose couplings between blocks are the padding, exactly zero, so
        every block's factors and solution equal its own in value, as long
        as every band and right-hand side is finite.  An exact zero may carry
        the other sign: the elimination and the back substitution still run
        across the couplings, and a zero product added to a ``-0.0`` can
        make it ``+0.0``, in either neighbouring block.  For example,
        ``b(i+1) - l(i) b(i)``, with the multiplier ``l(i) = dl(i)/d(i)``,
        does so for a ``-0.0`` in a block's first row when ``d(i)`` and
        ``b(i)``, the last row of the block above, have opposite signs.  A
        NaN or inf in one block reaches the others: the pivot test ``|d(i)|
        >= |dl(i)|`` is false for NaN, so it interchanges rows, and back
        substitution multiplies the zero couplings by NaN, which hits the
        blocks before the bad one as well as those after it.
        :func:`solver.newton_solve` keeps members whose residual is not
        finite out of the solve; a block whose own solution overflows can
        still reach the blocks above it.  Neither the matrix's values nor
        ``rhs`` are modified.

        Raises
        ------
        SingularCoreError
            On a zero pivot (exactly singular matrix) in any block.
        """
        if self._factors is None:
            self._factor()
        factors = self._factors[2]
        band = self.band
        order = band.size // 3
        if band.ndim > 2:
            rhs = rhs.reshape((order,) + rhs.shape[band.ndim - 1:])
        if factors[1].size > order:  # padded to the wrapper's smallest order
            padded = np.zeros(factors[1].shape + rhs.shape[1:])
            padded[:order] = rhs
            rhs = padded
        x = dgttrs(*factors, rhs)[0][:order]
        return x.reshape(band.shape[1:] + x.shape[1:]) if band.ndim > 2 else x

    def _factor(self) -> None:
        """Factor the flat band by ``dgttrf`` and keep the factors, read-only.

        The factors are one ``(4, order)`` buffer, ``dgttrf``'s ``dl``,
        ``d``, ``du`` and ``du2`` padded at the end to the order, so that
        the rows of a stack's blocks can be moved (:meth:`set_blocks`),
        and the pivot indices.  scipy's wrapper takes no order below 3 (its
        ``du2`` would be empty), so a smaller matrix is padded with identity
        rows, which leave its own factors as they are.
        """
        band = self.band.reshape(3, -1)
        order = band.shape[1]
        rows = np.zeros((4, max(order, 3)))
        rows[:3, :order] = band
        if order < 3:
            rows[1, order:] = 1.0
        # dgttrf overwrites the first three rows (overwrite_dl, _d, _du = 1)
        *_, du2, pivots, info = dgttrf(rows[0, :-1], rows[1], rows[2, :-1], 1, 1, 1)
        if info > 0:
            raise SingularCoreError(f"singular tridiagonal system: zero pivot in row {info}")
        rows[3, :-2] = du2
        for array in (self.band, self.diag, self.lower, self.upper, rows, pivots):
            array.setflags(write=False)
        # the factors, and dgttrs's arguments
        self._factors = (rows, pivots, (rows[0, :-1], rows[1], rows[2, :-1], rows[3, :-2], pivots))

    def set_blocks(self, index: np.ndarray, blocks: "TridiagMatrix") -> None:
        """Write the stack ``blocks`` into this stack's blocks ``index``, in place.

        Block ``j`` of ``blocks``, whose matrices have the same order, goes
        to position ``index[j]``.  When both stacks are factored, the
        factors move with the blocks, and this one stays factored without
        a ``dgttrf`` call: the factorization of a stack of finite blocks
        does not couple them, as the pivot test ``|d(i)| >= |0|`` holds at
        every block end, so no rows are interchanged across one, the
        multiplier there is a zero and so are the superdiagonals.  So each
        block's factors are its own, and a block moved by ``s`` positions
        has its pivot indices shifted by ``s n``.  The zeros at a block end
        take the sign they have at its new place, which changes only the
        sign of an exact zero in a solution (see :meth:`solve`).  Otherwise
        (or for a stack padded to the wrapper's smallest order) the matrix
        drops its factors, is writable again and is factored on its next
        solve.  This is the one write a factored matrix takes: whole blocks,
        with their factors, so its factors never go stale.
        """
        band, n = self.band, self.band.shape[-1]
        if blocks.band.shape != (3, index.size) + band.shape[2:]:
            raise ValueError(f"a stack of shape {blocks.band.shape[1:]} cannot replace "
                             f"{index.size} blocks of a stack of shape {band.shape[1:]}")
        factors, moved = self._factors, blocks._factors
        if factors is not None:
            rows, pivots = factors[:2]
            keep = (moved is not None and rows.shape[1] == band.size // 3
                    and moved[0].shape[1] == blocks.band.size // 3)  # neither is padded
            arrays = [band, rows, pivots] if keep else [band, self.diag, self.lower, self.upper]
            for array in arrays:
                array.setflags(write=True)
            if keep:
                rows.reshape(4, -1, n)[:, index] = moved[0].reshape(4, -1, n)
                shift = (index - np.arange(index.size)) * n
                pivots.reshape(-1, n)[index] = moved[1].reshape(-1, n) + shift[:, None]
            else:
                self._factors = None
        band[:, index] = blocks.band
        if self._factors is not None:
            for array in (band, rows, pivots):
                array.setflags(write=False)


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
    if not np.all(sizes > 0.0):  # a NaN node fails too
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
    are floats or ``(B, 1)`` columns, and ``flux`` has one row per member.
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


def project_initial(mesh: MeshPartition, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The L2 projection of an initial profile ``f`` with ``f(0) = 0``.

    Solves ``M c = (f, phi_i)`` with the load computed by the 3-point Gauss
    rule per element, which reproduces members of the P1 space exactly.
    """
    f0 = float(f(np.asarray(0.0)))
    if not abs(f0) <= 1e-9:  # a NaN fails too
        raise ParameterDomainError(f"initial profile must vanish at x = 0, got f(0) = {f0!r}")
    x_left = mesh.nodes[:-1]
    h = mesh.element_sizes
    # f at the Gauss points of every element, shape (n_elements, 3)
    fx = np.asarray(f(x_left[:, None] + np.outer(h, GAUSS3_POINTS)), dtype=float)
    load = _scatter_element_loads(h * (fx @ _W_LEFT), h * (fx @ _W_RIGHT))
    return _mass_matrix(mesh).solve(load)


def norms(system: AssembledSystem, y: np.ndarray, *,
          mass_y: np.ndarray | None = None) -> tuple:
    """``(l2, linf)``: the L2 and max-nodal norms of a state, or of a stack of them.

    ``l2 = sqrt(y' M y)`` is exact, and ``linf``, the max nodal magnitude,
    coincides for P1 functions with the true sup-norm.  A 1-D state gives
    two Python floats.  A stack, any states along the last axis, gives two
    arrays over its leading axes, each entry the bits of that state's own
    call.  ``mass_y`` is the product ``system.mass.matvec(y)`` when the
    caller has it already (a march level's ``mass_states``), so ``l2``
    costs one dot product per state; it is formed here when not given,
    with the same bits.
    """
    if y.ndim == 0 or y.shape[-1] != system.n_dof:
        raise MeshError(f"state of shape {y.shape}, system expects {system.moment.shape} "
                        "or a stack of them")
    if mass_y is None:
        mass_y = system.mass.matvec(y)
    if y.ndim == 1:  # Python floats: a lone state's reductions cost half the array ones
        return math.sqrt(max(float(y @ mass_y), 0.0)), float(np.maximum.reduce(np.abs(y)))
    return (np.sqrt(np.maximum(np.vecdot(y, mass_y), 0.0)),
            np.max(np.abs(y), axis=-1, initial=0.0))


def l4_norm(system: AssembledSystem, y: np.ndarray) -> float:
    """The L4 norm of a state, by the (exact) 3-point Gauss rule."""
    quartic = gauss_values(y) ** 4
    return float(system.mesh.element_sizes @ (GAUSS3_WEIGHTS @ quartic)) ** 0.25


def h1_seminorm(system: AssembledSystem, y: np.ndarray) -> float:
    """The H1 seminorm ``sqrt(y' K y)`` of a state, exact."""
    return math.sqrt(max(float(y @ system.stiffness.matvec(y)), 0.0))

"""Fully discrete scheme: backward Euler in time, Newton per step.

Each step of the penalized feedback scheme solves the nonlinear system

    M (Y - Y_prev)/k + nu K Y + (nu/eps) Y(1) e_b + delta C(Y)
        - alpha M Y + (nu r / eps) (w . Y) e_b = 0

where ``C`` is the cubic load vector, ``w`` the control moment vector, and
``e_b`` selects the boundary DOF.  The residual evaluates it with the
boundary row multiplied by ``eps/nu``, as the paper's boundary condition
``eps y_x(1) + y(1) = u`` is written:

    F(Y) = nu K Y + R(Y) - M Y_prev / k,  except
    F_b(Y) = (eps/nu) (nu K Y + R(Y) - M Y_prev / k)_b + Y(1) + r (w . Y),

with the reaction load ``R(Y) = integral(((1/k - alpha) Y + delta Y^3)
phi_i)`` taken by the element Gauss rule, which is exact for it.  ``nu K Y``
is a sum of element fluxes: on element ``e`` the P1 diffusion form ``nu
integral(Y_x phi_x)`` is ``s_e = (nu/h_e) d_e``, with ``d_e`` the difference
of the element's nodal values, taken from its left node and given to its
right node.  Both terms come from one pass over the elements and one scatter
of their loads.  The fluxes, of size ``nu/h``, set the residual's round-off
floor at the level a tridiagonal product ``nu K Y`` gives it
(``scripts/newton_floor.py`` prints the floor per mesh size).  A Newton
step divides the previous level's mass product by ``k`` once, as ``M
Y_prev / k``; each iterate's differences and Gauss values are computed
together, both serve its residual, and the Gauss values also its Jacobian.
The feedback functional acts on the unknown state, as the paper's control
``u(t) = -r integral(x y(t, x) dx)`` acts on the current one, which adds
the rank-one row ``r e_b w^T`` to the otherwise tridiagonal Newton matrix;
the linear solves exploit that structure via a tridiagonal LU
factorization (LAPACK ``dgttrf``, once per matrix) and substitution
(``dgttrs``, per solve), plus a Sherman-Morrison correction.  The boundary
row's scale and its constraint are folded into the last row of the
tridiagonal core, so the banded solve is unmodified.

One boundary row serves every variant: its scale is ``eps/nu``, and at
``eps = 0`` it imposes ``Y(1) = -r (w . Y)`` exactly, the Dirichlet
feedback problem, the ``eps -> 0`` limit of the penalized solutions.  So
``epsilon = 0`` is the variant, and nothing else names it.  At ``r = 0``
that is the pinned problem, and the uncontrolled baseline is exactly that,
started from the initial state with its boundary value set to zero.  Every
variant steps through the one Newton loop, :func:`newton_solve`, and a
stack may mix them.

Newton starts the first step from ``Y_0``, which :func:`simulate` takes as
the L2 projection of the initial profile, the second from the linear
extrapolation ``2 Y_1 - Y_0``, and each later one from the quadratic
extrapolation ``3 (Y_n - Y_{n-1}) + Y_{n-2}`` of the last three levels, a
predictor whose error is ``O(k^3)``, so one update usually converges.  It
stops on the Euclidean residual norm.  The boundary row carries no ``nu/eps``
amplification, so its round-off does not grow as eps shrinks.

Each update is first certified by its cubic remainder.  The only nonlinear
term is ``delta y^3``, and the Gauss rule integrates it exactly, so after
an update ``y1 = y - dy`` with ``J(y) dy = F(y)`` the residual is, up to
the linear solve's round-off, ``F_i(y1) = delta integral((3 y dy^2 - dy^3)
phi_i)``, the boundary row taking it times ``eps/nu``.  P1 functions are
bounded by their nodal maxima, so

    ||F(y1)||_2 <= |delta| (3 ||y||_inf + ||dy||_inf) ||dy||_inf^2 ||w||_2

with ``w_i = integral(phi_i)`` and its boundary entry times ``eps/nu``
(:attr:`LinearPart.remainder_weight` holds ``|delta| ||w||_2``).  An update
whose bound is at most ``tol`` is accepted without a residual at ``y1``;
only the others evaluate it and test its norm.  So the residual's round-off
floor, which grows like ``nu/h`` in the interior rows and like ``eps/h`` in
the boundary row (``scripts/newton_floor.py`` prints it), no longer decides
whether a step converged.

The march keeps each run's Newton matrix across its steps, a simplified
Newton method: a :class:`KeptMatrix` holds the matrix ``J~ = J(y~)``
factored at an earlier iterate ``y~``, with its Sherman-Morrison pieces.
A step's first update is ``dy = J~^{-1} F(y)``, one substitution; then
``F(y - dy) = delta (C'(y~) - C'(y)) dy`` plus the cubic remainder, and
``C'(y~) - C'(y)`` integrates ``3 (y~ - y)(y~ + y)`` against the hats, so
the bound grows by one term:

    ||F(y1)||_2 <= |delta| ||w||_2 [(3 ||y||_inf + ||dy||_inf) ||dy||_inf^2
                                    + 3 ||y~ - y||_inf ||y~ + y||_inf ||dy||_inf]

An update that this bound certifies ends the step.  When it does not, the
update is dropped, and the step runs the Newton iteration above from the
same iterate, whose first matrix, factored there, is kept from then on (a
refresh).  So a step fails only where that iteration fails.  The first
step keeps the matrix of its first update.  In a stack each member
substitutes with its own kept rows and refreshes them on its own bound,
so it takes the iterates of its lone run.

A run is one object, its :class:`LinearPart`, built by
``LinearPart.of(params, system, k)`` from one :class:`ModelParams` or a
sequence of them (a stack).  The Newton kernels take it first and read
everything else of the run from it: the time step ``k``, ``delta``, the
gain and the boundary row's scale ``eps/nu``, which is the variant.  So
:func:`residual`, :func:`jacobian` and :func:`newton_solve` take
``(linear, system, ...)`` and nothing that could name a second run.

Only ``delta C'(Y)`` in the Newton matrix depends on the state, and what
does not depend on the iterate is built as rarely as it can be:

* once per run, the :class:`LinearPart` (once per stack of runs, restricted
  with ``take`` when members leave): ``(1/k - alpha) M + nu K`` as a padded
  band, the mass matrix (one copy per member of a stack), the element
  conductances ``nu/h_e`` of the fluxes, the boundary row's scale
  and gain, the rank-one feedback row, and the gains as floats for the
  controls;
* once per refresh: the kept Newton matrix, as below for an update, with
  ``x_u = core^{-1} e_b`` and ``1 + v . x_u`` (:class:`NewtonMatrix`);
* once per level, in the march: the mass product ``M Y_n`` of the new
  level (:attr:`EnsembleLevel.mass_states`), which the next
  :func:`newton_solve` divides by ``k`` as its ``M Y_prev / k`` and
  :func:`simulate` hands to :func:`fem.norms`;
* once per step, in :func:`newton_solve`: the checks of ``y_prev``, the
  start and the stack's members, ``M Y_prev / k`` from that product, the
  update by the kept matrix (one substitution and the extended bound, four
  max reductions), and at the end the controls, from one ``w . Y`` per run
  in Python floats;
* per iteration from a refresh on: ``delta C'(Y)``
  (:func:`fem.cubic_jacobian`, whose element integrals become its band in
  place), to whose band the linear part is added in the same order of
  operations as a from-scratch build, so the iterates do not change, one
  factorization and two substitutions (``e_b`` and the residual, as
  :func:`solve_structured`), and the remainder bound of the update (two
  max reductions); and for an update that the bound does not certify, the
  nodal differences and Gauss values of the new iterate
  (:func:`fem.element_values`), its residual (one :func:`fem.reaction_load`
  pass and the boundary row) and stopping norm.

Newton never writes into ``Y_prev`` or its start: each iterate is a new
array, and so is the result.  Every kernel returns a new array: none writes
into its inputs, the :class:`LinearPart` or a buffer of an earlier call.
The one object a step writes is the :class:`KeptMatrix` it is given: it
replaces the matrix, or writes whole members' rows of it, factors included
(:meth:`fem.TridiagMatrix.set_blocks`), so a factored matrix never goes
stale.

One march steps every run, strictly sequential in time:
:func:`step_ensemble` yields its levels, one :func:`newton_solve` per level,
and :func:`simulate` records the levels of a lone run, which steps as a 1-D
state.  Runs that share a mesh and a time grid step together through the
same march, whatever their variants: their states form a
``(B, N)`` stack, each Newton iteration evaluates one stacked residual and
Jacobian, and one banded factorization and substitution solves all B
cores, whose couplings in the stacked band, LAPACK's flat ``(3, B, N)``
layout, are exactly zero (:class:`fem.TridiagMatrix`).  The members that
refresh take a fresh update together, and their factored matrices are
written into their rows of the kept one.  The Sherman-Morrison correction
is applied per member, and each member leaves the iteration at its own
convergence, certified or tested (or at a residual that is not finite),
and extrapolates from its own levels, so every run equals its separate
run in value; an exact zero may carry the other sign (see
:meth:`fem.TridiagMatrix.solve`).  :func:`newton_solve`
keeps its bookkeeping in Python floats for a 1-D state and in ``(B,)``
arrays for a stack, whose members' reports are built only when read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import MeshError, ParameterDomainError, SingularUpdateError
from .fem import (
    AssembledSystem,
    MeshPartition,
    TridiagMatrix,
    assemble,
    cubic_jacobian,
    cubic_term,  # no longer called here, but still looked up as solver.cubic_term
    element_values,
    norms,
    project_initial,
    reaction_load,
)
from .params import ModelParams, check_admissibility

VARIANTS = ("penalized_feedback", "uncontrolled_dirichlet")

# Newton's default stopping tolerance on the Euclidean residual norm, and its
# default iteration limit per step
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with step ``k`` and ``n_steps`` steps."""

    k: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0.0 < self.k < math.inf:
            raise ParameterDomainError(f"time step must be positive and finite, got {self.k!r}")
        if self.n_steps < 1:
            raise ParameterDomainError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def T(self) -> float:
        return self.k * self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.k


@dataclass
class StepReport:
    """Newton diagnostics for one time step.

    ``newton_iterations`` counts linearized solves; convergence is checked
    after each update, so even an already-converged start performs one
    update.  A step stops, unconverged, at a residual norm that is not
    finite; a start whose residual norm is not finite performs no update.
    ``residual_norms`` holds the Euclidean residual norm at the start and
    after each update, and ``final_residual_norm`` its last entry.

    ``certified`` tells which test accepted the step.  When it is true, the
    last update's remainder bound (see the module docstring) was at most
    the tolerance, and the last entry of ``residual_norms`` is that bound,
    not a computed residual: it bounds the residual of exact arithmetic and
    leaves out the linear solve's round-off.  For an update by a kept
    Newton matrix, factored at an earlier iterate ``y~``, it is the bound
    extended by ``3 ||y~ - y||_inf ||y~ + y||_inf ||dy||_inf``, and such a
    step took one update.  An update by the kept matrix that the extended
    bound does not certify is dropped and not reported: the step refreshes
    the matrix and reports the Newton iteration from the same iterate.
    When ``certified`` is false, every entry is a computed residual, and a
    converged step's last one is at most the tolerance.
    """

    newton_iterations: int
    final_residual_norm: float
    control_value: float
    converged: bool
    residual_norms: tuple[float, ...]
    certified: bool


@dataclass(frozen=True, eq=False)
class StackReport:
    """Newton diagnostics for one time step of a stack, in ``(B,)`` arrays.

    The first four fields and ``certified`` hold each member's
    :class:`StepReport` field; entry ``i`` of ``residual_norms`` holds the
    norms after update ``i`` (0: at the start) of the members that took it,
    a certified member's last one being its remainder bound.  Indexing and
    iteration build each member's :class:`StepReport` on read, so they see
    a change to ``converged``.
    """

    newton_iterations: np.ndarray
    final_residual_norm: np.ndarray
    control_value: np.ndarray
    converged: np.ndarray
    residual_norms: list[np.ndarray]
    certified: np.ndarray

    def __len__(self) -> int:
        return self.converged.size

    def __getitem__(self, member: int) -> StepReport:  # iteration stops at its IndexError
        n = int(self.newton_iterations[member])
        return StepReport(n, float(self.final_residual_norm[member]),
                          float(self.control_value[member]), bool(self.converged[member]),
                          tuple(float(norms[member]) for norms in self.residual_norms[:n + 1]),
                          bool(self.certified[member]))


@dataclass(eq=False)
class StateTrajectory:
    """Time series produced by :func:`simulate`.

    All arrays have one row/entry per recorded time level, including the
    initial state.  ``l2`` and ``linf`` hold the state's L2 and max-nodal
    norms, the pair that :func:`fem.norms` returns; the L4 norm and the H1
    seminorm of a level are ``fem.l4_norm(assemble(mesh), states[n])`` and
    ``fem.h1_seminorm(assemble(mesh), states[n])``.
    ``controls[n]`` always equals
    ``0.0 - r * (moment . states[n])`` with the run's gain ``r``; the
    uncontrolled baseline steps at ``r = 0``, so its controls are ``+0.0``,
    never ``-0.0``.  If a Newton step fails, the trajectory is truncated at
    the last converged level and ``failed_at`` records the 1-based index of
    the failed step (its diagnostic report is still appended).
    """

    variant: str
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    step_reports: list[StepReport]
    failed_at: int | None = None

    @property
    def n_recorded(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True, eq=False)
class RankOneUpdate:
    """Rank-one matrix contribution ``outer(u, v)`` (one per row for stacks)."""

    u: np.ndarray
    v: np.ndarray

    def take(self, index: np.ndarray) -> "RankOneUpdate":
        """The updates of the members ``index`` of a stack."""
        return RankOneUpdate(u=self.u[index], v=self.v[index])


@dataclass(frozen=True, eq=False)
class NewtonMatrix:
    """A Newton matrix ``core + outer(u, v)`` held ready for solves.

    ``core`` keeps its ``dgttrf`` factors from its first solve (see
    :meth:`fem.TridiagMatrix.solve`), and the Sherman-Morrison correction's
    pieces are formed once: ``x_u = core^{-1} u`` and ``denominator = 1 + v
    . x_u``, a numpy scalar for one matrix and one per row for a stack.
    Both are ``None`` when ``rank_one`` is.  So each :meth:`solve` is one
    substitution, one dot product per row and one correction.
    """

    core: TridiagMatrix
    rank_one: RankOneUpdate | None
    x_u: np.ndarray | None
    denominator: np.ndarray | None

    @classmethod
    def of(cls, core: TridiagMatrix, rank_one: RankOneUpdate | None) -> "NewtonMatrix":
        """Factor ``core`` (on its first solve) and form ``x_u`` and the denominator.

        Raises
        ------
        SingularCoreError
            Zero pivot in the tridiagonal factorization.
        SingularUpdateError
            The correction denominator ``1 + v . core^{-1} u`` vanishes.
        """
        if rank_one is None:
            return cls(core, None, None, None)
        x_u = core.solve(rank_one.u)
        v_xu = np.vecdot(rank_one.v, x_u)
        for s in [float(v_xu)] if v_xu.ndim == 0 else v_xu.reshape(-1).tolist():
            if abs(1.0 + s) <= 1e-12 * max(1.0, abs(s)):
                raise SingularUpdateError(
                    f"rank-one update is singular: 1 + v.core^-1.u = {1.0 + s:.3e}")
        return cls(core, rank_one, x_u, 1.0 + v_xu)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution of ``(core + outer(u, v)) x = rhs``, a new array."""
        rank_one = self.rank_one
        if rank_one is None:
            return self.core.solve(rhs)
        if rhs.shape != rank_one.u.shape:
            raise ValueError(f"right-hand side of shape {rhs.shape} does not match "
                             f"a rank-one update of shape {rank_one.u.shape}")
        x_rhs = self.core.solve(rhs)
        weight = np.vecdot(rank_one.v, x_rhs) / self.denominator
        return x_rhs - self.x_u * (weight if weight.ndim == 0 else weight[..., None])

    def take(self, index: np.ndarray) -> "NewtonMatrix":
        """The matrices of the members ``index`` of a stack; their core is factored anew."""
        core = self.core.take(index)
        if self.rank_one is None:
            return NewtonMatrix(core, None, None, None)
        return NewtonMatrix(core, self.rank_one.take(index), self.x_u[index],
                            self.denominator[index])


@dataclass(eq=False)
class KeptMatrix:
    """The Newton matrix that a run keeps across its time steps.

    ``matrix`` is a :class:`NewtonMatrix` factored at the states ``at``, one
    row per member for a stack; both are ``None`` until the first step
    fills them.  :func:`newton_solve` substitutes with it and refreshes the
    members that need it; the march keeps the rows of the members that
    stay (:meth:`restrict`).  It is the one object that a Newton step
    writes into, and it writes the rows of a stack's members into its own
    arrays in place.  ``rows`` lists the members it holds when the first
    step filled it without the members whose start was not finite (those
    fail that step and are dropped); ``None`` is every member.
    """

    matrix: NewtonMatrix | None = None
    at: np.ndarray | None = None
    rows: np.ndarray | None = None

    def refresh(self, matrix: NewtonMatrix, at: np.ndarray,
                members: np.ndarray | None = None) -> None:
        """Keep ``matrix``, factored at ``at``, for the members ``members`` (``None``: all).

        Given members, the rows of ``matrix`` and ``at`` are written into
        theirs in place, the factored cores by
        :meth:`fem.TridiagMatrix.set_blocks`.  A matrix held as it was given
        is taken as this object's own: it comes from a Newton update and
        nothing else refers to it; ``at``, a Newton iterate, is copied.  A
        matrix that holds nothing yet takes the given members' rows as they
        are, and records them as its ``rows``.
        """
        kept = self.matrix
        if members is None or kept is None:
            self.matrix, self.at, self.rows = matrix, at.copy(), members
        else:
            self.at[members] = at
            if kept.x_u is not None:
                kept.x_u[members], kept.denominator[members] = matrix.x_u, matrix.denominator
            kept.core.set_blocks(members, matrix.core)

    def restrict(self, index: np.ndarray) -> None:
        """Keep only the rows of the members ``index`` of a stack, all of them held."""
        if self.matrix is not None:
            if self.rows is not None:
                index = np.searchsorted(self.rows, index)
            self.matrix, self.at, self.rows = self.matrix.take(index), self.at[index], None


def _members_error(linear: LinearPart, y: np.ndarray) -> MeshError:
    """The error for states ``y`` whose shape is not ``linear.conductance.shape``.

    ``conductance`` has the shape of the run's states: a stack of states
    has one row per member of its linear part, and a lone state is 1-D.
    """
    members = linear.conductance.shape[:-1]
    return MeshError(f"states of shape {y.shape} do not match a linear part of "
                     + (f"{members[0]} members" if members else "one run"))


def _check_states(linear: LinearPart, system: AssembledSystem, y: np.ndarray,
                  y_prev: np.ndarray) -> None:
    if y.shape[-1:] != system.moment.shape or y_prev.shape != y.shape:
        raise MeshError("state vectors do not match the assembled system")
    if y.shape != linear.conductance.shape:
        raise _members_error(linear, y)


def residual(linear: LinearPart, system: AssembledSystem, y: np.ndarray, y_prev: np.ndarray,
             *, prev_load: np.ndarray | None = None, gauss: np.ndarray | None = None,
             diffs: np.ndarray | None = None) -> np.ndarray:
    """Residual of one backward Euler step of the boundary feedback scheme.

    The interior rows are ``nu K y + R(y) - M y_prev / k`` with the reaction
    load ``R(y) = integral(((1/k - alpha) y + delta y^3) phi_i)``.  Both
    come from one pass of :func:`fem.reaction_load` over the elements:
    ``nu K y`` as the element fluxes ``(nu/h_e) d_e`` of the nodal
    differences ``d_e``, ``R(y)`` by the exact Gauss rule.  Newton's
    round-off floor is the same as with the tridiagonal product ``nu K y``
    (``scripts/newton_floor.py``).  The boundary row is the interior
    formula times ``linear.scale`` plus the feedback condition ``y(1) + r
    (w . y)``: the penalized row times ``eps/nu``, and at scale 0 the
    Dirichlet feedback row.

    ``linear`` is the run's :class:`LinearPart`, which carries everything
    of the run: ``k``, ``delta``, the control and the variant.  A linear
    part of B members takes ``(B, N)`` stacks of states, and each row gets
    its own residual.  The keywords carry pieces a Newton step computes
    once: ``prev_load``, the previous level's load ``M y_prev / k``; and
    ``diffs`` and ``gauss``, the two arrays of ``fem.element_values(y)``.
    Each one not given is built here, with the same bits.
    """
    _check_states(linear, system, y, y_prev)
    if prev_load is None:
        prev_load = linear.mass.matvec(y_prev) / linear.k
    if diffs is None or gauss is None:
        values = element_values(y)
        diffs = values[0] if diffs is None else diffs
        gauss = values[1] if gauss is None else gauss
    f = reaction_load(system.mesh, gauss, linear.weight, linear.delta,
                      linear.conductance * diffs)
    f -= prev_load
    b = system.boundary_dof
    # .T[b] is column b of a stack and entry b of a lone state, a numpy
    # scalar, whose arithmetic costs a tenth of that of the 0-d view [..., b]
    f.T[b] = linear.scale * f.T[b] + (y.T[b] + linear.gain * np.vecdot(y, system.moment))
    return f


@dataclass(frozen=True, eq=False)
class LinearPart:
    """One run, or a stack of runs, as the Newton kernels see it.

    ``k`` and ``delta`` are the run's settings that are not matrices.  The
    rest is the state-independent part of the Newton matrix of
    :func:`residual`.  Every Newton matrix of a run shares the
    tridiagonal ``(1/k - alpha) M + nu K`` (``core``), the boundary row and
    the rank-one feedback row; only ``delta C'(y)`` changes with the state.
    ``core`` is held in :class:`fem.TridiagMatrix`'s band layout, padded
    once per run: its lower and upper rows (``off``, both the same) carry
    +0.0 in the last column of every member, so :func:`jacobian` adds it to
    ``delta C'(y)`` band for band in one add over whole rows.  ``mass`` is
    the mass matrix, one copy per member for a stack, whose padded rows let
    the march form each level's ``M Y_n`` by flat products.
    ``weight`` is the ``1/k - alpha`` that :func:`residual` integrates with
    the cubic term, and ``conductance`` the ``nu / h_e`` of every element,
    which turns the elements' nodal differences into the fluxes of ``nu K
    y``.  ``scale``, ``eps/nu``, multiplies the boundary row's interior
    terms; it is 0 for the Dirichlet feedback problem (``eps = 0``).
    ``gain`` is the ``r`` of the boundary row's feedback condition ``y(1) +
    r (w . y)``.  ``rank_one`` is ``None`` exactly when every gain is 0.
    ``remainder_weight`` is ``|delta| ||w||_2``, ``w_i = integral(phi_i)``
    with its boundary entry times ``scale``: the factor of the bound on the
    residual after an update (see the module docstring).
    Built from a sequence of :class:`ModelParams`, ``delta`` and ``weight``
    are each a float when every member's value has the same bits (so the
    kernels multiply by a number), else ``(B, 1)`` columns, which broadcast
    against ``(B, N)`` state stacks; every other array field has one row
    per member, and ``take`` keeps the band layout and a float as it is;
    ``scale``, ``gain`` and ``remainder_weight``, which act per member, are
    then ``(B,)`` vectors, so a stack may mix variants.
    ``conductance`` is ``(N,)`` for a run and ``(B, N)`` for a stack.
    """

    k: float
    delta: np.ndarray | float
    weight: np.ndarray | float
    conductance: np.ndarray
    core: TridiagMatrix
    mass: TridiagMatrix
    scale: np.ndarray | float
    gain: np.ndarray | float
    rank_one: RankOneUpdate | None
    remainder_weight: np.ndarray | float

    @cached_property
    def gains(self) -> list[float]:
        """The gain of each member as a float, for the controls."""
        return np.ravel(self.gain).tolist()

    @classmethod
    def of(cls, params: ModelParams | Sequence[ModelParams], system: AssembledSystem,
           k: float) -> "LinearPart":
        """The linear part of one run, or of a stack from a sequence of parameters."""
        if not 0.0 < k < math.inf:
            raise ParameterDomainError(f"time step must be positive and finite, got {k!r}")
        stacked = not isinstance(params, ModelParams)
        nu, alpha, delta, r, epsilon = (
            np.array([[getattr(p, name)] for p in params]) if stacked else getattr(params, name)
            for name in ("nu", "alpha", "delta", "r", "epsilon"))
        weight, scale = 1.0 / k - alpha, epsilon / nu
        # w_i = integral(phi_i): half of each element at each of its free nodes
        sizes = system.mesh.element_sizes
        w = 0.5 * sizes
        w[:-1] += 0.5 * sizes[1:]
        boundary = scale * w[-1]
        remainder = abs(delta) * np.sqrt(float(np.vecdot(w[:-1], w[:-1])) + boundary * boundary)
        mass, stiffness = system.mass, system.stiffness
        if stacked:  # (B, 1) columns against (3, 1, N) bands
            core = weight * mass.band[:, None] + nu * stiffness.band[:, None]
            mass = mass.repeat(len(params))
            # a column whose entries have the same bits (+0.0 and -0.0 do not) is one float
            delta, weight = (float(c[0, 0]) if np.unique(c.astype(float).view(np.uint64)).size == 1
                             else c for c in (delta, weight))
        else:
            core = weight * mass.band + nu * stiffness.band
        rank_one = None
        if np.count_nonzero(r):
            u = np.zeros(core.shape[1:])
            u[..., system.boundary_dof] = 1.0
            rank_one = RankOneUpdate(u=u, v=r * system.moment)
        return cls(k=k, delta=delta, weight=weight, conductance=nu / sizes,
                   core=TridiagMatrix.from_band(core), mass=mass,
                   scale=np.ravel(scale) if stacked else scale,
                   gain=np.ravel(r) if stacked else r, rank_one=rank_one,
                   remainder_weight=np.ravel(remainder) if stacked else float(remainder))

    def take(self, index: np.ndarray) -> "LinearPart":
        """The linear part of the members ``index`` of a stack."""
        def rows(column):  # a coefficient every member shares is kept as it is
            return column if isinstance(column, float) else column[index]

        rank_one = self.rank_one
        return replace(self, delta=rows(self.delta), weight=rows(self.weight),
                       conductance=self.conductance[index], core=self.core.take(index),
                       mass=self.mass.take(index), scale=self.scale[index],
                       gain=self.gain[index],
                       rank_one=None if rank_one is None else rank_one.take(index),
                       remainder_weight=self.remainder_weight[index])


def jacobian(linear: LinearPart, system: AssembledSystem, y: np.ndarray,
             *, gauss: np.ndarray | None = None) -> tuple[TridiagMatrix, RankOneUpdate | None]:
    """Newton matrix of :func:`residual`, split into tridiagonal + rank-one.

    The tridiagonal core is ``M/k + nu K - alpha M + delta C'(y)`` with its
    boundary row (diagonal and lower entry) multiplied by ``linear.scale``
    and 1 added to the boundary diagonal; the upper entry of the row above
    is not scaled, so the core is not symmetric.  The feedback contributes
    the dense boundary row ``r e_b w^T``, returned separately (``None`` when
    every gain is 0).  A linear part of B members takes a ``(B, N)`` stack
    of states and gives stacks of both parts.

    ``linear`` is the run's :class:`LinearPart`.  Only ``delta C'(y)`` is
    computed here, and the returned rank-one part is the linear part's own.
    ``gauss`` is ``fem.gauss_values(y)`` when the caller has it already.
    """
    if y.shape != linear.conductance.shape:
        raise _members_error(linear, y)
    # the band of delta C'(y) is this call's own, so the core is built in it;
    # its padding stays +0.0, as 0 * delta + 0.0 is +0.0 for any finite delta
    core = cubic_jacobian(system.mesh, y, gauss=gauss)
    band = core.band
    band *= linear.delta
    band += linear.core.band
    b = system.boundary_dof
    core.lower.T[b - 1] *= linear.scale  # .T[b - 1]: a stack's (B,) column; see residual
    core.diag.T[b] = linear.scale * core.diag.T[b] + 1.0
    return core, linear.rank_one


def solve_structured(core: TridiagMatrix, rank_one: RankOneUpdate | None,
                     rhs: np.ndarray) -> np.ndarray:
    """Solve ``(core + outer(u, v)) x = rhs`` exploiting the structure.

    The tridiagonal core is factored once (``dgttrf``, kept with ``core``)
    and substituted twice (``dgttrs``), for ``u`` and for ``rhs``; the
    rank-one part is then removed by the Sherman-Morrison correction.  That
    is :meth:`NewtonMatrix.solve` of a new :class:`NewtonMatrix`.  For a
    stack of systems (``rhs`` of shape ``(B, N)``, one update per row) all
    cores go through one stacked factorization and each row gets its own
    correction.

    Raises
    ------
    SingularCoreError
        Zero pivot in the tridiagonal factorization.
    SingularUpdateError
        The correction denominator ``1 + v . core^{-1} u`` vanishes.
    """
    return NewtonMatrix.of(core, rank_one).solve(rhs)


def _residual_norms(f: np.ndarray) -> np.ndarray:
    """Newton's convergence norm, the Euclidean norm, of each residual row in ``f``."""
    return np.sqrt(np.vecdot(f, f)).reshape(-1)


def _evaluate(linear: LinearPart, system: AssembledSystem, y: np.ndarray, y_prev: np.ndarray,
              load: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss values of the iterate ``y`` and its residual."""
    diffs, gauss = element_values(y)
    return gauss, residual(linear, system, y, y_prev, prev_load=load, gauss=gauss, diffs=diffs)


def _bound(weight: np.ndarray | float, y: np.ndarray, dy: np.ndarray,
           at: np.ndarray | None = None) -> np.ndarray | float:
    """The remainder bound on the residual norm at ``y - dy`` (see the module docstring).

    ``|delta| (3 ||y||_inf + ||dy||_inf) ||dy||_inf^2 ||w||_2`` for the
    Newton matrix at ``y``; for one factored at the states ``at``, ``3
    ||at - y||_inf ||at + y||_inf ||dy||_inf`` more inside the bracket.  A
    float for a 1-D state and one per row of a stack, each row's bits those
    of its 1-D update.  ``weight`` is the rows' ``remainder_weight``.
    """
    if at is None:
        y_max, dy_max = np.abs(y).max(axis=-1), np.abs(dy).max(axis=-1)
        if y.ndim == 1:  # Python floats, for a lone run's bookkeeping
            y_max, dy_max = float(y_max), float(dy_max)
        return weight * (3.0 * y_max + dy_max) * dy_max * dy_max
    rows = np.empty((4,) + y.shape)  # the four maxima in one reduction
    rows[0], rows[1] = y, dy
    np.subtract(at, y, out=rows[2])
    np.add(at, y, out=rows[3])
    np.abs(rows, out=rows)
    maxima = np.maximum.reduce(rows, axis=-1)
    y_max, dy_max, gap, mid = maxima.tolist() if y.ndim == 1 else maxima
    return weight * ((3.0 * y_max + dy_max) * dy_max * dy_max + 3.0 * gap * mid * dy_max)


def _update(linear: LinearPart, system: AssembledSystem, y: np.ndarray, gauss: np.ndarray,
            f: np.ndarray, kept: KeptMatrix | None = None, members: np.ndarray | None = None,
            rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | float]:
    """One Newton update of ``y``: the new iterate and the remainder bound on its residual norm.

    The update solves with the Newton matrix at ``y``, from
    :func:`jacobian`, as :func:`solve_structured` does.  Given ``rows``,
    only those rows of a stack are updated, from their rows of that matrix
    (a stack's Jacobian costs about what a taken one does), and the
    result holds only them.  Given ``kept``, the matrix is kept in it for
    the members ``members`` of ``kept`` that the result holds (see
    :meth:`KeptMatrix.refresh`).
    """
    core, rank_one = jacobian(linear, system, y, gauss=gauss)
    weight = linear.remainder_weight
    if rows is not None:
        core = core.take(rows)
        if rank_one is not None:
            rank_one = rank_one.take(rows)
        y, f, weight = y[rows], f[rows], weight[rows]
    matrix = NewtonMatrix.of(core, rank_one)
    dy = matrix.solve(f)
    if kept is not None:
        kept.refresh(matrix, y, members)
    return y - dy, _bound(weight, y, dy)


def _kept_update(linear: LinearPart, system: AssembledSystem, y: np.ndarray,
                 gauss: np.ndarray, f: np.ndarray, kept: KeptMatrix, members: np.ndarray | None,
                 tol: float) -> tuple[np.ndarray, np.ndarray | float]:
    """A step's first update, by the kept matrix where its bound is at most ``tol``.

    ``members`` are the members of ``kept`` whose rows ``y`` holds
    (``None``: all of them).  Each member whose kept update the extended
    bound does not certify (every member, while ``kept`` holds nothing)
    drops it and takes the :func:`_update` from the same iterate instead,
    and keeps that update's matrix.
    """
    if kept.matrix is None:
        return _update(linear, system, y, gauss, f, kept, members)
    matrix, at = kept.matrix, kept.at
    if members is not None:  # members left before the first update
        matrix, at = matrix.take(members), at[members]
    dy = matrix.solve(f)
    bound = _bound(linear.remainder_weight, y, dy, at)
    if y.ndim == 1:
        return (y - dy, bound) if bound <= tol else _update(linear, system, y, gauss, f, kept)
    fresh = ~(bound <= tol)
    if not np.count_nonzero(fresh):
        return y - dy, bound
    rows = np.flatnonzero(fresh)
    y_fresh, bound[rows] = _update(linear, system, y, gauss, f, kept,
                                   rows if members is None else members[rows], rows)
    y = y - dy
    y[rows] = y_fresh
    return y, bound


def _report(history: list[float], tol: float, gain: float, moment: float,
            certified: bool) -> StepReport:
    """The report of a step from its residual norms and the new state's ``w . y``."""
    return StepReport(newton_iterations=len(history) - 1, final_residual_norm=history[-1],
                      control_value=0.0 - gain * moment, converged=history[-1] <= tol,
                      residual_norms=tuple(history), certified=certified)


def newton_solve(linear: LinearPart, system: AssembledSystem, y_prev: np.ndarray,
                 tol: float = NEWTON_TOL, max_iter: int = NEWTON_MAX_ITER, *,
                 start: np.ndarray | None = None, prev_mass: np.ndarray | None = None,
                 kept: KeptMatrix | None = None) -> tuple[np.ndarray, StepReport | StackReport]:
    """Advance one backward Euler step from ``y_prev`` by Newton iteration.

    ``linear`` is the run's :class:`LinearPart`: the time step, the
    variant and the control are its own.  The iteration starts from
    ``start`` (``y_prev`` when not given); the residual's previous level is
    ``y_prev`` either way.  ``prev_mass`` is ``linear.mass.matvec(y_prev)``
    when the caller has it already (the march forms it once per level); it
    is formed here when not given, with the same bits, and divided by ``k``
    here either way.  It stops after an update whose cubic-remainder bound
    is at most ``tol`` (certified: no residual is evaluated at the new
    iterate), or else whose residual's Euclidean norm is at most ``tol``.
    ``kept`` is the run's :class:`KeptMatrix`, which the march keeps
    across its steps with the same linear part: the first update is then
    by its matrix where the extended bound certifies it, and each member it
    does not certify refreshes its rows of ``kept`` (see the module
    docstring).  An empty one is filled by the first update's matrix.
    Without it every update uses a Newton matrix at its own iterate.
    A step that exhausts ``max_iter`` returns its
    diagnostics with ``converged=False`` instead of raising; so does a step
    whose residual norm is not finite, which takes no further update (none
    at all when the start's is not).  Linear-solve failures propagate.
    Returns the new state and its :class:`StepReport`.  Neither ``y_prev``
    nor ``start`` is written, and the new state is a new array; ``kept``
    is the one argument written.

    With a linear part of B members, ``y_prev`` is a ``(B, N)`` stack, the B
    steps share each iteration's residual, Jacobian and stacked solve, and
    the result is the new stack and its :class:`StackReport`, whose entries
    are the B members' reports.  States whose
    leading shape does not match the linear part's members raise
    :class:`MeshError`.  A member leaves the iteration once it converges,
    so it takes exactly the iterates of its own step, and a stack of one
    equals the 1-D step bit for bit: after an update the certified members
    leave, and the residual of the others is evaluated after a ``take``.
    A member whose residual is not finite leaves before the next solve, so
    its NaN or inf never enters the stacked band (see
    :meth:`fem.TridiagMatrix.solve`) and the others step as they would
    alone.  A stacked ``start`` has one row per member.

    Both shapes evaluate and update the iterate the same way; they differ in
    the bookkeeping around it.  A 1-D state keeps one history of Python
    floats, which costs a lone run (the decay study's) less than the
    drop-outs a stack needs; a stack keeps its members' facts in ``(B,)``
    arrays and builds no :class:`StepReport` until one is read.
    """
    if not tol > 0.0 or max_iter < 1:
        raise ParameterDomainError("tol must be positive and max_iter >= 1")
    y = y_prev if start is None else start  # never written: each iterate is a new array
    _check_states(linear, system, y, y_prev)
    if kept is not None and kept.at is not None and kept.at.shape != y.shape:
        raise _members_error(linear, kept.at)
    if prev_mass is None:
        prev_mass = linear.mass.matvec(y_prev)
    prev, load = y_prev, prev_mass / linear.k
    gauss, f = _evaluate(linear, system, y, prev, load)
    if y.ndim == 1:
        history, certified = [math.sqrt(float(np.vecdot(f, f)))], False
        if not math.isfinite(history[0]):
            y = y.copy()  # no update, but still a new array
        else:
            for iteration in range(max_iter):
                if kept is None or iteration:
                    y, bound = _update(linear, system, y, gauss, f)
                else:
                    y, bound = _kept_update(linear, system, y, gauss, f, kept, None, tol)
                if bound <= tol:
                    history.append(bound)
                    certified = True
                    break
                gauss, f = _evaluate(linear, system, y, prev, load)
                history.append(math.sqrt(float(np.vecdot(f, f))))
                if not tol < history[-1] < math.inf:  # converged, or not finite
                    break
        return y, _report(history, tol, linear.gains[0], float(np.vecdot(y, system.moment)),
                          certified)

    norms = _residual_norms(f)
    n_members, gain = norms.size, linear.gain
    history = [norms]
    active = np.arange(n_members)  # members still iterating
    keep = np.isfinite(norms)  # members that update next
    result = None
    # each update is one phase (odd) and the residual of the members it does
    # not certify the next (even); phase 0 is the start's residual
    for phase in range(2 * max_iter + 1):
        iteration, bounded = (phase + 1) // 2, phase % 2 == 1
        if bounded:
            if kept is None or phase > 1:
                y, norms = _update(linear, system, y, gauss, f)
            else:  # the step's first update
                y, norms = _kept_update(linear, system, y, gauss, f, kept,
                                        None if active.size == n_members else active, tol)
            history.append(np.empty(n_members))
            keep = ~(norms <= tol)  # not certified: its residual is evaluated
        elif phase:
            gauss, f = _evaluate(linear, system, y, prev, load)
            norms = _residual_norms(f)
            keep = (tol < norms) & (norms < math.inf)  # not converged, and finite
        if phase:
            history[-1][active] = norms
        last = phase == 2 * max_iter
        n_keep = np.count_nonzero(keep)  # the cheapest of numpy's tests on a (B,) mask
        if n_keep == keep.size and not last:
            continue
        # members leave the iteration: store their states and last norms
        if result is None:  # every member is still here; a start is copied
            result = y if phase else y.copy()
            final, iterations = norms.copy(), np.full(n_members, iteration)
            certified = np.full(n_members, bounded)
        else:
            result[active], final[active], iterations[active] = y, norms, iteration
            certified[active] = bounded
        if last or not n_keep:
            break
        rows = np.flatnonzero(keep)
        active = active[rows]
        y, prev, load = y[rows], prev[rows], load[rows]
        if not bounded:  # after an update, the residual is evaluated from the new iterate
            gauss, f = gauss[:, rows], f[rows]
        linear = linear.take(rows)
    return result, StackReport(iterations, final, 0.0 - gain * np.vecdot(result, system.moment),
                               final <= tol, history, certified)


@dataclass(eq=False)
class EnsembleLevel:
    """One time level of the runs stepped by :func:`step_ensemble`.

    ``members`` lists, ascending, the runs whose steps have all converged up
    to this level, and ``states`` holds their states row by row (a lone run
    is run 0, with a 1-D state).  ``attempted`` lists the runs that
    attempted this level's step, failed ones included, and ``step`` holds
    their :class:`StackReport` or a lone run's :class:`StepReport` (at level
    0, the initial reports); ``reports`` maps each to its
    :class:`StepReport`, built on first read.  ``mass_states`` is the mass
    product ``M y`` of every row of ``states``, formed once per level: the
    next step's previous load and the ``mass_y`` of :func:`fem.norms`.  A
    level with no members holds ``None``.
    """

    index: int
    members: np.ndarray
    states: np.ndarray
    attempted: np.ndarray
    step: StackReport | StepReport
    mass_states: np.ndarray | None

    @cached_property
    def reports(self) -> dict[int, StepReport]:
        step = self.step
        return dict(zip(self.attempted.tolist(), [step] if isinstance(step, StepReport) else step))


def _march(linear: LinearPart, system: AssembledSystem, states: np.ndarray,
           initial: StackReport | StepReport, time_grid: TimeGrid,
           settings: tuple[float, int]) -> Iterator[EnsembleLevel]:
    """Yield the levels of the runs of ``linear`` stepped from ``states``.

    ``states`` is a stack or a lone 1-D state.  Each step is one
    :func:`newton_solve` of the members still stepping, started from ``None``
    at the first step, from the linear extrapolation ``2 y_1 - y_0`` at the
    second, and then from the quadratic extrapolation ``3 (y_n - y_{n-1}) +
    y_{n-2}`` of each member's own last three levels, whose error is
    ``O(k^3)``.  Every step is handed the run's one :class:`KeptMatrix`.
    A member whose step fails is dropped with its state, its earlier levels
    and its kept rows, and the linear part of the others is taken once per
    drop-out; the march ends when none is left.  Each level's mass
    product is formed once, after any drop-out, and handed to the next step.
    """
    lone = states.ndim == 1
    members = np.arange(1 if lone else states.shape[0])
    mass = linear.mass.matvec(states)
    yield EnsembleLevel(0, members, states, members, initial, mass)
    previous = older = None
    kept = KeptMatrix()
    for n in range(1, time_grid.n_steps + 1):
        if previous is None:
            start = None
        elif older is None:
            start = 2.0 * states - previous
        else:
            start = 3.0 * (states - previous) + older
        older, previous, attempted = previous, states, members
        states, step = newton_solve(linear, system, states, *settings, start=start,
                                    prev_mass=mass, kept=kept)
        if lone and not step.converged:
            members, states = members[:0], states[:0]
        elif not lone and not step.converged.all():
            rows = np.flatnonzero(step.converged)
            members, states, previous = members[rows], states[rows], previous[rows]
            if older is not None:
                older = older[rows]
            linear = linear.take(rows)
            kept.restrict(rows)
        mass = linear.mass.matvec(states) if members.size else None
        yield EnsembleLevel(n, members, states, attempted, step, mass)
        if not members.size:
            return


def step_ensemble(params: ModelParams | Sequence[ModelParams], system: AssembledSystem,
                  y0: np.ndarray, time_grid: TimeGrid, *, newton_tol: float = NEWTON_TOL,
                  newton_max_iter: int = NEWTON_MAX_ITER) -> Iterator[EnsembleLevel]:
    """Step a run, or runs that share a mesh, a time grid and ``y0`` together.

    One :class:`ModelParams` is a lone run, stepped as a 1-D state, and a
    sequence a ``(B, N)`` stack (the dispatch of :meth:`LinearPart.of`); both
    take one march, one :class:`EnsembleLevel` per time level, initial level
    first, and no level aliases ``y0``.  Each run of a stack takes exactly
    the iterates it would take alone, so it equals its lone run in value; an
    exact zero may carry the other sign, as the stacked elimination can
    turn a block's ``-0.0`` into ``+0.0`` (see :meth:`fem.TridiagMatrix.solve`).
    A run whose step does not converge is dropped at that level and the
    others keep stepping; linear-solve failures propagate.  The second
    Newton solve starts from ``2 y_1 - y_0`` and each later one from the
    quadratic extrapolation ``3 (y_n - y_{n-1}) + y_{n-2}``, whose error is
    ``O(k^3)``, so the last three levels are held, and memory does not grow
    with the number of steps.  Each run keeps its Newton matrix across its
    steps and refreshes it where the extended remainder bound does not
    certify an update by it (see the module docstring).  A member with
    ``epsilon = 0`` solves the
    Dirichlet feedback problem, so one stack may mix it with penalized
    members; every member's feedback acts on its new state.  Each penalized
    run that violates the stabilization conditions triggers a warning, which
    points at the caller's line.
    """
    _warn_inadmissible(params)
    return _levels(params, system, y0, time_grid, (newton_tol, newton_max_iter))


def _warn_inadmissible(params: ModelParams | Sequence[ModelParams]) -> None:
    """Warn for each penalized run that violates the stabilization conditions.

    The warning points at the line that called this function's caller, the
    public entry point, so the default filter shows it once per such line.
    """
    for member in [params] if isinstance(params, ModelParams) else params:
        admissible, detail = check_admissibility(member)
        if not admissible and member.epsilon > 0.0:
            warnings.warn("stabilization conditions violated; decay is not certified "
                          f"({detail})", RuntimeWarning, stacklevel=3)


def _levels(params: ModelParams | Sequence[ModelParams], system: AssembledSystem,
            y0: np.ndarray, time_grid: TimeGrid, settings: tuple[float, int]
            ) -> Iterator[EnsembleLevel]:
    """The march of :func:`step_ensemble`, which warns before it."""
    stacked = not isinstance(params, ModelParams)
    members = params if stacked else [params]
    n, moment_y0 = len(members), float(np.vecdot(y0, system.moment))
    initial = StackReport(np.zeros(n, dtype=int), np.zeros(n),
                          0.0 - np.array([p.r for p in members], dtype=float) * moment_y0,
                          np.ones(n, dtype=bool), [np.zeros(n)], np.zeros(n, dtype=bool))
    linear = LinearPart.of(params, system, time_grid.k)
    states = np.repeat(y0[None], n, axis=0) if stacked else y0.copy()
    return _march(linear, system, states, initial if stacked else initial[0], time_grid,
                  settings)


def simulate(params: ModelParams, mesh: MeshPartition,
             y0: Callable[[np.ndarray], np.ndarray], time_grid: TimeGrid,
             variant: str = "penalized_feedback", *, newton_tol: float = NEWTON_TOL,
             newton_max_iter: int = NEWTON_MAX_ITER) -> StateTrajectory:
    """Run the fully discrete scheme over ``time_grid`` and record every level.

    The run starts from the L2 projection of the profile ``y0``
    (:func:`fem.project_initial`).  ``variant="penalized_feedback"`` steps
    ``params`` as they are: the penalized scheme with the feedback control,
    or at ``epsilon = 0`` the Dirichlet feedback problem (the ``eps -> 0``
    limit).
    ``variant="uncontrolled_dirichlet"`` pins both endpoints to zero and
    drops every penalty and control term, as the Dirichlet feedback problem
    at ``r = 0`` from the initial state with its boundary value set to zero
    (its controls are ``+0.0``).  The run is the lone :func:`step_ensemble`
    march, so it equals it bit for bit.  Every recorded level keeps its
    state, its control and the ``l2`` and ``linf`` of one
    :func:`fem.norms` call, which takes the level's mass product from the
    march.  Penalized parameters that violate the stabilization conditions
    trigger a warning at the caller's line, not an error; some study
    regimes violate them deliberately.
    """
    if variant not in VARIANTS:
        raise ParameterDomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    system = assemble(mesh)
    y = project_initial(mesh, y0)
    if variant == "uncontrolled_dirichlet":
        # the Dirichlet feedback problem at zero gain, from a pinned start
        params = replace(params, epsilon=0.0, r=0.0)
        y[system.boundary_dof] = 0.0

    states = np.zeros((time_grid.n_steps + 1, system.n_dof))
    reports, controls, l2, linf = [], [], [], []
    failed_at = None
    _warn_inadmissible(params)
    for level in _levels(params, system, y, time_grid, (newton_tol, newton_max_iter)):
        reports.append(level.step)
        if not level.members.size:
            failed_at = level.index
            break
        states[level.index] = level.states
        controls.append(level.step.control_value)
        level_l2, level_linf = norms(system, level.states, mass_y=level.mass_states)
        l2.append(level_l2)
        linf.append(level_linf)

    recorded = len(controls)
    return StateTrajectory(variant=variant, times=time_grid.times()[:recorded],
                           states=states[:recorded], controls=np.array(controls),
                           l2=np.array(l2), linf=np.array(linf), step_reports=reports,
                           failed_at=failed_at)

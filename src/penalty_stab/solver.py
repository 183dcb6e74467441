"""Fully discrete scheme: backward Euler in time, Newton per step.

Each step of the penalized feedback scheme solves the nonlinear system

    M (Y - Y_prev)/k + nu K Y + (nu/eps) Y(1) e_b + delta C(Y)
        - alpha M Y + (nu r / eps) (w . Y) e_b = 0

where ``C`` is the cubic load vector, ``w`` the control moment vector, and
``e_b`` selects the boundary DOF.  The residual evaluates it as

    nu K Y + R(Y) - M Y_prev / k + (nu/eps) (Y(1) + r (w . Y)) e_b,

with the reaction load ``R(Y) = integral(((1/k - alpha) Y + delta Y^3)
phi_i)`` taken by the element Gauss rule, which is exact for it, in one pass
over the Gauss values of ``Y``.  ``nu K Y`` stays an exact tridiagonal
product: its entries of size ``nu/h`` set the residual's round-off floor,
and folding ``K`` into one operator with ``M`` raises that floor.  A Newton
step forms ``M Y_prev / k`` once, and each iterate's Gauss values serve both
its residual and its Jacobian.  The control is treated implicitly (the
feedback functional is evaluated at the unknown state), which adds a rank-one
row to the otherwise tridiagonal Newton matrix; the linear solves exploit
that structure via a tridiagonal elimination plus a Sherman-Morrison
correction.  The Robin penalty itself is folded into the last diagonal entry
of the tridiagonal core, so the banded solve is unmodified.

Newton starts each step after the first from the linear extrapolation
``2 Y_n - Y_{n-1}`` of the last two levels (the first starts from ``Y_0``),
a predictor whose error is ``O(k^2)``, so one update usually converges.  It
stops on the Euclidean residual norm with the penalized boundary entry
divided by ``nu/eps``: that entry's round-off grows like ``1/eps``, and an
absolute tolerance on it could not be met at small eps.

Only ``delta C'(Y)`` in the Newton matrix depends on the state.  The rest,
``(1/k - alpha) M + nu K``, the boundary penalty (or the hard-constraint
row) and the rank-one feedback row, is a :class:`LinearPart` built once per
run (once per stack of runs, restricted with ``take`` when members leave)
and reused by every Newton iteration of every step; each iteration then adds
``delta C'(Y)`` in the same order of operations as a from-scratch build, so
the iterates do not change.

The Dirichlet feedback variant imposes ``Y(1) = -r (w . Y)`` exactly: it is
the penalized boundary row multiplied by ``eps/nu`` and taken at ``eps = 0``,
the limit the penalized solutions converge to.  Its boundary residual row is
``Y(1) + r (w . Y)``; the Newton core gets the boundary row ``e_b`` (so it is
no longer symmetric) and the rank-one row becomes ``r e_b w^T``.  Epsilon is
ignored.  At ``r = 0`` it is the pinned problem, and the uncontrolled
baseline is exactly that: the Dirichlet feedback problem at zero gain,
started from the initial state with its boundary value set to zero.  Every
variant therefore steps through the one Newton loop, :func:`newton_solve`.

A single simulation is strictly sequential in time.  Runs that share a mesh
and a time grid are stepped together instead (:func:`step_ensemble`): their
states form a ``(B, N)`` stack, each Newton iteration evaluates one stacked
residual and Jacobian, and one banded elimination solves all B cores, whose
couplings in the stacked band are exactly zero.  The Sherman-Morrison
correction is applied per member, each member leaves the iteration at its
own convergence and extrapolates from its own levels, so every run equals
its separate run bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
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
    gauss_values,
    norms,
    project_initial,
    reaction_load,
)
from .params import ModelParams, check_admissibility

VARIANTS = ("penalized_feedback", "dirichlet_feedback", "uncontrolled_dirichlet")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with step ``k`` and ``n_steps`` steps."""

    k: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.k > 0.0):
            raise ParameterDomainError(f"time step must be positive, got {self.k!r}")
        if self.n_steps < 1:
            raise ParameterDomainError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def T(self) -> float:
        return self.k * self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.k

    @classmethod
    def from_final_time(cls, k: float, T: float) -> "TimeGrid":
        """Grid with step ``k`` reaching ``T``; ``k`` must divide ``T``."""
        if not (k > 0.0 and T > 0.0):
            raise ParameterDomainError("k and T must be positive")
        if not math.isfinite(T / k):
            raise ParameterDomainError(f"time step {k!r} is too small for the final time {T!r}")
        n = round(T / k)
        if n < 1 or abs(n * k - T) > 1e-9 * max(1.0, T):
            raise ParameterDomainError(f"time step {k!r} does not divide the final time {T!r}")
        return cls(k=k, n_steps=n)


@dataclass(frozen=True)
class StepReport:
    """Newton diagnostics for one time step.

    ``newton_iterations`` counts linearized solves; convergence is checked on
    the post-update residual, so even an already-converged start performs one
    update.  ``residual_norms`` holds the residual norm at the start and after
    each update; it is Euclidean but for the penalized boundary entry, which
    is divided by ``nu/eps`` (see :func:`newton_solve`).
    """

    newton_iterations: int
    final_residual_norm: float
    control_value: float
    converged: bool
    residual_norms: tuple[float, ...]


@dataclass(eq=False)
class StateTrajectory:
    """Time series produced by :func:`simulate`.

    All arrays have one row/entry per recorded time level, including the
    initial state.  ``controls[n]`` always equals
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
    l4: np.ndarray
    h1_semi: np.ndarray
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


@dataclass(frozen=True, eq=False)
class ParamStack:
    """Coefficients of B runs, each a ``(B, 1)`` column.

    The columns broadcast against ``(B, N)`` state stacks, so the scheme's
    formulas read the same for a stack as for one :class:`ModelParams` and
    one state.
    """

    nu: np.ndarray
    alpha: np.ndarray
    delta: np.ndarray
    r: np.ndarray
    epsilon: np.ndarray

    @classmethod
    def of(cls, members: Sequence[ModelParams]) -> "ParamStack":
        return cls(**{f.name: np.array([[getattr(p, f.name)] for p in members])
                      for f in fields(cls)})

    def take(self, index: np.ndarray) -> "ParamStack":
        return ParamStack(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def _check_states(system: AssembledSystem, y: np.ndarray, y_prev: np.ndarray) -> None:
    if y.shape[-1:] != (system.n_dof,) or y_prev.shape != y.shape:
        raise MeshError("state vectors do not match the assembled system")


def residual(params: ModelParams | ParamStack, system: AssembledSystem, y: np.ndarray,
             y_prev: np.ndarray, k: float,
             control_state: np.ndarray | None = None,
             hard_constraint: bool = False, *, linear: LinearPart | None = None,
             prev_load: np.ndarray | None = None, gauss: np.ndarray | None = None
             ) -> np.ndarray:
    """Residual of one backward Euler step of the penalized feedback scheme.

    The interior rows are ``nu K y + R(y) - M y_prev / k`` with the reaction
    load ``R(y) = integral(((1/k - alpha) y + delta y^3) phi_i)``, which
    :func:`fem.reaction_load` integrates by the exact Gauss rule in one pass;
    ``nu K y`` stays an exact tridiagonal product.  ``control_state``
    selects the state the feedback functional acts on; the default
    (``None``) is the implicit choice ``y`` itself.  With a
    :class:`ParamStack` the states are ``(B, N)`` stacks and each row gets
    its own residual.  ``hard_constraint=True`` replaces the boundary row by
    the feedback condition ``y(1) + r (w . y)`` itself (the Dirichlet
    feedback problem, ``eps -> 0``); epsilon is then not read.

    The keywords carry pieces a Newton step computes once: ``linear``, the
    :class:`LinearPart` of ``params`` at the same ``k`` and
    ``hard_constraint``; ``prev_load``, the previous level's load
    ``M y_prev / k``; and ``gauss``, ``fem.gauss_values(y)``.  Each one not
    given is built here, with the same bits.
    """
    _check_states(system, y, y_prev)
    if k <= 0.0:
        raise ParameterDomainError(f"time step must be positive, got {k!r}")
    if linear is None:
        linear = LinearPart.of(params, system, k, implicit_control=False,
                               hard_constraint=hard_constraint)
    if prev_load is None:
        prev_load = system.mass.matvec(y_prev) / k
    if gauss is None:
        gauss = gauss_values(y)
    f = reaction_load(system.mesh, gauss, linear.weight, params.delta)
    f -= prev_load
    f += params.nu * system.stiffness.matvec(y)
    yc = y if control_state is None else control_state
    b = slice(system.boundary_dof, system.boundary_dof + 1)
    constraint = y[..., b] + params.r * np.vecdot(yc, system.moment)[..., None]
    if linear.hard_constraint:
        f[..., b] = constraint
    else:
        # Penalty and feedback combined before the 1/eps amplification keeps
        # the boundary equation accurate at very small eps.
        f[..., b] += linear.penalty * constraint
    return f


@dataclass(frozen=True, eq=False)
class LinearPart:
    """State-independent part of the Newton matrix of :func:`residual`.

    Every Newton matrix of a run shares the tridiagonal ``(1/k - alpha) M +
    nu K`` (``diag``, ``off``), the boundary row and the rank-one feedback
    row; only ``delta C'(y)`` changes with the state.  ``weight`` is the
    ``1/k - alpha`` that :func:`residual` integrates with the cubic term.
    ``penalty`` is the ``nu/eps`` that :func:`jacobian` adds to the boundary
    diagonal after ``delta C'(y)``, and ``None`` with ``hard_constraint``,
    where the core's boundary row is ``e_b``.  ``rank_one`` is ``None`` when
    every gain is 0 or the control is lagged.  Built from a
    :class:`ParamStack`, every field has one row per member.
    """

    weight: np.ndarray | float
    diag: np.ndarray
    off: np.ndarray
    penalty: np.ndarray | float | None
    rank_one: RankOneUpdate | None

    @classmethod
    def of(cls, params: ModelParams | ParamStack, system: AssembledSystem, k: float,
           implicit_control: bool = True, hard_constraint: bool = False) -> "LinearPart":
        weight = 1.0 / k - params.alpha
        diag = weight * system.mass.diag + params.nu * system.stiffness.diag
        off = weight * system.mass.lower + params.nu * system.stiffness.lower
        if hard_constraint:
            penalty, coupling = None, params.r
        else:
            penalty = params.nu / params.epsilon
            coupling = params.nu * params.r / params.epsilon
        rank_one = None
        if implicit_control and np.count_nonzero(params.r):
            u = np.zeros(diag.shape)
            u[..., system.boundary_dof] = 1.0
            rank_one = RankOneUpdate(u=u, v=coupling * system.moment)
        return cls(weight=weight, diag=diag, off=off, penalty=penalty, rank_one=rank_one)

    @property
    def hard_constraint(self) -> bool:
        return self.penalty is None

    def take(self, index: np.ndarray) -> "LinearPart":
        """The linear part of the members ``index`` of a stack."""
        rank_one = self.rank_one
        if rank_one is not None:
            rank_one = RankOneUpdate(u=rank_one.u[index], v=rank_one.v[index])
        penalty = None if self.hard_constraint else self.penalty[index]
        return LinearPart(weight=self.weight[index], diag=self.diag[index],
                          off=self.off[index], penalty=penalty, rank_one=rank_one)


def jacobian(params: ModelParams | ParamStack, system: AssembledSystem, y: np.ndarray,
             k: float, implicit_control: bool = True, hard_constraint: bool = False,
             *, linear: LinearPart | None = None, gauss: np.ndarray | None = None
             ) -> tuple[TridiagMatrix, RankOneUpdate | None]:
    """Newton matrix of :func:`residual`, split into tridiagonal + rank-one.

    The tridiagonal core is ``M/k + nu K - alpha M + delta C'(y)`` with the
    penalty ``nu/eps`` folded into the boundary diagonal entry.  The implicit
    feedback contributes the dense boundary row ``(nu r / eps) e_b w^T``,
    returned separately (``None`` when every gain is 0 or the control is
    lagged).  A ``(B, N)`` stack of states gives stacks of both parts.  With
    ``hard_constraint=True`` the core's boundary row is ``e_b`` and the
    rank-one row ``r e_b w^T``.

    ``linear`` is the run's :class:`LinearPart`, built from the same
    ``params``, ``k``, ``implicit_control`` and ``hard_constraint``; without
    it the call builds its own.  Only ``delta C'(y)`` is computed here, and
    the returned rank-one part is the linear part's own.  ``gauss`` is
    ``fem.gauss_values(y)`` when the caller has it already.
    """
    if linear is None:
        linear = LinearPart.of(params, system, k, implicit_control, hard_constraint)
    jc = cubic_jacobian(system.mesh, y, gauss=gauss)
    diag = params.delta * jc.diag
    diag += linear.diag
    off = params.delta * jc.lower
    off += linear.off
    b = system.boundary_dof
    if linear.hard_constraint:
        diag[..., b] = 1.0
        lower = off.copy()
        lower[..., b - 1] = 0.0
        return TridiagMatrix(diag=diag, lower=lower, upper=off), linear.rank_one
    diag[..., b:b + 1] += linear.penalty
    return TridiagMatrix.symmetric(diag, off), linear.rank_one


def solve_structured(core: TridiagMatrix, rank_one: RankOneUpdate | None,
                     rhs: np.ndarray) -> np.ndarray:
    """Solve ``(core + outer(u, v)) x = rhs`` exploiting the structure.

    One banded elimination handles both right-hand sides (``rhs`` and ``u``);
    the rank-one part is then removed by the Sherman-Morrison correction.
    For a stack of systems (``rhs`` of shape ``(B, N)``) all cores go through
    one stacked elimination and each row gets its own correction.

    Raises
    ------
    SingularCoreError
        Zero pivot in the tridiagonal elimination.
    SingularUpdateError
        The correction denominator ``1 + v . core^{-1} u`` vanishes.
    """
    if rank_one is None:
        return core.solve(rhs)
    both = np.empty(rhs.shape + (2,))
    both[..., 0] = rhs
    both[..., 1] = rank_one.u
    both = core.solve(both)
    x_rhs, x_u = both[..., 0], both[..., 1]
    v_xu = np.vecdot(rank_one.v, x_u)
    denom = 1.0 + v_xu
    singular = np.abs(denom) <= 1e-12 * np.maximum(1.0, np.abs(v_xu))
    if singular.any():
        raise SingularUpdateError(
            f"rank-one update is singular: 1 + v.core^-1.u = "
            f"{np.ravel(denom)[np.argmax(singular)]:.3e}"
        )
    return x_rhs - x_u * (np.vecdot(rank_one.v, x_rhs) / denom)[..., None]


def _residual_norms(f: np.ndarray, linear: LinearPart, b: int) -> list[float]:
    """Newton's convergence norm of each residual row in ``f``.

    The penalized boundary entry carries the factor ``nu/eps`` (``linear.
    penalty``), so its round-off grows like ``1/eps`` and can sit above any
    absolute tolerance at small eps.  The norm divides that entry by the
    factor, which tests the un-amplified boundary equation; the
    hard-constrained row is taken as it is.
    """
    if not linear.hard_constraint:
        f = f.copy()
        f[..., b:b + 1] /= linear.penalty
    return np.sqrt(np.vecdot(f, f)).reshape(-1).tolist()


def newton_solve(params: ModelParams | ParamStack, system: AssembledSystem,
                 y_prev: np.ndarray, k: float, tol: float = 1e-12, max_iter: int = 25,
                 implicit_control: bool = True, hard_constraint: bool = False,
                 *, linear: LinearPart | None = None, start: np.ndarray | None = None
                 ) -> tuple[np.ndarray, StepReport | tuple[StepReport, ...]]:
    """Advance one backward Euler step from ``y_prev`` by Newton iteration.

    The iteration starts from ``start`` (``y_prev`` when not given); the
    residual's previous level is ``y_prev`` either way.  It stops when the
    norm of the residual drops to ``tol``, the Euclidean norm with the
    penalized boundary entry divided by its amplification ``nu/eps`` (see
    :func:`_residual_norms`).  A step that exhausts ``max_iter`` returns its
    diagnostics with ``converged=False`` instead of raising; linear-solve
    failures propagate.  Returns the new state and its :class:`StepReport`.

    With a ``(B, N)`` stack ``y_prev`` the B steps share each iteration's
    residual, Jacobian and stacked solve, and the result is the new stack and
    a tuple of B reports.  ``params`` is then a :class:`ParamStack`, or one
    :class:`ModelParams` shared by every member.  A member leaves the
    iteration once it converges, so it takes exactly the iterates of its
    own step.  ``hard_constraint`` selects the Dirichlet feedback problem
    (see :func:`residual`).  ``linear`` is the :class:`LinearPart` of
    ``params`` at the same settings, built here when not given.  A stacked
    ``start`` has one row per member.
    """
    if tol <= 0.0 or max_iter < 1:
        raise ParameterDomainError("tol must be positive and max_iter >= 1")
    if linear is None:
        linear = LinearPart.of(params, system, k, implicit_control, hard_constraint)
    y = (y_prev if start is None else start).copy()
    _check_states(system, y, y_prev)
    p, y_a, prev_a = params, y, y_prev
    load_a = system.mass.matvec(y_prev) / k
    control_a = None if implicit_control else y_prev
    gauss = gauss_values(y_a)
    f = residual(p, system, y_a, prev_a, k, control_state=control_a,
                 hard_constraint=hard_constraint, linear=linear, prev_load=load_a, gauss=gauss)
    b = system.boundary_dof
    histories = [[norm] for norm in _residual_norms(f, linear, b)]
    active = list(range(len(histories)))  # members still iterating
    for iteration in range(max_iter):
        core, rank_one = jacobian(p, system, y_a, k, implicit_control=implicit_control,
                                  hard_constraint=hard_constraint, linear=linear, gauss=gauss)
        y_a = y_a - solve_structured(core, rank_one, f)
        gauss = gauss_values(y_a)
        f = residual(p, system, y_a, prev_a, k, control_state=control_a,
                     hard_constraint=hard_constraint, linear=linear, prev_load=load_a,
                     gauss=gauss)
        keep = []
        for member, norm in zip(active, _residual_norms(f, linear, b)):
            histories[member].append(norm)
            keep.append(not norm <= tol)  # a NaN residual keeps iterating, as alone
        last = iteration == max_iter - 1
        if all(keep) and not last:
            continue
        # members leave the iteration: store their states
        if len(active) == len(histories):
            y = y_a
        else:
            y[active] = y_a
        if last or not any(keep):
            break
        rows = np.flatnonzero(keep)
        active = [active[j] for j in rows]
        y_a, prev_a, load_a, gauss, f = (y_a[rows], prev_a[rows], load_a[rows], gauss[:, rows],
                                         f[rows])
        if isinstance(p, ParamStack):
            p, linear = p.take(rows), linear.take(rows)
        if control_a is not None:
            control_a = control_a[rows]
    controls = 0.0 - np.ravel(params.r) * np.vecdot(y, system.moment)
    reports = tuple(
        StepReport(newton_iterations=len(history) - 1, final_residual_norm=history[-1],
                   control_value=control, converged=history[-1] <= tol,
                   residual_norms=tuple(history))
        for history, control in zip(histories, controls.tolist())
    )
    return (y, reports[0]) if y.ndim == 1 else (y, reports)


@dataclass(frozen=True, eq=False)
class EnsembleLevel:
    """One time level of the runs stepped by :func:`step_ensemble`.

    ``members`` lists, ascending, the runs whose steps have all converged up
    to this level, and ``states`` holds their states row by row.
    ``reports`` maps every run that attempted this level's step to its
    :class:`StepReport`, failed ones included; at level 0 it holds the
    initial reports.
    """

    index: int
    members: np.ndarray
    states: np.ndarray
    reports: dict[int, StepReport]


def _march(step: Callable[[np.ndarray, np.ndarray, np.ndarray | None],
                           tuple[np.ndarray, Sequence[StepReport]]],
           states: np.ndarray, initial: Sequence[StepReport],
           n_steps: int) -> Iterator[EnsembleLevel]:
    """Yield the levels of ``n_steps`` steps of ``step(members, states, start)``.

    ``start`` is the Newton start of each member: ``None`` at the first
    step, then the linear extrapolation ``2 y_n - y_{n-1}`` of the member's
    own last two levels.  A member whose step fails is dropped; the march
    ends when none is left.
    """
    members = np.arange(states.shape[0])
    yield EnsembleLevel(0, members, states, dict(enumerate(initial)))
    previous = None
    for n in range(1, n_steps + 1):
        start = None if previous is None else 2.0 * states - previous
        previous = states
        states, reports = step(members, states, start)
        attempted = dict(zip(members.tolist(), reports))
        ok = [report.converged for report in reports]
        if not all(ok):
            rows = np.flatnonzero(ok)
            members, states, previous = members[rows], states[rows], previous[rows]
        yield EnsembleLevel(n, members, states, attempted)
        if not members.size:
            return


def step_ensemble(members: Sequence[ModelParams], system: AssembledSystem,
                  y0: np.ndarray, time_grid: TimeGrid, *, newton_tol: float = 1e-12,
                  newton_max_iter: int = 25, implicit_control: bool = True,
                  hard_constraint: bool = False) -> Iterator[EnsembleLevel]:
    """Step penalized runs that share a mesh, a time grid and ``y0`` together.

    The runs advance as one ``(B, N)`` stack through :func:`newton_solve`,
    one :class:`EnsembleLevel` per time level, initial level first.  Each
    run takes exactly the iterates it would take alone.  A run whose step
    does not converge is dropped at that level and the others keep
    stepping; linear-solve failures propagate.  Each Newton solve after the
    first starts from the extrapolation ``2 y_n - y_{n-1}``, so the last two
    levels are held, and memory does not grow with the number of steps.
    Each run that violates the stabilization conditions triggers a warning.
    With ``hard_constraint=True`` the runs solve the Dirichlet feedback
    problem, which has no epsilon and so no such conditions to check.
    """
    for params in members:
        admissible, detail = check_admissibility(params)
        if not (admissible or hard_constraint):
            warnings.warn("stabilization conditions violated; decay is not certified "
                          f"({detail})", RuntimeWarning, stacklevel=2)
    moment_y0 = float(np.vecdot(y0, system.moment))
    initial = [StepReport(newton_iterations=0, final_residual_norm=0.0,
                          control_value=0.0 - params.r * moment_y0, converged=True,
                          residual_norms=(0.0,))
               for params in members]
    options = dict(tol=newton_tol, max_iter=newton_max_iter, implicit_control=implicit_control,
                   hard_constraint=hard_constraint)
    k = time_grid.k
    if len(members) == 1:
        # a lone run steps as a 1-D state, which costs numpy less per call
        linear = LinearPart.of(members[0], system, k, implicit_control, hard_constraint)

        def step(_alive: np.ndarray, y_prev: np.ndarray, start: np.ndarray | None):
            y, report = newton_solve(members[0], system, y_prev[0], k, linear=linear,
                                     start=None if start is None else start[0], **options)
            return y[None], (report,)
    else:
        stack = ParamStack.of(members)
        stack_linear = LinearPart.of(stack, system, k, implicit_control, hard_constraint)

        def step(alive: np.ndarray, y_prev: np.ndarray, start: np.ndarray | None):
            if alive.size == len(members):
                params, linear = stack, stack_linear
            else:
                params, linear = stack.take(alive), stack_linear.take(alive)
            return newton_solve(params, system, y_prev, k, linear=linear, start=start,
                                **options)

    return _march(step, np.repeat(y0[None], len(members), axis=0), initial,
                  time_grid.n_steps)


def simulate(params: ModelParams, mesh: MeshPartition,
             y0: Callable[[np.ndarray], np.ndarray], time_grid: TimeGrid,
             variant: str = "penalized_feedback", *, projection: str = "l2",
             newton_tol: float = 1e-12, newton_max_iter: int = 25,
             implicit_control: bool = True) -> StateTrajectory:
    """Run the fully discrete scheme over ``time_grid``.

    ``variant="penalized_feedback"`` steps the penalized scheme with the
    feedback control, as the one-run case of :func:`step_ensemble`;
    ``variant="dirichlet_feedback"`` steps the same way but imposes the
    feedback boundary condition exactly (the ``eps -> 0`` limit; epsilon is
    ignored); ``variant="uncontrolled_dirichlet"`` pins both endpoints to
    zero and drops every penalty and control term, as the Dirichlet feedback
    variant at ``r = 0`` from the initial state with its boundary value set
    to zero (its controls are ``+0.0``).  Penalized parameters that
    violate the stabilization conditions trigger a warning, not an error;
    some study regimes violate them deliberately.
    """
    if variant not in VARIANTS:
        raise ParameterDomainError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    system = assemble(mesh)
    y = project_initial(mesh, y0, mode=projection)
    if variant == "uncontrolled_dirichlet":
        # the Dirichlet feedback problem at zero gain, from a pinned start
        params = replace(params, r=0.0)
        y[system.boundary_dof] = 0.0
    levels = step_ensemble([params], system, y, time_grid, newton_tol=newton_tol,
                           newton_max_iter=newton_max_iter, implicit_control=implicit_control,
                           hard_constraint=variant != "penalized_feedback")

    n_levels = time_grid.n_steps + 1
    states = np.zeros((n_levels, system.n_dof))
    controls = np.zeros(n_levels)
    norm_arrays = {name: np.zeros(n_levels) for name in ("l2", "linf", "l4", "h1_semi")}
    reports: list[StepReport] = []
    failed_at = None
    for level in levels:
        report = level.reports[0]
        reports.append(report)
        if not level.members.size:
            failed_at = level.index
            break
        states[level.index] = level.states[0]
        controls[level.index] = report.control_value
        ns = norms(system, level.states[0])
        for name, values in norm_arrays.items():
            values[level.index] = getattr(ns, name)

    recorded = n_levels if failed_at is None else failed_at
    return StateTrajectory(
        variant=variant,
        times=time_grid.times()[:recorded],
        states=states[:recorded],
        controls=controls[:recorded],
        l2=norm_arrays["l2"][:recorded],
        linf=norm_arrays["linf"][:recorded],
        l4=norm_arrays["l4"][:recorded],
        h1_semi=norm_arrays["h1_semi"][:recorded],
        step_reports=reports,
        failed_at=failed_at,
    )

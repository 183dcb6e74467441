"""Post-processing: decay fits, energy monitors, and grid/penalty studies.

Pure functions over immutable trajectories; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AnalysisError, MeshError
from .fem import AssembledSystem, MeshPartition, TridiagMatrix, assemble, norms, project_initial
from .params import ModelParams
from .solver import NEWTON_MAX_ITER, NEWTON_TOL, StateTrajectory, TimeGrid, step_ensemble
from .solver import simulate  # noqa: F401  unused here; perfbench probes analysis.simulate

#: Norm samples below this multiple of machine epsilon times the initial norm
#: are dropped from decay fits (they are round-off noise, not dynamics).
_FIT_FLOOR_FACTOR = 100.0


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential rate fitted to the L2-norm history."""

    gamma_fit: float
    window: tuple[float, float]
    residual: float
    n_samples: int
    n_trimmed: int


def fit_decay_rate(trajectory: StateTrajectory,
                   window: tuple[float, float] | None = None) -> DecayFit:
    """Fit ``norm(t) ~ c * exp(-gamma_fit * t)`` over a time window.

    The fit is the least-squares slope of ``log(l2)`` against time; samples
    whose norm has decayed below 100 machine epsilons of the initial norm are
    trimmed first.  The default window skips the initial transient and spans
    ``[0.1 * t_end, t_end]``.

    Raises
    ------
    AnalysisError
        Fewer than 3 usable samples in the window.
    """
    t = trajectory.times
    norm = trajectory.l2
    if window is None:
        window = (0.1 * float(t[-1]), float(t[-1]))
    t0, t1 = window
    in_window = (t >= t0) & (t <= t1)
    floor = _FIT_FLOOR_FACTOR * np.finfo(float).eps * (norm[0] if norm.size else 0.0)
    usable = in_window & (norm > floor)
    n_trimmed = int(np.count_nonzero(in_window) - np.count_nonzero(usable))
    if np.count_nonzero(usable) < 3:
        raise AnalysisError(
            f"need at least 3 usable samples in window {window}, "
            f"got {int(np.count_nonzero(usable))} ({n_trimmed} trimmed by the norm floor)"
        )
    ts = t[usable]
    logs = np.log(norm[usable])
    slope, intercept = np.polyfit(ts, logs, 1)
    misfit = float(np.sum((slope * ts + intercept - logs) ** 2))
    return DecayFit(gamma_fit=float(-slope), window=(float(t0), float(t1)),
                    residual=misfit, n_samples=int(np.count_nonzero(usable)),
                    n_trimmed=n_trimmed)


@dataclass(frozen=True)
class MonitorResult:
    """Verdict of the discrete energy-decay inequality check."""

    passed: bool
    first_violation: int | None
    gamma: float


def energy_monitor(trajectory: StateTrajectory, gamma: float) -> MonitorResult:
    """Check ``l2[n]^2 <= exp(-2*gamma*t_n) * l2[0]^2`` for every level.

    A relative slack of 1e-12 absorbs round-off in the bound; the result
    reports the first violating level, if any.
    """
    if not gamma >= 0.0:  # NaN too, whose bound no trajectory could violate
        raise AnalysisError(f"gamma must be non-negative, got {gamma!r}")
    bound = np.exp(-2.0 * gamma * trajectory.times) * trajectory.l2[0] ** 2
    bad = trajectory.l2 ** 2 > bound * (1.0 + 1e-12)
    if not bad.any():
        return MonitorResult(passed=True, first_violation=None, gamma=gamma)
    return MonitorResult(passed=False, first_violation=int(np.argmax(bad)), gamma=gamma)


def restrict_to_coarse(fine_values: np.ndarray, fine_mesh: MeshPartition,
                       coarse_mesh: MeshPartition) -> np.ndarray:
    """Sample a fine-mesh state at the nodes of a nested coarse mesh.

    Requires the coarse nodes to be a subset of the fine nodes (for uniform
    meshes: the fine element count divisible by the coarse one).
    """
    if fine_values.shape != (fine_mesh.n_dof,):
        raise MeshError("fine state does not match the fine mesh")
    n_fine, n_coarse = fine_mesh.n_elements, coarse_mesh.n_elements
    if n_fine % n_coarse != 0:
        raise MeshError(f"meshes are not nested: {n_fine} elements vs {n_coarse}")
    ratio = n_fine // n_coarse
    if not np.allclose(fine_mesh.nodes[::ratio], coarse_mesh.nodes, atol=1e-12, rtol=0.0):
        raise MeshError("coarse nodes are not a subset of the fine nodes")
    return fine_values[ratio - 1 :: ratio].copy()


def error_vs_reference(coarse_values: np.ndarray, reference_fine_values: np.ndarray,
                       coarse_system: AssembledSystem,
                       fine_mesh: MeshPartition) -> tuple[float, float]:
    """L2 and max-nodal norms of (coarse solution - restricted reference)."""
    restricted = restrict_to_coarse(reference_fine_values, fine_mesh, coarse_system.mesh)
    return norms(coarse_system, coarse_values - restricted)


def observed_orders(errors: Sequence[float], hs: Sequence[float]) -> np.ndarray:
    """Observed convergence orders ``log2(e_{j-1} / e_j)`` between rows.

    ``hs`` must decrease by exact factors of 2.  Pairs containing a zero
    error yield ``nan`` (flagged, not an exception).
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.ndim != 1 or errors.size < 2:
        raise AnalysisError("errors and hs must be 1D sequences of equal length >= 2")
    ratios = hs[:-1] / hs[1:]
    if not np.allclose(ratios, 2.0, rtol=1e-9, atol=0.0):
        raise AnalysisError(f"mesh sizes must halve between rows, got ratios {ratios}")
    orders = np.full(errors.size - 1, np.nan)
    valid = (errors[:-1] > 0.0) & (errors[1:] > 0.0)
    orders[valid] = np.log2(errors[:-1][valid] / errors[1:][valid])
    return orders


@dataclass(frozen=True)
class EpsilonRow:
    """One penalty value of a continuation study.

    State norms are reported at final time, with sup-over-time companions;
    the control and all successive-difference columns are sup-over-time.
    Difference columns are None on the first row and NaN next to failed runs.
    """

    epsilon: float
    r: float
    state_l2: float
    state_linf: float
    state_l2_sup: float
    state_linf_sup: float
    control_linf: float
    diff_l2: float | None
    diff_linf: float | None
    control_diff_linf: float | None
    failed: bool = False


#: Bytes of states the epsilon study buffers before it reduces them in one pass.
#: Larger blocks cut no further per-call overhead, but they cost memory.
_FOLD_BLOCK_BYTES = 65536


def _fold_block_length(n_runs: int, n_dof: int) -> int:
    """Time levels per block of ``n_runs`` states of ``n_dof`` doubles each."""
    return max(1, _FOLD_BLOCK_BYTES // (8 * n_runs * n_dof))


def _rowwise_l2(mass: TridiagMatrix, states: np.ndarray) -> np.ndarray:
    """L2 norm of every state (last axis) of an array of states.

    ``mass`` is the mass matrix, or a stack of copies of it, one per state.
    The epsilon study's neighbour differences keep this ``np.einsum``
    reduction rather than :func:`fem.norms`' ``np.vecdot`` (BLAS ``ddot``),
    whose sums differ in the last digits: ``vecdot`` would move the shipped
    study's ``diff_l2`` from 0.0011066327487133465 to ...463 at ``eps =
    1e-4`` and from 6.0357794465364243e-06 to ...235e-06 at ``eps = 1e-9``,
    a declared change of that column.
    """
    return np.sqrt(np.maximum(np.einsum("...j,...j->...", states, mass.matvec(states)), 0.0))


def _neighbours(alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``j`` of the live runs ``alive`` whose next row holds the next run,
    and those runs' indices: the pairs whose differences a study folds."""
    pairs = np.flatnonzero(np.diff(alive) == 1)  # rows j, j + 1 hold runs i - 1, i
    return pairs, alive[pairs]


def epsilon_cauchy_study(params_base: ModelParams, mesh: MeshPartition,
                         time_grid: TimeGrid, epsilons: Sequence[float],
                         gain_rule: Callable[[float], float], *,
                         y0: Callable[[np.ndarray], np.ndarray],
                         newton_tol: float = NEWTON_TOL,
                         newton_max_iter: int = NEWTON_MAX_ITER) -> tuple[EpsilonRow, ...]:
    """Run the penalized scheme over a descending list of penalty values.

    Returns one :class:`EpsilonRow` per penalty value, in the list's order.
    All runs share the mesh and time grid, and all start from the L2
    projection of ``y0``, so successive solutions live on the identical
    space-time grid and their differences are plain norms of state
    differences.  The gain of each run is ``gain_rule(epsilon)``; a
    last epsilon of 0 is the Dirichlet feedback problem, the list's limit.
    A failed run marks its row and poisons the adjacent difference entries.

    The B runs are stepped together by :func:`step_ensemble` as one
    ``(B, N)`` stack.  Their levels are copied into an ``(L, B, N)`` block
    of about 64 KiB (``L = max(1, 65536 // (8 B N))``), and each full
    block is reduced in one pass and folded into the running maxima of the
    rows; a block is also flushed when a run drops out and after the last
    level.  Every reduction is per state, so the rows equal a level-by-level
    fold bit for bit, and memory does not grow with the number of levels.
    The state L2 norms take each level's mass product from the march
    (:attr:`EnsembleLevel.mass_states`), buffered beside its states; the
    differences' products run along a block's flat rows, through one stack
    of ``L B`` mass matrices built once per study, and the neighbour pairs
    are found once per set of live runs.
    """
    epsilons = [float(e) for e in epsilons]
    if any(e2 > e1 for e1, e2 in zip(epsilons, epsilons[1:])):
        raise AnalysisError("epsilons must be descending")
    if not epsilons:
        return ()
    system = assemble(mesh)
    mass = system.mass
    members = [ModelParams(nu=params_base.nu, alpha=params_base.alpha,
                           delta=params_base.delta, r=float(gain_rule(eps)), epsilon=eps)
               for eps in epsilons]
    n = len(members)
    failed = np.zeros(n, dtype=bool)
    state_l2, state_linf = np.zeros(n), np.zeros(n)
    # running sup-over-time maxima; entry i - 1 of the diff arrays pairs runs i - 1 and i
    l2_sup, linf_sup, control_sup = (np.full(n, -np.inf) for _ in range(3))
    diff_l2, diff_linf, control_diff = (np.full(n - 1, -np.inf) for _ in range(3))
    block_length = _fold_block_length(n, system.n_dof)
    block_states = np.empty((block_length, n, system.n_dof))
    block_mass = np.empty((block_length, n, system.n_dof))  # the levels' mass products
    block_controls = np.empty((block_length, n))
    # one mass matrix per difference of a full block, in the stacked band layout
    diff_mass = mass.repeat(block_length * n)

    def masses(states: np.ndarray) -> TridiagMatrix:
        """The first rows of ``diff_mass``, one per state of ``states``."""
        return TridiagMatrix.from_band(diff_mass.band[:, :states.size // system.n_dof])

    def flush(alive: np.ndarray, neighbours: tuple[np.ndarray, np.ndarray],
              filled: int) -> None:
        states = block_states[:filled, :alive.size]
        controls = block_controls[:filled, :alive.size]
        # the same bits as a run's own l2 and linf history
        l2, linf = norms(system, states, mass_y=block_mass[:filled, :alive.size])
        state_l2[alive], state_linf[alive] = l2[-1], linf[-1]
        l2_sup[alive] = np.maximum(l2_sup[alive], l2.max(axis=0))
        linf_sup[alive] = np.maximum(linf_sup[alive], linf.max(axis=0))
        control_sup[alive] = np.maximum(control_sup[alive], np.abs(controls).max(axis=0))
        pairs, i_prev = neighbours
        if pairs.size:
            d = states[:, 1:] - states[:, :-1]  # reduced per row, so pairs select afterwards
            diff_l2[i_prev] = np.maximum(diff_l2[i_prev],
                                         _rowwise_l2(masses(d), d).max(axis=0)[pairs])
            diff_linf[i_prev] = np.maximum(diff_linf[i_prev], np.abs(d).max(axis=(0, 2))[pairs])
            dc = np.abs(controls[:, 1:] - controls[:, :-1]).max(axis=0)[pairs]
            control_diff[i_prev] = np.maximum(control_diff[i_prev], dc)

    levels = step_ensemble(members, system, project_initial(mesh, y0), time_grid,
                           newton_tol=newton_tol, newton_max_iter=newton_max_iter)
    alive, filled = np.arange(n), 0
    neighbours = _neighbours(alive)  # changes only when a run drops out
    for level in levels:
        step = level.step
        controls = step.control_value
        if level.members.size < len(step):  # a run dropped out at this level
            failed[level.attempted[~step.converged]] = True
            flush(alive, neighbours, filled)
            alive, filled = level.members, 0
            neighbours = _neighbours(alive)
            controls = controls[step.converged]
        if not alive.size:
            break
        if filled == block_length:
            flush(alive, neighbours, filled)
            filled = 0
        block_states[filled, :alive.size] = level.states
        block_mass[filled, :alive.size] = level.mass_states
        block_controls[filled, :alive.size] = controls
        filled += 1
    if filled:
        flush(alive, neighbours, filled)

    rows: list[EpsilonRow] = []
    for i, params in enumerate(members):
        diffs = (None, None, None)
        if i > 0:
            if failed[i] or failed[i - 1]:
                diffs = (float("nan"),) * 3
            else:
                diffs = (float(diff_l2[i - 1]), float(diff_linf[i - 1]),
                         float(control_diff[i - 1]))
        rows.append(EpsilonRow(
            epsilon=params.epsilon,
            r=params.r,
            state_l2=float(state_l2[i]),
            state_linf=float(state_linf[i]),
            state_l2_sup=float(l2_sup[i]),
            state_linf_sup=float(linf_sup[i]),
            control_linf=float(control_sup[i]),
            diff_l2=diffs[0],
            diff_linf=diffs[1],
            control_diff_linf=diffs[2],
            failed=bool(failed[i]),
        ))
    return tuple(rows)

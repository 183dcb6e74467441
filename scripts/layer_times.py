"""Time each layer of the solver at two mesh sizes, for one run and stacks of ten.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/layer_times.py [--repeats K]

Every layer is timed at N=128 elements, where per-call overhead dominates,
and at N=2048, where array size dominates; once for a lone run (B=1, a 1-D
state and the ``LinearPart`` of one ``ModelParams``, as a single simulation
steps) and once for a stack of B=10 runs (the ``LinearPart`` of ten
``ModelParams`` and ``(10, N)`` states).  The runs use
the shipped configs' coefficients (nu=0.1, alpha=0.13, delta=0.13, k=1/1050,
``y0`` the L2 projection of ``sin(pi x)``): the lone run has eps=0.01, the
stack the epsilon study's eps=1 ... 1e-9, each with gain ``sqrt(eps)``.

The column ``N=128 B=10 mixed`` times that stack with its ten deltas spread
evenly over [0.1, 0.16].  The epsilon study's members share delta and
alpha, so its ``LinearPart`` holds them as floats; the mixed stack's holds
``(B, 1)`` columns, a path that no benchmark workload steps.

A time is the minimum over K repeats (default 20) of the process time of a
batch of calls divided by the batch size, in microseconds per call:

``assemble``          ``fem.assemble`` of the mesh (once per mesh, so the
                      B=10 column shows ``-``);
``element_values``    ``fem.element_values`` of the iterate: its elements'
                      nodal differences and Gauss values, which a Newton
                      step computes once per iterate for both kernels;
``reaction_load``     ``fem.reaction_load``, the element pass of the
                      residual, with the run's weight, ``delta`` and the
                      fluxes of those differences;
``residual``          ``solver.residual`` with the pieces a Newton step
                      passes: the run's ``LinearPart``, the previous level's
                      load, and the elements' nodal differences and Gauss
                      values;
``cubic_term``        ``fem.cubic_term``;
``matvec``            the mass matrix times a level, the product the march
                      forms once per level and hands both to the next
                      Newton step, as its load ``M y_prev / k``, and to
                      ``norms``: the run's ``LinearPart.mass``, which is
                      ``system.mass`` for a lone run and a stack of its
                      copies for B=10;
``jacobian``          ``solver.jacobian`` with the run's ``LinearPart`` and
                      the Gauss values;
``solve_structured``  ``solver.solve_structured`` on that Jacobian and
                      residual;
``norms``             ``fem.norms`` of one state with its mass product,
                      ``norms(system, y, mass_y=...)``, as ``simulate``
                      calls it (stacks do not call it, so the B=10 column
                      shows ``-``);
``newton iteration``  one Newton iteration: ``newton_solve`` at
                      ``max_iter=6`` minus ``max_iter=1``, divided by 5, with
                      a tolerance no step meets (one more iteration alone is
                      within the noise of two minima);
``time step``         one level as the study steps it, averaged over the
                      shipped grid of 1050 steps, set-up included: at B=1 a
                      ``solver.simulate`` (a 1-D state, with the norms and
                      the recording of every level), at B=10 a
                      ``solver.step_ensemble``; about one Newton iteration
                      per level from the extrapolated start;
``time step median``  the same, the median over the K repeats.

Point ``PYTHONPATH`` at another checkout's ``src`` to time that one.  The
script calls the kernels as ``residual(linear, system, ...)``, with the run's
``LinearPart`` first; a checkout whose kernels take ``params`` and ``k``
instead is timed with that checkout's own copy of this script.
"""

from __future__ import annotations

import argparse
import math
import statistics
import time
import warnings

import numpy as np

from penalty_stab.fem import assemble, cubic_term, element_values, make_uniform_mesh, norms
from penalty_stab.fem import project_initial, reaction_load
from penalty_stab.params import ModelParams
from penalty_stab.solver import (
    LinearPart,
    TimeGrid,
    jacobian,
    newton_solve,
    residual,
    simulate,
    solve_structured,
    step_ensemble,
)

SIZES = (128, 2048)
STACKS = (1, 10)
MIXED_SIZE = 128  # the mesh size of the stack with mixed deltas
K = 1.0 / 1050.0
N_STEPS = 1050
LAYERS = ("assemble", "element_values", "reaction_load", "residual", "cubic_term", "matvec",
          "jacobian", "solve_structured", "norms", "newton iteration", "time step",
          "time step median")


def repeat_times(call, batch: int, repeats: int) -> list[float]:
    """The process time per call of ``batch`` calls, in µs, for each of ``repeats``."""
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        for _ in range(batch):
            call()
        times.append(1e6 * (time.process_time() - t0) / batch)
    return times


def best(call, batch: int, repeats: int) -> float:
    """Minimum over ``repeats`` of the process time per call of ``batch`` calls, in µs."""
    return min(repeat_times(call, batch, repeats))


def members(n_runs: int, mixed: bool = False) -> list[ModelParams]:
    epsilons = [0.01] if n_runs == 1 else [10.0 ** -j for j in range(n_runs)]
    deltas = [0.1 + 0.06 * j / (n_runs - 1) if mixed else 0.13 for j in range(n_runs)]
    return [ModelParams(nu=0.1, alpha=0.13, delta=delta, r=math.sqrt(eps), epsilon=eps)
            for eps, delta in zip(epsilons, deltas)]


def layer_times(n: int, n_runs: int, mixed: bool, repeats: int) -> dict[str, float | None]:
    mesh = make_uniform_mesh(n)
    system = assemble(mesh)
    runs = members(n_runs, mixed)
    linear = LinearPart.of(runs[0] if n_runs == 1 else runs, system, K)
    y0 = project_initial(mesh, lambda x: np.sin(np.pi * x))
    y_prev = y0 if n_runs == 1 else np.repeat(y0[None], n_runs, axis=0)
    y = 0.999 * y_prev
    diffs, gauss = element_values(y)
    flux = linear.conductance * diffs
    pieces = {"prev_load": linear.mass.matvec(y_prev) / K, "gauss": gauss, "diffs": diffs}
    mass_y = linear.mass.matvec(y)
    f = residual(linear, system, y, y_prev, **pieces)
    core, rank_one = jacobian(linear, system, y, gauss=gauss)
    batch = max(1, 20000 // (n * n_runs))  # about 0.1 ms of numpy work per batch

    def newton(max_iter: int) -> float:
        return best(lambda: newton_solve(linear, system, y_prev, tol=1e-300, max_iter=max_iter,
                                         start=y), batch, repeats)

    grid = TimeGrid(k=K, n_steps=N_STEPS)

    def steps() -> None:
        if n_runs == 1:
            simulate(runs[0], mesh, lambda x: np.sin(np.pi * x), grid)
        else:
            for _ in step_ensemble(runs, system, y0, grid):
                pass

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inadmissible large eps
        step_times = repeat_times(steps, 1, repeats)
        return {
            "assemble": best(lambda: assemble(mesh), batch, repeats) if n_runs == 1 else None,
            "element_values": best(lambda: element_values(y), batch, repeats),
            "reaction_load": best(lambda: reaction_load(mesh, gauss, linear.weight, linear.delta,
                                                        flux), batch, repeats),
            "residual": best(lambda: residual(linear, system, y, y_prev, **pieces),
                             batch, repeats),
            "cubic_term": best(lambda: cubic_term(mesh, y), batch, repeats),
            "matvec": best(lambda: linear.mass.matvec(y_prev), batch, repeats),
            "jacobian": best(lambda: jacobian(linear, system, y, gauss=gauss), batch, repeats),
            "solve_structured": best(lambda: solve_structured(core, rank_one, f),
                                     batch, repeats),
            "norms": (best(lambda: norms(system, y, mass_y=mass_y), batch, repeats)
                      if n_runs == 1 else None),
            "newton iteration": (newton(6) - newton(1)) / 5,
            "time step": min(step_times) / N_STEPS,
            "time step median": statistics.median(step_times) / N_STEPS,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20, help="repeats per timing (K)")
    args = parser.parse_args(argv)
    columns = [(n, b, mixed) for n in SIZES for b in STACKS
               for mixed in ((False, True) if n == MIXED_SIZE and b > 1 else (False,))]
    table = {column: layer_times(*column, args.repeats) for column in columns}
    print(f"{'µs per call':<18}" + "".join(
        f"{f'N={n} B={b}' + (' mixed' if mixed else ''):>17}" for n, b, mixed in columns))
    for layer in LAYERS:
        cells = [table[column][layer] for column in columns]
        print(f"{layer:<18}" + "".join(f"{'-' if c is None else f'{c:.1f}':>17}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

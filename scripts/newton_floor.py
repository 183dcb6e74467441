"""Print the Newton residual floor of the solver at growing mesh sizes.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/newton_floor.py

For every mesh size in ``SIZES``, every row of ``VARIANTS`` and epsilon in
``EPSILONS`` (gain ``r = sqrt(eps)``, the decay config's other coefficients, ``k =
1/1050``, ``y0 = sin(pi x)``), 30 steps are simulated at a Newton tolerance
of 1e-9, loose enough that every step stops after its first update from the
extrapolated start.  The final residual norm of a step (the Euclidean norm,
``solver._residual_norms``) is then the round-off floor of the residual at
the computed state, or the start's error if that is larger.  One line per
run gives the largest and the median final residual over the 30 steps.
Point ``PYTHONPATH`` at another checkout's ``src`` to measure that one.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import replace

import numpy as np

from penalty_stab.fem import make_uniform_mesh
from penalty_stab.params import ModelParams
from penalty_stab.solver import TimeGrid, simulate

SIZES = (128, 512, 2048, 4096)
EPSILONS = (1e-2, 1e-11)
N_STEPS = 30
NEWTON_TOL = 1e-9

# Each row's name: ``simulate``'s variant, and whether the run is at epsilon = 0,
# the Dirichlet feedback problem (its gain is still sqrt of the row's eps)
VARIANTS = {
    "penalized_feedback": ("penalized_feedback", False),
    "dirichlet_feedback": ("penalized_feedback", True),
    "uncontrolled_dirichlet": ("uncontrolled_dirichlet", False),
}


def main() -> int:
    grid = TimeGrid(k=1.0 / 1050.0, n_steps=N_STEPS)
    print(f"{'N':>5} {'variant':<24} {'eps':>6} {'max':>9} {'median':>9} iters")
    for n in SIZES:
        mesh = make_uniform_mesh(n)
        for variant, (simulated, dirichlet) in VARIANTS.items():
            for eps in EPSILONS:
                params = ModelParams(nu=0.1, alpha=0.13, delta=0.13, r=math.sqrt(eps),
                                     epsilon=eps)
                if dirichlet:
                    params = replace(params, epsilon=0.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # inadmissible eps
                    traj = simulate(params, mesh, lambda x: np.sin(np.pi * x), grid, simulated,
                                    newton_tol=NEWTON_TOL)
                steps = traj.step_reports[1:]
                finals = [report.final_residual_norm for report in steps]
                iters = sum(report.newton_iterations for report in steps)
                print(f"{n:>5} {variant:<24} {eps:>6.0e} {max(finals):9.2e} "
                      f"{statistics.median(finals):9.2e} {iters}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

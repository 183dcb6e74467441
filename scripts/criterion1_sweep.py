"""Print the h=1/8 state error of the quadratic-rule convergence study under six setups,
and trace that error over twice the study's final time.

Usage (from the repository root)::

    PYTHONPATH=src python3 scripts/criterion1_sweep.py

Acceptance criterion 1 compares the L2 state errors of
``configs/convergence_quadratic_rule.json`` with a published table and
fails on their magnitude: at h = 1/8 the error is 8.44x the published
2.82e-5.  This script tells suspected causes apart by running the study's
h = 1/8 row six ways:

* as shipped;
* with the time step divided by 4 (``time.n_steps`` times 4);
* from the nodal interpolant of the initial profile instead of its L2
  projection, for every run of the study;
* with a lumped mass matrix: every zeroth-order term of the scheme (the
  time derivative, the linear and the cubic reaction) integrated by the
  nodal (trapezoid) rule, in every run of the study;
* against a reference penalized at the row's own epsilon, instead of the
  Dirichlet feedback problem (epsilon = 0);
* with the row's coarse run at epsilon = 0, the Dirichlet feedback problem,
  with the row's gain.

The package has no option for any of these but the time step, so the script
replaces a piece of ``penalty_stab`` for the duration of the run
(``unittest.mock``): ``harness.project_initial``, ``harness.step_ensemble``,
``harness.replace`` (which sets the reference's epsilon to 0) and
``harness._Run.march``.  One line per setup gives the h = 1/8 ``error_l2``
and its ratio to the published value.  A row's errors depend only on its
own runs and the shared control reference, so only the first two rows are
run (``ROWS``), which give the h = 1/8 row of the full study.

Then the study runs to twice its final time with its step unchanged, and
the h = 1/8 coarse run and its reference are sampled at 21 evenly spaced
times: one line per time gives the L2 error and the nodal mean of the
error (coarse minus restricted reference).

Measured on a 2-core VM in about 10 s: as shipped 2.3792e-4 (8.44x), with
k/4 2.3576e-4 (8.36x), from the nodal start 3.0885e-3 (109.52x), with the
lumped mass 6.9547e-3 (246.62x), against the reference at the row's epsilon
1.3676e-4 (4.85x), with the coarse run at epsilon = 0 1.3560e-4 (4.81x).
So neither the time step, the start, the mass matrix nor the penalty on
either side closes the gap.  The trace falls from 9.02e-3 at t = 0 to
2.38e-4 at t = 1 and 1.33e-4 at t = 1.1, then grows to 1.35e-3 at t = 2;
the nodal mean of the error changes sign between t = 1.0 and 1.1.  So the
T = 1 value is what is left of an initial error about 38x larger, cancelled
by an error of the other sign.
"""

from __future__ import annotations

import contextlib
import dataclasses
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from penalty_stab import fem, harness, solver
from penalty_stab.analysis import error_vs_reference, restrict_to_coarse

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "convergence_quadratic_rule.json"

# The published L2 state error at h = 1/8 (tests/test_acceptance.py)
PUBLISHED_L2 = 2.82e-5

# The rows that run: h = 1/8, whose error is reported, and the second row a study needs
COARSE = (8, 16)

# Overrides of every run: the first two rows only, no chart
ROWS = [f"experiment.n_elements_list={list(COARSE)}", "experiment.svg=false"]

# The nodal (trapezoid) rule on the three quadrature points of an element,
# with the weights of fem's load and Jacobian integrals it implies
NODAL_RULE = {"GAUSS3_POINTS": np.array([0.0, 0.5, 1.0]),
              "_W_LOAD": np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5]]),
              "_W_JAC": np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])}

# Times of the trace: this many intervals over twice the study's final time
TRACE_INTERVALS = 20

MARCH = harness._Run.march


def nodal_start(mesh, f):
    """The nodal interpolant of ``f`` on ``mesh``, in place of its L2 projection."""
    return np.asarray(f(mesh.nodes[1:]), dtype=float)


def lumped_steps(params, system, y0, grid, **solve):
    """:func:`solver.step_ensemble` with the lumped mass: its diagonal holds the
    integral of each hat function, half of each element it spans, and fem
    integrates by the nodal rule."""
    sizes = system.mesh.element_sizes  # DOF i is the right node of element i
    diagonal = 0.5 * (sizes + np.append(sizes[1:], 0.0))
    lumped = fem.TridiagMatrix.symmetric(diagonal, np.zeros(system.n_dof - 1))
    with mock.patch.multiple(fem, **NODAL_RULE):
        yield from solver.step_ensemble(params, dataclasses.replace(system, mass=lumped), y0,
                                        grid, **solve)


def keep_epsilon(params, **changes):
    """``harness.replace`` that keeps the row's epsilon for its reference."""
    return params


def coarse_at_zero(run, params, mesh):
    """``_Run.march`` with epsilon = 0 on the rows' coarse meshes."""
    if mesh.n_elements in COARSE:
        params = dataclasses.replace(params, epsilon=0.0)
    return MARCH(run, params, mesh)


def h8_error(overrides: list[str], patches=()) -> float:
    """The h = 1/8 ``error_l2`` of the study with ``overrides``, each of ``patches``
    (target, name, value) in place while it runs."""
    cfg = harness.apply_overrides(harness.load_config(CONFIG), ROWS + overrides)
    resolved = harness.validate_config(cfg, "space_convergence")
    with tempfile.TemporaryDirectory() as out, contextlib.ExitStack() as stack:
        for target, name, value in patches:
            stack.enter_context(mock.patch.object(target, name, value))
        result = harness.run_space_convergence(resolved, out)
        if not result.ok:
            raise RuntimeError("; ".join(result.failures))
        _, header, rows = harness.read_csv(Path(out) / "convergence.csv")
    return float(rows[0][header.index("error_l2")])


def trace(n_steps: int, T: float) -> list[tuple[float, float, float]]:
    """(t, error_l2, nodal mean of the error) of the h = 1/8 row over [0, 2T]."""
    total = 2 * n_steps
    stride = max(1, total // TRACE_INTERVALS)
    runs = []  # per run of the study, in order: its mesh and {level: state}

    def recorded(params, system, y0, grid, **solve):
        samples = {}
        runs.append((system.mesh, samples))
        for level in solver.step_ensemble(params, system, y0, grid, **solve):
            if level.index % stride == 0 and level.members.size:
                samples[level.index] = level.states.copy()
            yield level

    h8_error([f"time.T={2 * T!r}", f"time.n_steps={total}"],
             [(harness, "step_ensemble", recorded)])
    # the runs: the control reference, then the h = 1/8 coarse run and its reference
    (mesh, coarse), (ref_mesh, reference) = runs[1], runs[2]
    system = fem.assemble(mesh)
    lines = []
    for index in sorted(coarse):
        error = coarse[index] - restrict_to_coarse(reference[index], ref_mesh, mesh)
        l2, _ = error_vs_reference(coarse[index], reference[index], system, ref_mesh)
        lines.append((index * (2 * T / total), l2, float(np.mean(error))))
    return lines


def main() -> int:
    time = harness.apply_overrides(harness.load_config(CONFIG), ROWS)["time"]
    n_steps = time["n_steps"]
    setups = {
        "as shipped": ([], []),
        f"k/4 (time.n_steps={4 * n_steps})": ([f"time.n_steps={4 * n_steps}"], []),
        "nodal-interpolated start": ([], [(harness, "project_initial", nodal_start)]),
        "lumped mass": ([], [(harness, "step_ensemble", lumped_steps)]),
        "reference at the row's eps": ([], [(harness, "replace", keep_epsilon)]),
        "coarse run at eps = 0": ([], [(harness._Run, "march", coarse_at_zero)]),
    }
    print(f"{'setup':<28} {'error_l2 at h=1/8':>18} {f'ratio to {PUBLISHED_L2:.3g}':>18}")
    for name, (overrides, patches) in setups.items():
        error = h8_error(overrides, patches)
        print(f"{name:<28} {error:>18.4e} {error / PUBLISHED_L2:>18.2f}")
    print()
    print(f"{'t':<8} {'error_l2 at h=1/8':>18} {'nodal mean of error':>20}")
    for t, l2, mean in trace(n_steps, time["T"]):
        print(f"{t:<8.3f} {l2:>18.4e} {mean:>20.4e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

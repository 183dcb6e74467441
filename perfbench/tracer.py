"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of ``penalty_stab`` from outside the
package: it replaces the name in the module that *calls* it (``harness`` and
``analysis`` import ``simulate`` by name, ``solver`` imports the ``fem``
kernels by name), the method on the class, or the entry of the CLI's
``RUNNERS`` table, and puts every original back on exit.  Each wrapped call
records one span ``[name, start, end, parent, n, tag]``:

* ``start``/``end`` are ``time.perf_counter`` readings;
* ``parent`` is the index of the enclosing span (``None`` for a root);
* ``n`` is the element count of the mesh the call works on, taken from a
  mesh or assembled-system argument, else inherited from the parent span;
* ``tag`` carries per-call facts read from the result (the variant and the
  Newton statistics of a trajectory, the size of a written CSV).

Spans stay in memory until the run ends; :func:`summarize` turns them into
the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# Mesh sizes at which per-call means are reported (ROADMAP aim 1).
PER_CALL_SIZES = (128, 2048)


def _mesh_size(args) -> int | None:
    for arg in args:
        mesh = getattr(arg, "mesh", arg)  # an AssembledSystem carries its mesh
        n = getattr(mesh, "n_elements", None)
        if isinstance(n, int):
            return n
    return None


def _trajectory_tag(args, kwargs, traj) -> dict:
    variant = args[4] if len(args) > 4 else kwargs.get("variant", "penalized_feedback")
    tol = kwargs.get("newton_tol", 1e-12)
    steps = traj.step_reports[1:]  # entry 0 describes the initial state
    return {
        "variant": variant,
        "steps": len(steps),
        "iters": sum(r.newton_iterations for r in steps),
        "failed_steps": sum(not r.converged for r in steps),
        "worst_residual_over_tol": max((r.final_residual_norm for r in steps), default=0.0) / tol,
    }


def _file_size_tag(args, kwargs, path) -> int:
    return os.stat(path).st_size


class Tracer:
    """Records spans around patched callables; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, key: str, name: str, tag=None) -> None:
        """Replace ``owner.key`` (or ``owner[key]`` for a dict) by a traced wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            n = _mesh_size(args)
            if n is None and parent is not None:
                n = spans[parent][4]
            record = [name, 0.0, 0.0, parent, n, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                open_spans.pop()
            if tag is not None:
                record[5] = tag(args, kwargs, result)
            return result

        self._patches.append((owner, key, original))
        if is_dict:
            owner[key] = traced
        else:
            setattr(owner, key, traced)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer of an imported ``penalty_stab`` package."""
    from penalty_stab import analysis, cli, fem, harness, solver

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "validate_config", "harness.validate_config")
    for kind in list(harness.RUNNERS):
        tracer.patch(harness.RUNNERS, kind, "harness.runner")
    tracer.patch(harness, "emit_csv", "harness.emit_csv", tag=_file_size_tag)
    tracer.patch(harness, "emit_svg", "harness.emit_svg")
    tracer.patch(harness, "epsilon_cauchy_study", "analysis.epsilon_cauchy_study")
    tracer.patch(harness, "error_vs_reference", "analysis.error_vs_reference")
    for caller in (harness, analysis):
        tracer.patch(caller, "simulate", "solver.simulate", tag=_trajectory_tag)
    for fn in ("newton_solve", "residual", "jacobian", "solve_structured"):
        tracer.patch(solver, fn, f"solver.{fn}")
    for fn in ("cubic_term", "cubic_jacobian", "norms", "project_initial"):
        tracer.patch(solver, fn, f"fem.{fn}")
    for caller in (solver, analysis, harness):
        tracer.patch(caller, "assemble", "fem.assemble")
    tracer.patch(fem.TridiagMatrix, "solve", "fem.tridiag_solve")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics (see ``BENCHMARK.json``) from one traced run."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    sized: dict[tuple[str, int], list[float]] = defaultdict(lambda: [0, 0.0])
    by_variant: dict[str, float] = defaultdict(float)
    newton = defaultdict(float)
    worst = 0.0
    csv_bytes = 0
    for (name, start, end, _, n, tag), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if n in PER_CALL_SIZES:
            acc = sized[name, n]
            acc[0] += 1
            acc[1] += end - start
        if name == "solver.simulate":
            by_variant[tag["variant"]] += end - start
            for key in ("steps", "iters", "failed_steps"):
                newton[key] += tag[key]
            worst = max(worst, tag["worst_residual_over_tol"])
        elif name == "harness.emit_csv":
            csv_bytes += tag

    def per_call_us(name: str, n: int) -> float:
        count, seconds = sized[name, n]
        return 1e6 * seconds / count if count else 0.0

    metrics = {
        "harness.validate_config_s": total["harness.validate_config"],
        "harness.runner.self_s": own["harness.runner"],
        "harness.emit_csv.calls": calls["harness.emit_csv"],
        "harness.emit_csv.s": total["harness.emit_csv"],
        "harness.emit_csv.bytes": csv_bytes,
        "harness.emit_svg.calls": calls["harness.emit_svg"],
        "harness.emit_svg.s": total["harness.emit_svg"],
        "analysis.epsilon_cauchy_study.self_s": own["analysis.epsilon_cauchy_study"],
        "analysis.error_vs_reference.s": total["analysis.error_vs_reference"],
        "solver.simulate.calls": calls["solver.simulate"],
        "solver.simulate.self_s": own["solver.simulate"],
        "solver.simulate.penalized_feedback_s": by_variant["penalized_feedback"],
        "solver.simulate.uncontrolled_dirichlet_s": by_variant["uncontrolled_dirichlet"],
        "solver.steps": newton["steps"],
        "solver.newton.iters": newton["iters"],
        "solver.newton.iters_per_step": newton["iters"] / newton["steps"] if newton["steps"] else 0.0,
        "solver.newton.failed_steps": newton["failed_steps"],
        "solver.newton.worst_residual_over_tol": worst,
        "solver.newton_solve.self_s": own["solver.newton_solve"],
        "fem.assemble.calls": calls["fem.assemble"],
        "fem.assemble.s": total["fem.assemble"],
        "fem.project_initial.s": total["fem.project_initial"],
    }
    for name in ("solver.newton_solve", "solver.residual", "solver.jacobian",
                 "solver.solve_structured", "fem.cubic_term", "fem.cubic_jacobian",
                 "fem.norms", "fem.tridiag_solve"):
        if name != "solver.newton_solve":
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = own[name]
        for n in PER_CALL_SIZES:
            metrics[f"{name}.us_per_call.n{n}"] = per_call_us(name, n)
    return metrics

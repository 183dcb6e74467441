"""The benchmark in ``perfbench/`` hooks the package by name; those names must stay.

``perfbench/tracer.py`` wraps functions where their callers look them up,
and ``perfbench/check.py`` imports the CSV reader and the rate formula.  A
name dropped from ``src/`` breaks the benchmark without failing any other
test, so this loads both modules as the benchmark does and hooks every name.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from penalty_stab import analysis, cli, fem, harness, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(monkeypatch, name):
    """Import ``perfbench/<name>.py`` under its own name, as the benchmark does.

    The module is registered in ``sys.modules`` before it runs, as an import
    would: ``check.py`` defines a dataclass, whose decorator looks its module
    up there.  ``monkeypatch`` takes the entry out again after the test.
    """
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """A copy of every namespace the tracer patches."""
    owners = {"cli": cli, "harness": harness, "analysis": analysis, "solver": solver,
              "fem": fem, "TridiagMatrix": fem.TridiagMatrix}
    return {name: dict(vars(owner)) for name, owner in owners.items()} | \
        {"RUNNERS": dict(harness.RUNNERS)}


def test_benchmark_hooks_every_name_and_restores_it(monkeypatch):
    tracer_module = load_perfbench(monkeypatch, "tracer")
    assert load_perfbench(monkeypatch, "check").read_csv is harness.read_csv
    before = namespaces()
    with tracer_module.Tracer() as tracer:
        tracer_module.instrument(tracer)
        assert harness.simulate is not before["harness"]["simulate"]
    after = namespaces()
    for space, names in before.items():
        assert after[space].keys() == names.keys(), space
        for key, value in names.items():
            assert after[space][key] is value, f"{space}.{key} was not restored"


# Kernels on matrices take no mesh or assembled system; their spans inherit
# the mesh size of the Newton step that calls them.
MATRIX_KERNELS = {"solver.solve_structured", "fem.tridiag_solve"}


def test_every_traced_kernel_carries_its_mesh_size(monkeypatch, tmp_path):
    # the benchmark's per-call metrics (``*.us_per_call.n128``) are binned by
    # the mesh size the tracer reads from a span's own arguments; a kernel
    # signature it cannot read would silently zero them
    tracer_module = load_perfbench(monkeypatch, "tracer")
    read = []
    mesh_size = tracer_module._mesh_size
    monkeypatch.setattr(tracer_module, "_mesh_size", lambda args: read.append(mesh_size(args))
                        or read[-1])
    config = PERFBENCH.parent / "configs" / "epsilon_study.json"
    with tracer_module.Tracer() as tracer:
        tracer_module.instrument(tracer)
        status = cli.main(["epsilon-study", "--config", str(config), "--out", str(tmp_path),
                           "--override=mesh.n_elements=16", "--override=time.n_steps=20"])
    assert status == 0
    assert len(read) == len(tracer.spans)  # one reading per span, in span order
    kernels = [(span[0], span[4], own) for span, own in zip(tracer.spans, read)
               if span[0].split(".")[0] in ("solver", "fem")]
    assert {"solver.newton_solve", "solver.residual", "solver.jacobian",
            "fem.cubic_jacobian", "fem.tridiag_solve"} <= {name for name, _, _ in kernels}
    for name, n, own in kernels:
        assert n == 16, name
        assert own == (None if name in MATRIX_KERNELS else 16), name


def test_benchmark_self_test_passes():
    # the benchmark's own suite asserts the tracer's call counts (one ``fem.norms``
    # call per recorded level), which Tier-1 does not otherwise run
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_tracer.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

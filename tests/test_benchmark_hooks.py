"""The benchmark in ``perfbench/`` hooks the package by name; those names must stay.

``perfbench/tracer.py`` wraps functions where their callers look them up,
and ``perfbench/check.py`` imports the CSV reader and the rate formula.  A
name dropped from ``src/`` breaks the benchmark without failing any other
test, so this loads both modules as the benchmark does and hooks every name.
"""

import importlib.util
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

"""Smoke tests of the measurement scripts in ``scripts/``, at small sizes.

The scripts call the solver's layers with the pieces a Newton step passes
them, so a change to those pieces must keep them running.
"""

import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_times_prints_every_layer(monkeypatch, capsys):
    script = load_script("layer_times")
    timed = script.best
    monkeypatch.setattr(script, "SIZES", (16,))
    monkeypatch.setattr(script, "STACKS", (1, 3))
    monkeypatch.setattr(script, "N_STEPS", 5)
    monkeypatch.setattr(script, "best", lambda call, batch, repeats: timed(call, 1, repeats))
    assert script.main(["--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "N=16 B=1" in lines[0] and "N=16 B=3" in lines[0]
    assert len(lines) == 1 + len(script.LAYERS)
    for line, layer in zip(lines[1:], script.LAYERS):
        assert line.startswith(f"{layer:<18}")
        cells = line[18:].split()
        assert len(cells) == 2, line
        for cell in cells:
            # one timed call per layer: a difference of two may come out negative
            assert cell == "-" or math.isfinite(float(cell)), line


def test_newton_floor_prints_one_line_per_run(monkeypatch, capsys):
    script = load_script("newton_floor")
    monkeypatch.setattr(script, "SIZES", (16,))
    monkeypatch.setattr(script, "N_STEPS", 5)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line.split() for line in lines[1:]]
    assert len(runs) == len(script.VARIANTS) * len(script.EPSILONS)
    for n, variant, eps, largest, median, iters in runs:
        assert n == "16" and variant in script.VARIANTS
        assert float(median) <= float(largest) <= script.NEWTON_TOL
        assert int(iters) >= 5  # at least one update per step


def test_criterion1_sweep_prints_one_line_per_setup(monkeypatch, capsys):
    script = load_script("criterion1_sweep")
    # a small study: rows 8 and 16 against a 32-element reference, 10 steps
    monkeypatch.setattr(script, "ROWS", script.ROWS + ["experiment.reference_n_elements=32",
                                                       "time.n_steps=10"])
    originals = (script.harness.project_initial, script.harness.step_ensemble,
                 script.harness.replace, script.harness._Run.march,
                 script.fem.GAUSS3_POINTS, script.fem._W_LOAD, script.fem._W_JAC)
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    names = ("as shipped", "k/4 (time.n_steps=40)", "nodal-interpolated start", "lumped mass",
             "reference at the row's eps", "coarse run at eps = 0")
    assert lines[0].split()[0] == "setup" and len(lines) == 1 + len(names) + 2 + 21
    errors = {}
    for line, name in zip(lines[1:], names):
        assert line.startswith(name), line
        error, ratio = map(float, line.split()[-2:])
        assert error > 0.0
        assert math.isclose(ratio, error / script.PUBLISHED_L2, rel_tol=1e-3, abs_tol=0.006)
        errors[name] = error
    # every patch is undone, and each one moved the error
    assert (script.harness.project_initial, script.harness.step_ensemble,
            script.harness.replace, script.harness._Run.march, script.fem.GAUSS3_POINTS,
            script.fem._W_LOAD, script.fem._W_JAC) == originals
    assert len(set(errors.values())) == len(names)
    # the trace: t over [0, 2] in 20 steps, and at t = 1 the as-shipped error
    assert lines[1 + len(names)] == "" and lines[2 + len(names)].split()[0] == "t"
    trace = [line.split() for line in lines[3 + len(names):]]
    assert [float(t) for t, _, _ in trace] == [i / 10 for i in range(21)]
    assert all(float(l2) > 0.0 and math.isfinite(float(mean)) for _, l2, mean in trace)
    assert float(trace[10][1]) == float(f"{errors['as shipped']:.4e}")

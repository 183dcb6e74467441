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
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "setup" and len(lines) == 4
    errors = {}
    for line, name in zip(lines[1:], ("as shipped", "k/4 (time.n_steps=40)",
                                      "nodal-interpolated start")):
        assert line.startswith(name), line
        error, ratio = map(float, line.split()[-2:])
        assert error > 0.0
        assert math.isclose(ratio, error / script.PUBLISHED_L2, rel_tol=1e-3, abs_tol=0.006)
        errors[name] = error
    # the patched start is undone, and it moved the error
    assert script.harness.project_initial is not script.nodal_start
    assert errors["nodal-interpolated start"] != errors["as shipped"]

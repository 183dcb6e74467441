"""Self-test of the benchmark's tracer, reference probe and metric tables.

Run from the repository root (it is not part of the Tier-1 suite)::

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from penalty_stab import analysis, cli, fem, harness, solver  # noqa: E402
from reference import Probe  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import Tracer, instrument, self_times, summarize  # noqa: E402

SMALL_RUNS = [
    ("simulate", "decay_controlled.json", ["mesh.n_elements=16", "time.n_steps=20"]),
    ("epsilon-study", "epsilon_study.json", ["mesh.n_elements=16", "time.n_steps=20"]),
    ("convergence", "convergence_quadratic_rule.json",
     ["experiment.n_elements_list=[8,16]", "experiment.reference_n_elements=128",
      "time.n_steps=20"]),
]


def _namespaces():
    """Every namespace the tracer may patch, copied."""
    return {name: dict(vars(owner)) for name, owner in
            [("cli", cli), ("harness", harness), ("analysis", analysis), ("solver", solver),
             ("fem", fem), ("TridiagMatrix", fem.TridiagMatrix)]} | {"RUNNERS": dict(harness.RUNNERS)}


def _assert_unchanged(before):
    after = _namespaces()
    for space, names in before.items():
        for key, value in names.items():
            assert after[space].get(key) is value, f"{space}.{key} was not restored"


@pytest.fixture(params=SMALL_RUNS, ids=[run[0] for run in SMALL_RUNS])
def traced_run(request, tmp_path):
    command, config, overrides = request.param
    before = _namespaces()
    with Tracer() as tracer:
        instrument(tracer)
        assert cli.main is not before["cli"]["main"]
        status = cli.main([command, "--config", str(ROOT / "configs" / config),
                           "--out", str(tmp_path), *(f"--override={o}" for o in overrides)])
    assert status == 0
    return before, tracer.spans


def test_every_wrapped_attribute_is_restored(traced_run):
    before, _ = traced_run
    _assert_unchanged(before)


def test_attributes_are_restored_when_the_run_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            instrument(tracer)
            raise RuntimeError("boom")
    _assert_unchanged(before)


def test_children_nest_inside_their_parent(traced_run):
    _, spans = traced_run
    assert [span[3] for span in spans].count(None) == 1, "one root span, cli.main"
    for name, start, end, parent, _, _ in spans:
        assert start <= end
        if parent is not None:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end, f"{name} escapes {spans[parent][0]}"


def test_self_times_sum_to_the_root_duration(traced_run):
    _, spans = traced_run
    root = spans[0]
    assert root[0] == "cli.main" and root[3] is None
    own = self_times(spans)
    assert all(s >= -1e-9 for s in own)
    assert math.isclose(sum(own), root[2] - root[1], rel_tol=1e-9, abs_tol=1e-12)


def test_counts_match_the_run(traced_run):
    _, spans = traced_run
    metrics = summarize(spans)
    assert metrics["solver.newton.failed_steps"] == 0
    assert metrics["fem.norms.calls"] == metrics["solver.steps"] + metrics["solver.simulate.calls"]


def test_metric_tables_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    moves = json.loads((HERE / "moves.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in bench["per_layer"]]
    assert len(set(per_layer)) == len(per_layer)
    assert set(per_layer) == set(summarize([])) | {"cli.import_s", "trace.overhead_frac"}
    assert list(moves) == per_layer
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = set(WORKLOADS)
    assert {w["name"] for w in bench["workloads"]} <= workloads
    for name, targets in moves.items():
        assert set(targets) <= end_to_end, name
        assert all(set(w) <= workloads for w in targets.values()), name


def test_probe_restores_and_measures_between_simulations(tmp_path):
    before = _namespaces()
    command, config, overrides = SMALL_RUNS[0]
    with Probe() as probe:
        for caller in (harness, analysis):
            probe.before_each_call(caller, "simulate")
        probe()
        status = cli.main([command, "--config", str(ROOT / "configs" / config),
                           "--out", str(tmp_path), *(f"--override={o}" for o in overrides)])
        probe()
    _assert_unchanged(before)
    assert status == 0
    assert len(probe.marks) == 4, "both ends, and before each of the two decay simulations"
    clocks = [clock for clock, _ in probe.marks]
    assert clocks == sorted(clocks)
    kernels = [kernel for _, kernel in probe.marks]
    assert probe.program_s() / max(kernels) <= probe.in_kernel_units()
    assert probe.in_kernel_units() <= probe.program_s() / min(kernels)

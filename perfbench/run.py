"""Repository benchmark: the shipped studies, run end to end through the CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload decay --seed 0 --seconds 55 --trace 0

Each workload is one shipped config run by ``penalty_stab.cli.main`` in a
fresh child process (``child.py``).  Runs go one at a time, a closed loop
with one client, while the next one, as long as the longest so far, would end
within ``--seconds``; at least one always runs.  Every run's outputs are
checked by ``check.py``.  Successive processes are pinned to the usable CPUs
in turn: on a shared VM one virtual CPU can be slowed for seconds to minutes
while another is not.

End-to-end times are measured in units of the reference kernel of
``reference.py``, timed on the child's CPU close to the work, and reported
as seconds on a host where the kernel takes ``reference.NOMINAL_S``: on a
shared 2-core VM, seconds follow the co-tenants, the ratio follows the
program.  The parent times the kernel right before each spawn, the child
right after its import, before every simulation and at the end.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``wall_s``, ``cli.main`` call to return, each stretch between two kernel
  timings divided by the kernel's mean time at its ends, as the median over
  the run's invocations;
* ``setup_s``, spawn to ``penalty_stab.cli`` imported, divided by the mean
  of the kernel times around it, as the median over every process of the
  run, including a few that only import;
* ``peak_rss_mb``, the median of the children's peak resident set size;
* ``completed_runs_frac``, the share of attempted simulations that
  reported no Newton failure.

The raw medians in seconds, and the kernel's own, are printed on the line
before the result.

``--trace 1`` spends the first half of the time on untraced runs and the
second half on runs traced by ``tracer.py``.  It reports the per-layer
metrics, in seconds, of the traced run with the least time in kernel units,
the median import time of ``penalty_stab.cli`` in seconds, and
``trace.overhead_frac``: the median traced time over the median untraced
time, both in kernel units, minus 1 (a traced run times the kernel only at
its two ends).  A layer metric reads 0 on a workload that never runs that
layer (no N=2048 call on ``decay``, say).
``moves.json`` records which end-to-end metric each per-layer metric is
expected to move, on which workloads.

Seed 0 runs the shipped configs unchanged.  Any other seed scales
``model.delta`` (the cubic coefficient, which enters neither admissibility
condition) by a factor in [2**-0.25, 2**0.25] drawn from the seed, passed
through ``--override``.

The last line of standard output is the result as JSON.  The line before it
records the environment, the raw timings and the digest of the numeric CSV
rows; the same record, with every sample, is kept in
``.perfbench/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (CLI command, shipped config, experiment kind).  BENCHMARK.json
# gates the first two and says why.  ``convergence`` is the only one with
# N=2048 meshes (eight reference runs, about 73% of its time) and the highest
# peak RSS, so it is where the ``*.n2048`` layer metrics and memory-for-time
# trades show.  It is run by hand, not gated: one run takes 12-22 s on a
# shared 2-core VM, so a 55 s run holds two or three of them, and a third
# workload of 55 s runs would not fit the benchmark's time allowance.
WORKLOADS = {
    "decay": ("simulate", "decay_controlled.json", "decay"),
    "epsilon_study": ("epsilon-study", "epsilon_study.json", "epsilon_study"),
    "convergence": ("convergence", "convergence_quadratic_rule.json", "space_convergence"),
}

SETUP_SAMPLES = 5     # import-only processes per run, after one warm-up
HARD_LIMIT_S = 170.0  # a run must end well inside 180 s


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def delta_factor(seed: int) -> float:
    return 1.0 if seed == 0 else 2.0 ** random.Random(seed).uniform(-0.25, 0.25)


def child_env() -> dict:
    """Environment of every process started here; git stops looking at the checkout."""
    return dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))


def environment() -> dict:
    import numpy
    import scipy

    def command(*args: str) -> str:
        try:
            proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unavailable"
        return proc.stdout.strip() if proc.returncode == 0 else "unavailable"

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
        "git_describe": command("git", "describe", "--always", "--dirty"),
    }


class Spawner:
    """The child processes of one benchmark run and what they reported."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self.setup_s: list[float] = []
        self.setup_ref: list[float] = []  # setup_s in units of the reference kernel
        self.import_s: list[float] = []

    def spawn(self, argv: list[str] | None, trace: bool = False) -> dict:
        self.count += 1
        cpu = self.cpus[self.count % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})  # the reference kernel runs where the child will
        kernel_before = reference_s()
        report = self.work / f"child{self.count}.json"
        spec = {"src": str(ROOT / "src"), "report": str(report), "argv": argv, "trace": trace,
                "cpu": cpu, "spawned": time.monotonic()}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env=child_env(), capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"benchmark child did not finish within {HARD_LIMIT_S:g} s "
                               "of the run's start") from None
        stderr = proc.stderr[-2000:]
        if proc.returncode != 0 or not report.is_file():
            raise RuntimeError(f"benchmark child failed ({proc.returncode}): {stderr}")
        result = json.loads(report.read_text(encoding="utf-8"))
        if Path(result["package"]).resolve().parent != ROOT / "src" / "penalty_stab":
            raise RuntimeError(f"imported the package from {result['package']}, not from src/")
        self.setup_s.append(result["setup_s"])
        self.setup_ref.append(result["setup_s"] / ((kernel_before + result["setup_kernel_s"]) / 2))
        self.import_s.append(result["import_s"])
        result["stderr"] = stderr
        return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    command, config_name, kind = WORKLOADS[args.workload]
    config_path = ROOT / "configs" / config_name
    if not (ROOT / "src" / "penalty_stab" / "cli.py").is_file() or not config_path.is_file():
        print(f"error: the program (src/penalty_stab) or {config_path.relative_to(ROOT)} "
              "is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from check import CheckError, check_run, simulations
    from tracer import summarize

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    cfg = json.loads(config_path.read_text(encoding="utf-8"))
    overrides = []
    if args.seed != 0:
        cfg["model"]["delta"] *= delta_factor(args.seed)
        overrides = [f"model.delta={cfg['model']['delta']!r}"]

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner(work, started + HARD_LIMIT_S)
    record = {"workload": args.workload, "seed": args.seed, "overrides": overrides,
              "environment": environment()}

    spawner.spawn(None)  # warm-up: byte-compiles the package and loads the libraries
    for samples in (spawner.setup_s, spawner.setup_ref, spawner.import_s):
        samples.clear()
    for _ in range(SETUP_SAMPLES):
        spawner.spawn(None)

    runs = {False: [], True: []}
    digests: set[str] = set()
    attempted = failed = 0
    correct = True

    def measure(traced: bool, until: float) -> None:
        nonlocal attempted, failed, correct
        lengths: list[float] = []
        while correct and (not lengths or time.monotonic() + max(lengths) <= until):
            t0 = time.monotonic()
            out_dir = work / f"out{spawner.count + 1}"
            attempted += simulations(kind, cfg)
            try:
                result = spawner.spawn([command, "--config", str(config_path), "--out",
                                        str(out_dir), *(f"--override={o}" for o in overrides)],
                                       trace=traced)
                if result["status"] != 0:
                    raise CheckError(f"exit status {result['status']}: {result['stderr']}")
                outcome = check_run(kind, cfg, out_dir)
                failed += outcome.failed
                digests.add(outcome.digest)
                if len(digests) != 1:
                    raise CheckError("numeric CSV rows differ between runs of one seed")
            except (CheckError, RuntimeError) as exc:  # RuntimeError: the child crashed or hung
                print(f"check failed: {exc}", file=sys.stderr)
                failed += simulations(kind, cfg)  # none of this run's results can be used
                correct = False
                return  # its outputs stay for inspection
            shutil.rmtree(out_dir)
            runs[traced].append(result)
            lengths.append(time.monotonic() - t0)

    if args.trace:
        measure(False, started + args.seconds / 2)
        measure(True, started + args.seconds)
    else:
        measure(False, started + args.seconds)

    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    wall_ref = {traced: statistics.median(run["wall_ref"] for run in runs[traced])
                for traced in runs if runs[traced]}
    if args.trace:
        traced = min(runs[True], key=lambda run: run["wall_ref"])
        for run in runs[True]:  # keep the spans of the run that is reported
            if run is not traced:
                Path(run["spans"]).unlink()
        values = summarize(json.loads(Path(traced["spans"]).read_text(encoding="utf-8")))
        values["cli.import_s"] = statistics.median(spawner.import_s)
        values["trace.overhead_frac"] = wall_ref[True] / wall_ref[False] - 1.0
    else:
        values = {"wall_s": NOMINAL_S * wall_ref[False],
                  "setup_s": NOMINAL_S * statistics.median(spawner.setup_ref),
                  "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs[False]),
                  "completed_runs_frac": 1.0 - failed / attempted}
    names = [metric["name"] for metric in wanted]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics computed {sorted(values)} do not match BENCHMARK.json {names}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    raw = {"wall_s_median": statistics.median(run["wall_s"] for run in runs[False]),
           "setup_s_median": statistics.median(spawner.setup_s),
           "reference_s_median": statistics.median(run["setup_kernel_s"]
                                                   for run in runs[False])}
    record.update(digest=digests.pop(), raw=raw,
                  runs=len(runs[False]) + len(runs[True]), setup_s=spawner.setup_s,
                  import_s=spawner.import_s, samples={"untraced": runs[False], "traced": runs[True]},
                  metrics=metrics)
    (work / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({key: record[key] for key in ("workload", "seed", "digest", "raw",
                                                   "environment")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None

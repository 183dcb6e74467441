"""One benchmark process: import the CLI, run it once, report what it cost.

Usage (started by ``run.py``, one fresh process per run)::

    python3 perfbench/child.py SPEC_JSON

``SPEC_JSON`` holds ``src`` (the package directory to import from),
``spawned`` (the parent's ``time.monotonic()`` just before it started this
process), ``cpu`` (the one CPU this process may run on), ``report`` (where
to write the result), ``argv`` (the CLI arguments, or ``null`` to measure
set-up only) and ``trace`` (wrap the layers with :mod:`tracer` and write the
spans next to the report).

``time.monotonic`` is one system-wide clock on Linux, so ``setup_s`` spans
the parent's spawn to the end of ``import penalty_stab.cli`` here.  Right
after the import, the reference kernel of :mod:`reference` is timed once
(``setup_kernel_s``); it also opens the run.  An untraced run times the
kernel again before every simulation and after ``cli.main`` returns, with
the clock stopped, and reports ``wall_ref``, the run's time in units of the
kernel.  A traced run times it only at its two ends: a probe inside would
fall inside the spans.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})  # before numpy sizes its thread pool
    started = time.monotonic()
    sys.path.insert(0, spec["src"])
    import penalty_stab.cli as cli

    imported = time.monotonic()
    from reference import Probe

    tracer = None
    with Probe() as probe:
        if spec["argv"] is not None:
            if spec["trace"]:
                from tracer import Tracer, instrument

                tracer = Tracer()
                instrument(tracer)
            else:
                from penalty_stab import analysis, harness

                for caller in (harness, analysis):
                    probe.before_each_call(caller, "simulate")
        probe()
        report = {"setup_s": imported - spec["spawned"], "import_s": imported - started,
                  "setup_kernel_s": probe.marks[0][1], "package": cli.__file__,
                  "cpu": spec["cpu"]}
        if spec["argv"] is not None:
            try:
                status = cli.main(spec["argv"])
            finally:
                probe()
                if tracer is not None:
                    tracer.restore()
            report.update(status=status, wall_s=probe.program_s(),
                          wall_ref=probe.in_kernel_units(), probes=len(probe.marks),
                          peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        report["spans"] = spec["report"] + ".spans.json"
        with open(report["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

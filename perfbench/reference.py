"""The reference kernel that the benchmark's end-to-end times are measured in.

On a shared 2-core VM, co-tenants slowed each virtual CPU on its own by up to
1.9x, for seconds to minutes at a time: the median of a 55 s decay run moved
from 0.74 s to 1.40 s between runs, and a kernel timed on the other CPU at
the same moment did not follow it.  A fixed kernel timed on the same CPU,
close in time to the work, does: the work's time over the kernel's moved by
a few percent where seconds moved by 90%.  A change to the program still
moves that ratio in full, because the kernel is not program code.

:class:`Probe` times the kernel at chosen points of a run with the run's
clock stopped, so that every stretch of the program between two probes is
divided by the kernel's time at its two ends.  ``NOMINAL_S`` times such a
ratio reads as seconds on a host where the kernel takes ``NOMINAL_S``, about
the speed of a quiet 2-core VM.
"""

from __future__ import annotations

import functools
import math
import time

NOMINAL_S = 0.1
KERNEL_ITERATIONS = 2500  # NOMINAL_S of work on a quiet 2-core VM
WARMUP_ITERATIONS = 50


def _kernel(iterations: int) -> float:
    import numpy as np
    from scipy.linalg import solve_banded

    n = 128
    bands = np.zeros((3, n))
    bands[0, 1:] = bands[2, :-1] = -1.0
    bands[1] = 4.0
    rhs = np.linspace(0.0, 1.0, n)
    x = rhs.copy()
    acc = 0.0
    for i in range(iterations):
        y = x * x * x - 0.5 * x
        acc += float(np.dot(y, x)) + float(np.sum(np.abs(y)))
        x = solve_banded((1, 1), bands, rhs + 1e-3 * y)
        acc += {"i": i, "acc": acc}["acc"] * 1e-12 + len(str(i))
    return acc


def reference_s() -> float:
    """Seconds the kernel takes now, on this CPU.

    The kernel is shaped like the program's N=128 work: Python-level loops
    around small numpy operations and a banded solve, plus dict and string
    work.  A short untimed warm-up runs first, so a fresh process pays its
    first-call costs outside the timing.
    """
    _kernel(WARMUP_ITERATIONS)
    t0 = time.perf_counter()
    acc = _kernel(KERNEL_ITERATIONS)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("the reference kernel lost its numbers")
    return elapsed


class Probe:
    """Times the kernel at points of a run, with the run's clock stopped.

    Each call appends ``(clock, kernel_s)`` to ``marks``.  ``clock`` is
    ``time.perf_counter()`` less the time spent in earlier probes, so the
    difference between two marks is the program's own time between them.
    Use as a context manager: it puts back what :meth:`before_each_call`
    replaced.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []
        self._stopped = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        kernel_s = reference_s()
        self.marks.append((t0 - self._stopped, kernel_s))
        self._stopped += time.perf_counter() - t0

    def before_each_call(self, owner, name: str) -> None:
        """Probe before every call of ``owner.name``."""
        original = getattr(owner, name)

        @functools.wraps(original)
        def probed(*args, **kwargs):
            self()
            return original(*args, **kwargs)

        self._patches.append((owner, name, original))
        setattr(owner, name, probed)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def program_s(self) -> float:
        """The program's time from the first probe to the last."""
        return self.marks[-1][0] - self.marks[0][0]

    def in_kernel_units(self) -> float:
        """The same time, each stretch over the mean kernel time at its ends."""
        return sum((b_clock - a_clock) / ((a_kernel + b_kernel) / 2)
                   for (a_clock, a_kernel), (b_clock, b_kernel)
                   in zip(self.marks, self.marks[1:]))

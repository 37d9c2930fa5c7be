"""Host-speed calibration of the benchmark's timings.

On a shared two-core host the same solve takes up to 1.8x longer while other
tenants load the machine, in phases that last from seconds to minutes, so raw
wall times of one workload differ by 20-30% between runs.  A fixed reference
kernel is therefore timed right before and right after every timed call.  It
runs the mix the solvers run (small NumPy passes driven from Python) and no
smoothmax code, so a change to the program does not change it.  A call's
time is scaled by

    REFERENCE_MS / (mean of its two neighbouring reference times)

and reads as the time the call takes at the host speed where the reference
kernel takes REFERENCE_MS, its uncontended time on the two-core x86 host the
benchmark was tuned on.  Scaling by the run's own fastest reference time
instead leaves 9% run-to-run spread, because that minimum moves with the
load; the fixed constant leaves 2-4%.  The raw wall times are kept next to
the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_MS = 4.0
_POINTS = np.random.default_rng(0).standard_normal((500, 5))


def reference_kernel() -> np.ndarray:
    x = np.zeros(_POINTS.shape[1])
    for _ in range(200):
        diffs = _POINTS - x
        values = np.einsum("ij,ij->i", diffs, diffs)
        weights = np.exp(values - values.max())
        weights /= weights.sum()
        x = x + 0.01 * (weights @ _POINTS - x)
    return x


class Clock:
    """Times calls between reference-kernel runs."""

    def __init__(self):
        self.references: list[float] = []
        self._last = self._reference()

    def _reference(self) -> float:
        start = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - start
        self.references.append(elapsed)
        return elapsed

    def call(self, fn, *args):
        """Run ``fn(*args)``; return (result, (wall seconds, local reference seconds)).

        An exception from ``fn`` propagates after the closing reference run.
        """
        before = self._last
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter() - start
            self._last = self._reference()
        return result, (elapsed, 0.5 * (before + self._last))


def scaled(sample) -> float:
    """A (wall, local reference) sample in seconds at the reference speed."""
    elapsed, local = sample
    return elapsed * REFERENCE_MS * 1e-3 / local

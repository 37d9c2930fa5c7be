"""In-memory span tracing of smoothmax's layers, installed from outside the program.

Each wrapper replaces a public function at the place its caller looks it up
(a module attribute or a class attribute), so the program itself is not
edited.  A span records its name, start, end, parent span and solve id.
Spans stay in memory until the run ends, when they are written as .npz.
The same span name can be installed at several lookup sites:
``core.component_values`` is reached through both ``smoothmax.core`` and
``smoothmax.agd``.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from smoothmax import agd, baselines, cli, core, meb
from smoothmax.meb import BoundingSphereFamily
from smoothmax.testkit import RandomQuadraticFamily


def _count_report(tracer, args, result):
    tracer.counts["agd.iterations"] += result.iterations_run
    tracer.counts["agd.planned_iterations"] += result.planned_iterations


def _count_rounds(tracer, args, result):
    tracer.counts["agd.run_online.rounds"] += len(result)


def _count_values_bytes(tracer, args, result):
    # The values pass reads every coordinate once and writes one value per
    # component, all float64.
    family = args[0]
    tracer.counts["meb.values_at.bytes_computed"] += 8 * family.n * (family.dim + 1)


def _count_rows(tracer, args, result):
    tracer.counts["cli.rows_parsed"] += result.n


# (owner, attribute, span name, counter hook).  The owner is where the
# caller looks the name up at call time.
WRAPS = (
    (agd, "run_online", "agd.run_online", _count_rounds),
    (agd, "run_to_gap", "agd.run_to_gap", _count_report),
    (agd, "agd_step", "agd.agd_step", None),
    (agd, "smooth_gradient", "core.smooth_gradient", None),
    (agd, "smooth_value", "core.smooth_value", None),
    (agd, "component_values", "core.component_values", None),
    (core, "component_values", "core.component_values", None),
    (core, "softmax_weights", "core.softmax_weights", None),
    (meb, "solve_meb", "meb.solve_meb", None),
    (meb, "run_to_gap", "agd.run_to_gap", _count_report),
    (meb, "farthest_sq_distance", "meb.farthest_sq_distance", None),
    (BoundingSphereFamily, "values_at", "meb.values_at", _count_values_bytes),
    (BoundingSphereFamily, "combined_gradient", "meb.combined_gradient", None),
    (RandomQuadraticFamily, "values_at", "testkit.values_at", None),
    (RandomQuadraticFamily, "combined_gradient", "testkit.combined_gradient", None),
    (baselines, "welzl_exact", "baselines.welzl_exact", None),
    (baselines, "badoiu_clarkson", "baselines.badoiu_clarkson", None),
    (baselines, "farthest_sq_distance", "baselines.farthest_sq_distance", None),
    (cli, "main", "cli.main", None),
    (cli, "parse_points_csv", "cli.parse_points_csv", _count_rows),
    (cli, "solve_meb", "meb.solve_meb", None),
)

# The benchmark's own progress callback in the observed min-max workload.
PROGRESS_SPAN = "agd.progress"

SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name, _ in WRAPS] + [PROGRESS_SPAN]))

ORIGINALS = {(owner, attr): vars(owner)[attr] for owner, attr, _, _ in WRAPS}


def assert_untraced() -> None:
    """Raise unless every wrapped attribute is the program's own object."""
    for (owner, attr), original in ORIGINALS.items():
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"tracing wrapper left installed on {owner.__name__}.{attr}")


class Tracer:
    """Spans in parallel arrays: name code, start, end, parent index, solve id."""

    def __init__(self):
        self.names, self.parents, self.solves = array("i"), array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_id = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        code = SPAN_NAMES.index(name)
        names, parents, solves = self.names, self.parents, self.solves
        starts, ends, stack = self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            solves.append(self.solve_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index], ends[index] = start, end
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def install(self) -> None:
        assert_untraced()
        for owner, attr, name, count in WRAPS:
            setattr(owner, attr, self.wrap(name, ORIGINALS[(owner, attr)], count))

    @staticmethod
    def uninstall() -> None:
        for (owner, attr), original in ORIGINALS.items():
            setattr(owner, attr, original)
        assert_untraced()

    def __len__(self) -> int:
        return len(self.starts)

    def layer_totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total seconds, self seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it because spans nest on one thread.
        """
        child = [0.0] * len(self)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        totals = [[0.0, 0.0, 0] for _ in SPAN_NAMES]
        for code, start, end, inner in zip(self.names, self.starts, self.ends, child):
            entry = totals[code]
            entry[0] += end - start
            entry[1] += end - start - inner
            entry[2] += 1
        return {name: tuple(entry) for name, entry in zip(SPAN_NAMES, totals)}

    def write_spans(self, path) -> None:
        """All spans as NumPy arrays; ``name`` indexes ``span_names``."""
        np.savez(path, span_names=np.array(SPAN_NAMES), name=np.asarray(self.names),
                 start=np.asarray(self.starts), end=np.asarray(self.ends),
                 parent=np.asarray(self.parents), solve=np.asarray(self.solves))

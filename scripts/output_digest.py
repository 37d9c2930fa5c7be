#!/usr/bin/env python3
"""SHA-256 digests and step totals of every method's outputs, on the
benchmark's instance shapes, so that two checkouts can be compared output
for output.

Run from the repository root of each checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digest.py

The shapes and epsilons are read from ``perfbench/workloads.py``: the
``meb-stream`` and ``baselines`` cloud shapes and the ``minmax-observed``
family sizes.  The instances are rebuilt with ``testkit`` for seeds 1-3:
every cloud at offsets 0, 1e6 and 1e8, and every family (as the workload
builds it, with no offset) through both ``run_to_gap`` and ``run_online``.
Each line names a method, its run count, its step total and the SHA-256 of
the bits of every field of every result it returned, in order: centre,
radius, step counts, certified bounds, stop reason, support, and each solve
report's fields.  Two checkouts whose lines match returned the same bits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (the shapes of perfbench's workloads)
from smoothmax import agd, baselines, meb  # noqa: E402
from smoothmax.testkit import RandomQuadraticFamily, random_point_cloud  # noqa: E402

SEEDS = (1, 2, 3)


def bits(value) -> str:
    """An exact, platform-independent text form of a result's fields."""
    if dataclasses.is_dataclass(value):
        return "(" + ",".join(bits(getattr(value, f.name)) for f in dataclasses.fields(value)) + ")"
    if isinstance(value, np.ndarray):
        return value.dtype.str + str(value.shape) + value.tobytes().hex()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(bits(v) for v in value) + "]"
    return repr(value)


class Digest:
    def __init__(self):
        self.hash, self.runs, self.steps = hashlib.sha256(), 0, 0

    def add(self, result, steps: int) -> None:
        self.hash.update(bits(result).encode())
        self.hash.update(b"\n")
        self.runs += 1
        self.steps += steps


def clouds(shapes):
    for seed in SEEDS:
        for n, d, distribution in shapes:
            base = random_point_cloud(seed, n, d, distribution).points
            for offset in workloads.OFFSETS:
                yield meb.PointCloud(base + offset)


def main() -> None:
    digests = {name: Digest() for name in (
        "solve_meb", "badoiu_clarkson", "welzl_exact", "run_to_gap", "run_online")}
    for cloud in clouds(workloads.MEB_STREAM_CLOUDS):
        for eps in workloads.MEB_STREAM_EPSILONS:
            result = meb.solve_meb(cloud, meb.MebConfig(eps))
            digests["solve_meb"].add(result, result.iterations)
        digests["welzl_exact"].add(baselines.welzl_exact(cloud), 0)
    for cloud in clouds(workloads.BASELINE_CLOUDS):
        for eps in workloads.BASELINE_EPSILONS:
            result = baselines.badoiu_clarkson(cloud, eps)
            digests["badoiu_clarkson"].add(result, result.iterations)
        digests["welzl_exact"].add(baselines.welzl_exact(cloud), 0)
    for seed in SEEDS:
        for k, n in enumerate(workloads.MINMAX_SIZES):
            d = 2 + k % 7
            family = RandomQuadraticFamily.from_seed(seed, n, d)
            constants = family.true_constants(domain_radius=workloads.DOMAIN_RADIUS)
            distance = float(np.max(np.linalg.norm(family.centers, axis=1)))
            config = agd.OptimizerConfig(epsilon=workloads.MINMAX_EPSILON, x1=np.zeros(d),
                                         initial_distance_bound=distance)
            report = agd.run_to_gap(family, constants, config)
            digests["run_to_gap"].add(report, report.iterations_run)
            reports = agd.run_online(family, lambda eps: constants, workloads.ONLINE_EPSILON_0,
                                     workloads.ONLINE_ROUNDS, config)
            digests["run_online"].add(reports, sum(r.iterations_run for r in reports))
    for name, digest in digests.items():
        print(f"{name:16s} runs {digest.runs:4d}  steps {digest.steps:6d}  "
              f"sha256 {digest.hash.hexdigest()}")


if __name__ == "__main__":
    main()

"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

Every workload runs once at tiny size, untraced and traced, and must print
every metric that BENCHMARK.json names, with its unit.  The gates must
reject deliberately wrong results.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import run

run.load_program()

import tracing  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from smoothmax import agd, baselines, meb  # noqa: E402
from smoothmax.testkit import RandomQuadraticFamily, random_point_cloud  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
MANIFEST_KEYS = {"seed", "instances", "nproc", "blas_threads", "python", "numpy", "scipy",
                 "git_commit"}


def test_spec_names_the_workloads_the_benchmark_has():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    result, manifest = run.run_workload(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {key: m["unit"] for key, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert MANIFEST_KEYS <= set(manifest)
    assert all({"n", "d", "eps"} <= set(label) for label in manifest["instances"]
               if name != "baselines" or label["call"] == "badoiu_clarkson")
    tracing.assert_untraced()
    values = {key: m["value"] for key, m in result["metrics"].items()}
    if trace:
        # Self times of every layer plus the unattributed remainder make up
        # the traced solve time.
        self_ms = sum(v for key, v in values.items() if key.endswith(".self_ms"))
        assert values["trace.unattributed_ms"] >= 0
        assert self_ms + values["trace.unattributed_ms"] == pytest.approx(
            values["trace.solve_ms"], rel=1e-9)
    else:
        assert manifest["notes"]["fail_ratio"]["value"] == 0
        assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("name, evals", [("meb-stream", 1.0), ("minmax-observed", 2.0)])
def test_evals_per_iteration_counts_the_observer_pass(name, evals):
    result, _ = run.run_workload(name, seed=4, seconds=0, trace=True, tiny=True)
    assert result["metrics"]["agd.evals_per_iteration"]["value"] == pytest.approx(evals, rel=0.01)


def test_meb_stream_covers_every_offset():
    _, manifest = run.run_workload("meb-stream", seed=5, seconds=0, trace=False, tiny=True)
    assert {label["offset"] for label in manifest["instances"]} == set(workloads.OFFSETS)


def test_wrappers_are_restored():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracing.assert_untraced()
    finally:
        tracer.uninstall()
    tracing.assert_untraced()


def test_meb_gate_rejects_a_radius_scaled_by_1_05():
    cloud = random_point_cloud(11, 300, 4, "gaussian")
    exact = baselines.welzl_exact(cloud).radius
    result = meb.solve_meb(cloud, meb.MebConfig(0.01))
    assert workloads.meb_error(cloud.points, result.center, result.radius, 0.01, exact) is None
    assert workloads.meb_error(cloud.points, result.center, 1.05 * result.radius, 0.01,
                               exact) is not None


def test_meb_gate_rejects_a_ball_that_misses_a_point():
    cloud = random_point_cloud(12, 300, 3, "clustered")
    exact = baselines.welzl_exact(cloud)
    assert workloads.exact_error(cloud.points, exact.center, exact.radius, exact.radius) is None
    assert workloads.exact_error(cloud.points, exact.center + 0.1, exact.radius,
                                 exact.radius) is not None


def test_minmax_gate_rejects_a_value_raised_by_two_eps():
    family = RandomQuadraticFamily.from_seed(13, 6, 3)
    f_star = workloads.epigraph_minimum(family)
    distance = float(np.max(np.linalg.norm(family.centers, axis=1)))
    report = agd.run_to_gap(family, family.true_constants(domain_radius=6.0),
                            agd.OptimizerConfig(epsilon=0.1, x1=np.zeros(3),
                                                initial_distance_bound=distance))
    f_final = workloads.quadratic_max(family, report.x_final)
    assert workloads.minmax_error(f_final, f_star, report.gap_certificate, 0.1) is None
    assert workloads.minmax_error(f_final + 0.2, f_star, report.gap_certificate, 0.1) is not None


def test_cli_gate_rejects_a_bad_epsilon_flag(tmp_path):
    cloud = random_point_cloud(14, 200, 3, "gaussian")
    radius = baselines.welzl_exact(cloud).radius
    csv_path = tmp_path / "cloud.csv"
    workloads.write_csv(csv_path, cloud.points)
    label = {"n": 200, "d": 3}
    good = workloads.cli_instance(cloud, label, 0.1, radius, csv_path, tmp_path / "good.json")
    assert good.check(good.solve(None)) is None
    for flag in ("1.5", "abc"):
        bad = workloads.cli_instance(cloud, label, 0.1, radius, csv_path, tmp_path / "bad.json",
                                     epsilon_flag=flag)
        assert bad.check(bad.solve(None)) is not None


def test_cli_gate_rejects_a_missing_field(tmp_path):
    cloud = random_point_cloud(15, 50, 2, "gaussian")
    radius = baselines.welzl_exact(cloud).radius
    out_path = tmp_path / "partial.json"
    instance = workloads.cli_instance(cloud, {}, 0.1, radius, tmp_path / "unused.csv", out_path)
    out_path.write_text(json.dumps({"center": [0.0, 0.0], "iterations": 1,
                                    "planned_iterations": 1}))
    assert instance.check(0) is not None

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from smoothmax import (
    MebConfig,
    OptimizerConfig,
    PointCloud,
    SmoothingParams,
    badoiu_clarkson,
    required_iterations_general,
    required_iterations_meb,
    run_online,
    run_to_gap,
    smooth_gradient,
    smooth_hessian,
    smooth_value,
    solve_meb,
    welzl_exact,
)
from smoothmax.families import DomainConstants
from smoothmax.meb import BoundingSphereFamily
from smoothmax.testkit import (
    DISTRIBUTIONS,
    RandomQuadraticFamily,
    finite_diff_gradient,
    finite_diff_jacobian,
    grid_oracle_minimize,
    random_point_cloud,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(criterion: int, description: str, failures: list, elapsed: float,
           budget: float | None = None):
    ok = not failures and (budget is None or elapsed <= budget)
    status = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s{budget_note}) - {description}")
    assert not failures, failures[:5]
    if budget is not None:
        assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeded budget {budget}s"


def test_criterion_1_sandwich_bound():
    start = time.perf_counter()
    failures = []
    smoothers = [0.1, 1.0, 10.0, 100.0, 1e4]
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        fam = RandomQuadraticFamily.from_seed(
            seed, n=int(rng.integers(1, 17)), dim=int(rng.integers(1, 9))
        )
        x = rng.standard_normal(fam.dim)
        s = smoothers[seed % len(smoothers)]
        value = smooth_value(fam, SmoothingParams(s), x)
        f_max = float(np.max(fam.values_at(x)))
        scale = max(abs(f_max), 1.0)
        if value < f_max - 1e-9 * scale or value > f_max + math.log(fam.n) / s + 1e-9 * scale:
            failures.append((seed, s, f_max, value))
    report(1, "sandwich bound over 1000 random families", failures,
           time.perf_counter() - start, budget=5.0)


def test_criterion_2_derivative_consistency():
    start = time.perf_counter()
    failures = []
    for trial in range(500):
        rng = np.random.default_rng(10_000 + trial)
        fam = RandomQuadraticFamily.from_seed(
            10_000 + trial, n=int(rng.integers(2, 9)), dim=int(rng.integers(1, 6))
        )
        s = float(rng.uniform(0.5, 8.0))
        params = SmoothingParams(s)
        x = rng.standard_normal(fam.dim)

        grad = smooth_gradient(fam, params, x)
        fd_grad = finite_diff_gradient(lambda p: smooth_value(fam, params, p), x)
        if np.linalg.norm(grad - fd_grad) > 1e-5 * max(np.linalg.norm(fd_grad), 1e-6):
            failures.append(("gradient", trial))
            continue

        hess = smooth_hessian(fam, params, x)
        fd_hess = finite_diff_jacobian(lambda p: smooth_gradient(fam, params, p), x)
        if np.linalg.norm(hess - fd_hess) > 1e-4 * max(np.linalg.norm(fd_hess), 1e-6):
            failures.append(("hessian", trial))
            continue
        if np.max(np.abs(hess - hess.T)) > 1e-10:
            failures.append(("symmetry", trial))
            continue

        constants = DomainConstants(
            2.0 * fam.curvatures, 2.0 * fam.curvatures, fam.pointwise_gradient_bound(x)
        )
        L = constants.min_strong_convexity
        U = s * constants.gradient_norm_bound ** 2 + constants.max_smoothness
        eigs = np.linalg.eigvalsh(hess)
        if np.min(eigs) < L - 1e-6 or np.max(eigs) > U + 1e-6:
            failures.append(("eigenvalues", trial, L, U, eigs))
    report(2, "gradient/Hessian finite-difference and eigenvalue consistency, 500 trials",
           failures, time.perf_counter() - start, budget=30.0)


def test_criterion_3_solver_gap_on_oracle_instances():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(20_000 + seed)
        dim = int(rng.integers(1, 4))
        fam = RandomQuadraticFamily.from_seed(20_000 + seed, n=int(rng.integers(2, 9)), dim=dim)
        fn = lambda p: float(np.max(fam.values_at(np.atleast_1d(p))))
        resolution = {1: 241, 2: 41, 3: 13}[dim]
        _, oracle_value = grid_oracle_minimize(
            fn, -3.0 * np.ones(dim), 3.0 * np.ones(dim), resolution
        )
        constants = fam.true_constants(domain_radius=6.0)
        for eps in (0.1, 0.01):
            config = OptimizerConfig(epsilon=eps, x1=np.zeros(dim), initial_distance_bound=4.0)
            rep = run_to_gap(fam, constants, config)
            if rep.f_final - oracle_value > eps + 1e-9:
                failures.append((seed, eps, rep.f_final - oracle_value))
    report(3, "run_to_gap achieves requested gap on 100 oracle-checked solves",
           failures, time.perf_counter() - start, budget=60.0)


def test_criterion_4_meb_approximation_guarantee():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(20, 501))
        dim = int(rng.integers(2, 11))
        dist = DISTRIBUTIONS[seed % 3]
        cloud = random_point_cloud(30_000 + seed, n, dim, dist)
        exact = welzl_exact(cloud, seed=seed).radius
        for eps in (0.1, 0.01):
            result = solve_meb(cloud, MebConfig(eps))
            if result.radius > (1.0 + eps) * exact * (1.0 + 1e-9):
                failures.append((seed, n, dim, dist, eps, result.radius / exact))
    report(4, "solve_meb radius <= (1+eps) R_welzl on 50 clouds x 2 epsilons",
           failures, time.perf_counter() - start, budget=120.0)


def test_criterion_5_iteration_formula_golden_values():
    start = time.perf_counter()
    failures = []
    if required_iterations_meb(1.0, 2) != 28:
        failures.append(("meb", required_iterations_meb(1.0, 2)))
    if required_iterations_general(0.1, 2, 1.0, 2.0, 2.0, 1.0) != 12:
        failures.append(("general", required_iterations_general(0.1, 2, 1.0, 2.0, 2.0, 1.0)))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "verify_iteration_formulas.py")],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        failures.append(("independent-script", proc.stdout, proc.stderr))
    report(5, "iteration-formula golden values (28 and 12) plus independent script",
           failures, time.perf_counter() - start)


def test_criterion_6_scaling_comparison():
    start = time.perf_counter()
    failures = []
    epsilons = [0.2, 0.1, 0.05, 0.025]
    proc = subprocess.run(
        [sys.executable, "-m", "smoothmax.cli", "bench",
         "--n", "200", "--dim", "5", "--seed", "0",
         "--epsilons", ",".join(str(e) for e in epsilons),
         "--algorithms", "smooth,coreset"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        failures.append(("bench-exit", proc.returncode, proc.stderr))
    else:
        rows = json.loads(proc.stdout)["rows"]
        inv_eps = np.log([1.0 / e for e in epsilons])
        smooth = [r["planned_iterations"] for r in rows if r["algorithm"] == "smooth"]
        coreset = [r["planned_iterations"] for r in rows if r["algorithm"] == "coreset"]
        smooth_slope = np.polyfit(inv_eps, np.log(smooth), 1)[0]
        coreset_slope = np.polyfit(inv_eps, np.log(coreset), 1)[0]
        if not 0.45 <= smooth_slope <= 0.75:
            failures.append(("smooth-slope", smooth_slope))
        if not 1.9 <= coreset_slope <= 2.1:
            failures.append(("coreset-slope", coreset_slope))
    report(6, "log-log iteration slopes: smooth in [0.45,0.75], coreset in [1.9,2.1]",
           failures, time.perf_counter() - start, budget=60.0)


def test_criterion_7_runtime_gradient_bounds():
    start = time.perf_counter()
    failures = []
    for seed in range(20):
        rng = np.random.default_rng(40_000 + seed)
        cloud = random_point_cloud(
            40_000 + seed, int(rng.integers(10, 101)), int(rng.integers(2, 6)),
            DISTRIBUTIONS[seed % 3],
        )
        exact = welzl_exact(cloud, seed=seed).radius
        family = BoundingSphereFamily(cloud)
        records = []
        result = solve_meb(
            cloud, MebConfig(0.05),
            iterate_observer=lambda t, x, y, g: records.append((x.copy(), y.copy())),
        )
        if result.solve_report is None:
            continue
        params = SmoothingParams(result.solve_report.s)
        epsilon_gap = 2.0 * math.log(cloud.n) / result.solve_report.s
        core_bound = math.sqrt(5.0 * exact ** 2 + 0.5 * epsilon_gap)
        for x_t, y_t in records:
            gx = float(np.linalg.norm(smooth_gradient(family, params, x_t)))
            gy = float(np.linalg.norm(smooth_gradient(family, params, y_t)))
            if gx > 2.0 * core_bound + 1e-6 or gy > 6.0 * core_bound + 1e-6:
                failures.append((seed, gx, gy, core_bound))
                break
    report(7, "per-iterate gradient norms within the 2x/6x analytic bounds, 20 instances",
           failures, time.perf_counter() - start)


def test_criterion_8_equivariance_suite():
    start = time.perf_counter()
    failures = []
    for seed in range(50):
        rng = np.random.default_rng(50_000 + seed)
        cloud = random_point_cloud(
            50_000 + seed, int(rng.integers(10, 81)), int(rng.integers(2, 5)),
            DISTRIBUTIONS[seed % 3],
        )
        shift = rng.standard_normal(cloud.dim) * 5.0
        scale = float(rng.uniform(0.5, 4.0))
        runs = {
            "smooth": lambda c: solve_meb(c, MebConfig(0.1)),
            "welzl": lambda c: welzl_exact(c, seed=seed),
            "coreset": lambda c: badoiu_clarkson(c, 0.1),
        }
        for name, run in runs.items():
            base = run(cloud)
            moved = run(PointCloud(cloud.points + shift))
            scaled = run(PointCloud(cloud.points * scale))
            ref = max(abs(base.radius), 1e-12)
            if (np.max(np.abs(moved.center - (base.center + shift))) > 1e-9 * max(1.0, ref)
                    or abs(moved.radius - base.radius) > 1e-9 * ref):
                failures.append((seed, name, "translation"))
            if (np.max(np.abs(scaled.center - base.center * scale)) > 1e-9 * max(1.0, scale * ref)
                    or abs(scaled.radius - base.radius * scale) > 1e-9 * scale * ref):
                failures.append((seed, name, "scale"))
    report(8, "translation/scale equivariance of all three solvers, 50 instances",
           failures, time.perf_counter() - start)


def test_criterion_9_online_scheduler():
    start = time.perf_counter()
    failures = []
    for seed in range(5):
        rng = np.random.default_rng(60_000 + seed)
        fam = RandomQuadraticFamily.from_seed(60_000 + seed, n=int(rng.integers(2, 9)), dim=2)
        fn = lambda p: float(np.max(fam.values_at(p)))
        _, oracle_value = grid_oracle_minimize(fn, [-3.0, -3.0], [3.0, 3.0], 41)
        constants = fam.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.8, x1=np.zeros(2), initial_distance_bound=4.0)
        reports = run_online(fam, lambda eps: constants, 0.8, 4, config)
        for k, rep in enumerate(reports):
            eps_k = 0.8 / 2 ** k
            if rep.gap_certificate > eps_k + 1e-12:
                failures.append((seed, k, "certificate", rep.gap_certificate))
            if rep.f_final - oracle_value > eps_k + 1e-9:
                failures.append((seed, k, "oracle-gap", rep.f_final - oracle_value))
        total = sum(r.iterations_run for r in reports)
        single = run_to_gap(
            fam, constants,
            OptimizerConfig(epsilon=0.1, x1=np.zeros(2), initial_distance_bound=4.0),
        )
        if total > 4 * single.iterations_run:
            failures.append((seed, "cumulative", total, single.iterations_run))
    report(9, "epsilon-halving rounds certify their gap; cumulative work <= 4x final round",
           failures, time.perf_counter() - start)


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    pts = tmp_path / "pts.csv"
    np.savetxt(pts, np.random.default_rng(0).standard_normal((30, 3)), delimiter=",")

    def strip_wall_time(text: str) -> str:
        # bench's us_per_step is wall_time_ms per step, so it is a timing too.
        return re.sub(r'"(wall_time_ms|us_per_step)": [0-9.eE+-]+', r'"\1": X', text)

    solve_args = [sys.executable, "-m", "smoothmax.cli", "solve", "--input", str(pts),
                  "--algorithm", "smooth", "--epsilon", "0.05", "--seed", "7"]
    bench_args = [sys.executable, "-m", "smoothmax.cli", "bench", "--n", "40", "--dim", "3",
                  "--seed", "7", "--epsilons", "0.2,0.1", "--algorithms", "smooth,coreset"]
    for label, args in (("solve", solve_args), ("bench", bench_args)):
        a = subprocess.run(args, capture_output=True, text=True)
        b = subprocess.run(args, capture_output=True, text=True)
        if a.returncode != 0 or b.returncode != 0:
            failures.append((label, "exit", a.returncode, b.returncode))
        elif strip_wall_time(a.stdout) != strip_wall_time(b.stdout):
            failures.append((label, "output-mismatch"))
    report(10, "byte-identical JSON across repeated runs (modulo wall_time_ms, us_per_step)",
           failures, time.perf_counter() - start)

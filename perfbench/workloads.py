"""The benchmark's workloads: seeded inputs, the call each solve times, and its gate.

Every workload is a closed loop with one caller.  Set-up turns the workload
seed into instances and computes each instance's reference with code that
is independent of the solver under test: the exact Welzl radius for
bounding spheres, a SciPy SLSQP epigraph solve for the min-max families.
The instance shapes are fixed per workload and only the data depend on the
seed, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import optimize

from smoothmax import agd, baselines, cli, meb
from smoothmax.testkit import DISTRIBUTIONS, RandomQuadraticFamily, random_point_cloud

from tracing import PROGRESS_SPAN

# Relative roundoff slack of the acceptance suite's radius comparisons.
RADIUS_SLACK = 1e-9
# Absolute slack of the acceptance suite's min-max gap comparison.
VALUE_SLACK = 1e-9
CERTIFICATE_SLACK = 1e-12

# n grows geometrically over 200..2000 and d covers 2..10, so solve costs
# spread evenly and the median solve does not sit on a gap between clusters
# of costs.  Gaussian and sphere clouds keep to low d, where the Welzl
# reference in set-up is quick.
MEB_STREAM_CLOUDS = (
    (200, 2, "gaussian"), (267, 5, "sphere_surface"), (356, 10, "clustered"),
    (474, 3, "gaussian"), (632, 6, "sphere_surface"), (843, 7, "clustered"),
    (1125, 4, "gaussian"), (1500, 3, "sphere_surface"), (2000, 8, "clustered"),
)
MEB_STREAM_EPSILONS = (0.1, 0.03, 0.01)
# Far offsets make a kernel that drops centring lose precision visibly.
OFFSETS = (0.0, 1e6, 1e8)

# Component counts step evenly through 2..40 and d through 2..8, so that
# solve costs spread evenly.  A family's planned iteration count varies by
# ~10% with its seed (by ~30% at n = 2); 24 families keep the workload's
# total steady across seeds.
MINMAX_SIZES = tuple(round(2 + 38 * k / 23) for k in range(24))
MINMAX_ONLINE_EVERY = 4  # every fourth family is also solved by run_online
MINMAX_EPSILON = 0.1
ONLINE_EPSILON_0 = 0.8  # four halvings end at MINMAX_EPSILON
ONLINE_ROUNDS = 4
DOMAIN_RADIUS = 6.0


def _baseline_clouds(count: int = 16):
    """n*d grows geometrically from 1000*2 to 5000*8, so the solve costs
    spread out.  Welzl's running time varies far more on gaussian clouds
    above d = 4, which are left out."""
    clouds = []
    for k in range(count):
        d = 2 + round(6 * k / (count - 1))
        n = min(5000, max(1000, 50 * round(2000 * 20 ** (k / (count - 1)) / d / 50)))
        dist = DISTRIBUTIONS[k % 3] if d <= 4 else ("sphere_surface", "clustered")[k % 2]
        clouds.append((n, d, dist))
    return tuple(clouds)


BASELINE_CLOUDS = _baseline_clouds()
BASELINE_EPSILONS = (0.1, 0.03)
# Every cloud gets the eps=0.03 core-set run; every fourth also gets the
# eps=0.1 run (1/11 of the cost) and every other one a Welzl run (mostly
# cheaper than 20 ms).  With all three on every cloud, the cheap solves are
# half the workload and the median solve sits on the gap in between.
BASELINE_COARSE_EVERY = 4
BASELINE_WELZL_EVERY = 2

# Fields of the ``solve`` JSON that a caller relies on.
CLI_FIELDS = ("center", "radius", "iterations", "planned_iterations")


@dataclass
class Instance:
    """One timed call.  ``solve(tracer)`` makes it; ``check(output)`` returns
    None when the output passes the gate, else the reason it failed."""

    label: dict
    solve: Callable
    check: Callable


# --- gates ------------------------------------------------------------------

def ball_error(points, center, radius) -> str | None:
    center = np.asarray(center, dtype=float)
    if center.shape != (points.shape[1],) or not np.all(np.isfinite(center)):
        return f"center has shape {center.shape} or is not finite"
    if not math.isfinite(radius):
        return f"radius {radius!r} is not finite"
    farthest = float(np.max(np.linalg.norm(points - center, axis=1)))
    if farthest > radius * (1.0 + RADIUS_SLACK):
        return f"a point lies at {farthest!r}, outside the radius {radius!r}"
    return None


def meb_error(points, center, radius, epsilon, reference_radius) -> str | None:
    """The ball contains every point and its radius is <= (1+eps) R."""
    error = ball_error(points, center, radius)
    bound = (1.0 + epsilon) * reference_radius * (1.0 + RADIUS_SLACK)
    if error is None and radius > bound:
        error = f"radius {radius!r} exceeds (1+eps)R = {bound!r}"
    return error


def exact_error(points, center, radius, reference_radius) -> str | None:
    """The ball contains every point and matches the seed-0 radius."""
    error = ball_error(points, center, radius)
    if error is None and abs(radius - reference_radius) > RADIUS_SLACK * reference_radius:
        error = f"radius {radius!r} differs from the seed-0 radius {reference_radius!r}"
    return error


def minmax_error(f_value, f_star, certificate, epsilon) -> str | None:
    if not math.isfinite(f_value) or f_value - f_star > epsilon + VALUE_SLACK:
        return f"f_final - f* = {f_value - f_star!r} exceeds eps {epsilon}"
    if not certificate <= epsilon + CERTIFICATE_SLACK:
        return f"gap certificate {certificate!r} exceeds eps {epsilon}"
    return None


# --- helpers ----------------------------------------------------------------

def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31, size=count)]


def shuffled(instances: list[Instance], seed: int) -> list[Instance]:
    order = np.random.default_rng([seed, 1]).permutation(len(instances))
    return [instances[i] for i in order]


def translated_reference(radius: float, dim: int, offset: float) -> float:
    """Upper bound on the exact radius of the cloud after adding ``offset``.

    Rounding each translated coordinate moves a point by at most
    sqrt(d) ulp, which moves the optimal radius by no more than that.
    """
    return radius + math.sqrt(dim) * float(np.spacing(2.0 * offset))


def write_csv(path: Path, points: np.ndarray) -> None:
    # repr round-trips every float64 exactly, so the parsed cloud is the
    # cloud the reference radius was computed on.
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in points.tolist()))
        fh.write("\n")


# --- meb-stream ---------------------------------------------------------------

def _meb_instance(cloud, label, epsilon, offset, radius):
    moved = meb.PointCloud(cloud.points + offset)
    reference = translated_reference(radius, cloud.dim, offset)

    def solve(tracer):
        return meb.solve_meb(moved, meb.MebConfig(epsilon))

    def check(result):
        return meb_error(moved.points, result.center, result.radius, epsilon, reference)

    return Instance(dict(label, eps=epsilon, offset=offset, call="solve_meb"), solve, check)


def setup_meb_stream(seed: int, tiny: bool, workdir: Path) -> list[Instance]:
    """Every cloud is solved at every epsilon.  Offsets rotate so that each
    cloud meets each offset once and each epsilon meets each offset on a
    third of the clouds.  The untranslated third is written to CSV and
    solved through the CLI."""
    clouds = tuple((40, 3, dist) for dist in DISTRIBUTIONS) if tiny else MEB_STREAM_CLOUDS
    epsilons = (0.1,) if tiny else MEB_STREAM_EPSILONS
    instances = []
    for k, ((n, d, dist), cloud_seed) in enumerate(zip(clouds, instance_seeds(seed, len(clouds)))):
        cloud = random_point_cloud(cloud_seed, n, d, dist)
        radius = baselines.welzl_exact(cloud).radius
        label = {"n": n, "d": d, "distribution": dist, "cloud_seed": cloud_seed}
        for j, epsilon in enumerate(epsilons):
            offset = OFFSETS[(k + j) % len(OFFSETS)]
            if offset:
                instances.append(_meb_instance(cloud, label, epsilon, offset, radius))
            else:
                csv_path = workdir / f"cloud{len(instances)}.csv"
                write_csv(csv_path, cloud.points)
                instances.append(cli_instance(cloud, label, epsilon, radius, csv_path,
                                              csv_path.with_suffix(".json")))
    return shuffled(instances, seed)


# --- the CLI share of meb-stream -------------------------------------------------

def run_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects malformed flags this way
        return exc.code if isinstance(exc.code, int) else 2


def cli_instance(cloud, label, epsilon, radius, csv_path: Path, out_path: Path,
                 epsilon_flag: str | None = None) -> Instance:
    argv = ["solve", "--input", str(csv_path), "--algorithm", "smooth",
            "--epsilon", epsilon_flag or repr(epsilon), "--output", str(out_path)]

    def solve(tracer):
        return run_cli(argv)

    def check(exit_code):
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            with open(out_path) as fh:
                payload = json.load(fh)
            os.remove(out_path)
            missing = [key for key in CLI_FIELDS if key not in payload]
            if missing:
                return f"solve output lacks {missing}"
            return meb_error(cloud.points, payload["center"], float(payload["radius"]),
                             epsilon, radius)
        except (OSError, ValueError, TypeError) as exc:
            return f"unreadable solve output: {exc!r}"

    return Instance(dict(label, eps=epsilon, offset=0.0, call="cli solve"), solve, check)


# --- minmax-observed ------------------------------------------------------------

def quadratic_max(family: RandomQuadraticFamily, x) -> float:
    diffs = np.asarray(x, dtype=float) - family.centers
    return float(np.max(family.curvatures * np.sum(diffs * diffs, axis=1)))


def epigraph_minimum(family: RandomQuadraticFamily) -> float:
    """f* by SLSQP on min t s.t. a_i ||x - c_i||^2 <= t, computed from the
    family's raw centers and curvatures.  Returns the max at the SLSQP
    point, an upper bound on f* that is feasible by construction."""
    a, c = family.curvatures, family.centers
    d = c.shape[1]
    last = np.zeros(d + 1)
    last[d] = 1.0

    def slack(z):
        diffs = z[:d] - c
        return z[d] - a * np.sum(diffs * diffs, axis=1)

    def slack_jacobian(z):
        jac = np.empty((a.size, d + 1))
        jac[:, :d] = -2.0 * a[:, None] * (z[:d] - c)
        jac[:, d] = 1.0
        return jac

    x0 = c.mean(axis=0)
    res = optimize.minimize(
        lambda z: z[d], np.append(x0, quadratic_max(family, x0)), jac=lambda z: last,
        method="SLSQP", constraints=[{"type": "ineq", "fun": slack, "jac": slack_jacobian}],
        options={"ftol": 1e-10, "maxiter": 1000},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP reference solve failed: {res.message}")
    return quadratic_max(family, res.x[:d])


def _minmax_instance(family, label, constants, config, f_star, online: bool):
    def solve(tracer):
        rows = []
        progress = lambda t, value, grad_norm: rows.append((t, value, grad_norm))
        if tracer is not None:
            progress = tracer.wrap(PROGRESS_SPAN, progress)
        if online:
            reports = agd.run_online(family, lambda eps: constants, ONLINE_EPSILON_0,
                                     ONLINE_ROUNDS, config, progress=progress)
        else:
            reports = [agd.run_to_gap(family, constants, config, progress=progress)]
        return reports, rows

    def check(output):
        reports, rows = output
        if len(rows) != sum(r.iterations_run for r in reports):
            return f"progress saw {len(rows)} iterations, reports ran " \
                   f"{sum(r.iterations_run for r in reports)}"
        last = reports[-1]
        return minmax_error(quadratic_max(family, last.x_final), f_star,
                            last.gap_certificate, MINMAX_EPSILON)

    kind = f"run_online({ONLINE_EPSILON_0}, {ONLINE_ROUNDS})" if online else "run_to_gap"
    return Instance(dict(label, eps=MINMAX_EPSILON, call=kind), solve, check)


def setup_minmax_observed(seed: int, tiny: bool, workdir: Path) -> list[Instance]:
    sizes = (3,) if tiny else MINMAX_SIZES
    instances = []
    for k, (n, family_seed) in enumerate(zip(sizes, instance_seeds(seed, len(sizes)))):
        d = 2 + k % 7
        family = RandomQuadraticFamily.from_seed(family_seed, n, d)
        constants = family.true_constants(domain_radius=DOMAIN_RADIUS)
        # The minimizer is a convex combination of the centers, so the
        # largest center norm bounds its distance from x1 = 0.
        distance = float(np.max(np.linalg.norm(family.centers, axis=1)))
        config = agd.OptimizerConfig(epsilon=MINMAX_EPSILON, x1=np.zeros(d),
                                     initial_distance_bound=distance)
        f_star = epigraph_minimum(family)
        label = {"n": n, "d": d, "family_seed": family_seed, "f_star": f_star}
        instances.append(_minmax_instance(family, label, constants, config, f_star, False))
        if k % MINMAX_ONLINE_EVERY == 0:
            instances.append(_minmax_instance(family, label, constants, config, f_star, True))
    return shuffled(instances, seed)


# --- baselines ------------------------------------------------------------------

def _coreset_instance(cloud, label, epsilon, radius):
    def solve(tracer):
        return baselines.badoiu_clarkson(cloud, epsilon)

    def check(result):
        return meb_error(cloud.points, result.center, result.radius, epsilon, radius)

    return Instance(dict(label, call="badoiu_clarkson", eps=epsilon), solve, check)


def _welzl_instance(cloud, label, order_seed, radius):
    def solve(tracer):
        return baselines.welzl_exact(cloud, seed=order_seed)

    def check(result):
        return exact_error(cloud.points, result.center, result.radius, radius)

    return Instance(dict(label, call="welzl_exact", order_seed=order_seed), solve, check)


def setup_baselines(seed: int, tiny: bool, workdir: Path) -> list[Instance]:
    clouds = ((200, 2, "gaussian"),) if tiny else BASELINE_CLOUDS
    instances = []
    for k, ((n, d, dist), cloud_seed) in enumerate(zip(clouds, instance_seeds(seed, len(clouds)))):
        cloud = random_point_cloud(cloud_seed, n, d, dist)
        radius = baselines.welzl_exact(cloud, seed=0).radius
        label = {"n": n, "d": d, "distribution": dist, "cloud_seed": cloud_seed}
        coarse, fine = BASELINE_EPSILONS
        if k % BASELINE_COARSE_EVERY == 0:
            instances.append(_coreset_instance(cloud, label, coarse, radius))
        instances.append(_coreset_instance(cloud, label, fine, radius))
        if k % BASELINE_WELZL_EVERY == 0:
            instances.append(_welzl_instance(cloud, label, 1 + k, radius))
    return shuffled(instances, seed)


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "meb-stream": setup_meb_stream,
    "minmax-observed": setup_minmax_observed,
    "baselines": setup_baselines,
}

#!/usr/bin/env python3
"""Iteration-count scaling of the smooth solver vs the core-set baseline.

Runs both algorithms over a range of epsilons on one seeded cloud and fits
log-log slopes of iterations against 1/epsilon.  Expected: ~0.5 for the
smooth solver's planned count (sqrt scaling, modulo the log factor) and 2.0
for the ceil(1/eps^2) core-set iteration.  The smooth solver's run count,
where its lower bound certified the gap, is printed next to the planned one,
with the certified ratio radius / certified_radius_lower (a proven bound on
radius / R).
"""

import argparse
import math

import numpy as np

from smoothmax import MebConfig, badoiu_clarkson, solve_meb, welzl_exact
from smoothmax.testkit import random_point_cloud


def fit_slope(inv_eps, iters):
    return np.polyfit(np.log(inv_eps), np.log(iters), 1)[0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--epsilons", default="0.2,0.1,0.05,0.025")
    args = ap.parse_args()

    epsilons = [float(t) for t in args.epsilons.split(",")]
    cloud = random_point_cloud(args.seed, args.n, args.dim, "gaussian")
    exact = welzl_exact(cloud, seed=args.seed).radius

    smooth_iters, coreset_iters = [], []
    print(f"{'eps':>8} {'smooth_planned':>15} {'smooth_run':>11} {'stop_reason':>12} "
          f"{'certified_ratio':>16} {'coreset':>9} {'smooth_radius/R':>16}")
    for eps in epsilons:
        res = solve_meb(cloud, MebConfig(eps))
        base = badoiu_clarkson(cloud, eps)
        smooth_iters.append(res.planned_iterations)
        coreset_iters.append(base.iterations)
        print(f"{eps:>8} {res.planned_iterations:>15} {res.iterations:>11} "
              f"{res.solve_report.stop_reason:>12} {res.certified_ratio:>16.8f} "
              f"{base.iterations:>9} "
              f"{res.radius / exact:>16.8f}")

    inv = [1.0 / e for e in epsilons]
    print(f"smooth  log-log slope: {fit_slope(inv, smooth_iters):.3f}")
    print(f"coreset log-log slope: {fit_slope(inv, coreset_iters):.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Iteration-count scaling of the smooth solver vs the core-set baseline.

Runs both algorithms over a range of epsilons on one seeded cloud and fits
log-log slopes of iterations against 1/epsilon.  Expected: ~0.5 for the
smooth solver's planned count (sqrt scaling, modulo the log factor) and 2.0
for the ceil(1/eps^2) core-set iteration.  The smooth solver's run count,
where its lower bound certified the gap, is printed next to the planned one,
with the certified ratio radius / certified_radius_lower (a proven bound on
radius / R).  A cloud solved without steps (one point, or all coincident) is
exact: it prints ``certified`` and ``-`` as the CLI does, and a slope over
counts that include 0 is not fitted.  Above the exact solver's dimension
limit, radius / R prints ``-``.

    PYTHONPATH=src python scripts/scaling_experiment.py --n 2000 --epsilons 0.1,0.01
"""

import argparse
import math

import numpy as np

from smoothmax import MebConfig, badoiu_clarkson, solve_meb, welzl_exact
from smoothmax.baselines import WELZL_MAX_DIM
from smoothmax.testkit import random_point_cloud


def slope_text(inv_eps, iters):
    if min(iters) <= 0:
        return "- (a count is 0)"
    return f"{np.polyfit(np.log(inv_eps), np.log(iters), 1)[0]:.3f}"


def dash_or(value, spec):
    return "-" if value is None else format(value, spec)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--dim", type=int, default=5)
    ap.add_argument("--epsilons", default="0.2,0.1,0.05,0.025")
    args = ap.parse_args()

    epsilons = [float(t) for t in args.epsilons.split(",")]
    cloud = random_point_cloud(args.seed, args.n, args.dim, "gaussian")
    exact = welzl_exact(cloud, seed=args.seed).radius if args.dim <= WELZL_MAX_DIM else None

    smooth_iters, run_iters, coreset_iters = [], [], []
    print(f"{'eps':>8} {'smooth_planned':>15} {'smooth_run':>11} {'stop_reason':>12} "
          f"{'certified_ratio':>16} {'coreset':>9} {'smooth_radius/R':>16}")
    for eps in epsilons:
        res = solve_meb(cloud, MebConfig(eps))
        base = badoiu_clarkson(cloud, eps)
        smooth_iters.append(res.planned_iterations)
        run_iters.append(res.iterations)
        coreset_iters.append(base.iterations)
        report = res.solve_report
        stop_reason = "certified" if report is None else report.stop_reason
        print(f"{eps:>8} {res.planned_iterations:>15} {res.iterations:>11} "
              f"{stop_reason:>12} {dash_or(res.certified_ratio, '.8f'):>16} "
              f"{base.iterations:>9} "
              f"{dash_or(res.radius / exact if exact else None, '.8f'):>16}")

    inv = [1.0 / e for e in epsilons]
    print(f"smooth planned log-log slope: {slope_text(inv, smooth_iters)}")
    print(f"smooth run     log-log slope: {slope_text(inv, run_iters)}")
    print(f"coreset        log-log slope: {slope_text(inv, coreset_iters)}")


if __name__ == "__main__":
    main()

"""Smoothed min-max minimization and approximate minimal bounding spheres.

The max of finitely many strongly-convex smooth components is replaced by
its LogSumExp smooth substitute and minimized with accelerated gradient
descent; closed-form iteration counts certify the requested optimality
gap, and each solve stops early once a lower bound on the optimum proves it.
The bounding-sphere front end specializes every constant analytically
and is checked against an exact Welzl oracle and a core-set baseline.
"""

from .agd import (
    OptimizerConfig,
    SolveReport,
    agd_step,
    gap_bound,
    required_iterations_general,
    run_online,
    run_to_gap,
    smoother_for_gap,
)
from .baselines import badoiu_clarkson, welzl_exact
from .core import (
    condition_number,
    smooth_gradient,
    smooth_hessian,
    smooth_value,
    softmax_weights,
)
from .families import ComponentFamily, DomainConstants, SmoothingParams
from .meb import (
    BoundingSphereFamily,
    MebConfig,
    MebResult,
    PointCloud,
    centroid_init,
    farthest_sq_distance,
    required_iterations_meb,
    solve_meb,
)

__all__ = [
    "ComponentFamily",
    "DomainConstants",
    "SmoothingParams",
    "smooth_value",
    "softmax_weights",
    "smooth_gradient",
    "smooth_hessian",
    "condition_number",
    "OptimizerConfig",
    "SolveReport",
    "smoother_for_gap",
    "agd_step",
    "gap_bound",
    "required_iterations_general",
    "run_to_gap",
    "run_online",
    "PointCloud",
    "MebConfig",
    "MebResult",
    "BoundingSphereFamily",
    "centroid_init",
    "farthest_sq_distance",
    "required_iterations_meb",
    "solve_meb",
    "welzl_exact",
    "badoiu_clarkson",
]

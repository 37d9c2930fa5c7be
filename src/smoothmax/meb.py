"""(1 + eps)-approximate minimal bounding sphere via the smoothed solver.

The objective is f(x) = max_i ||x - c_i||^2.  Every constant the generic
solver needs is derived analytically: component curvature is exactly 2,
the radius bracket at the centroid gives the initial distance bound and the
first lower bound on R^2 (which, with each round's relative gap, sets the
smoother), and the gradient norm bound follows in closed form.  A solve is
a short sequence of warm-started rounds at relative gaps 1, 1/4, 1/16, ...
down to eps; each round stops as soon as its lower bound on R^2 certifies
its (1+e_k) radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .agd import (
    IterateObserver,
    OptimizerConfig,
    ProgressCallback,
    SolveReport,
    run_to_gap,
)
from .errors import ContractViolationError
from .families import ComponentFamily, DomainConstants


# Round k of a solve targets the relative gap max(eps, ROUND_GAP_RATIO^-k).
ROUND_GAP_RATIO = 4.0


@dataclass(frozen=True)
class PointCloud:
    """n points in R^d, one per row."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ContractViolationError(
                f"points must be a nonempty 2-D array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ContractViolationError("all coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class MebConfig:
    """relative_epsilon is the approximation slack: radius <= (1+eps) R."""

    relative_epsilon: float

    def __post_init__(self):
        if not 0 < self.relative_epsilon <= 1:
            raise ContractViolationError(
                f"relative_epsilon must be in (0, 1], got {self.relative_epsilon}"
            )


@dataclass(frozen=True)
class MebResult:
    center: np.ndarray
    radius: float
    iterations: int
    planned_iterations: int
    epsilon_gap_used: float
    radius_lower: float
    radius_upper: float
    solve_report: SolveReport | None = None
    # sqrt of the best certified lower bound on R^2 over the solve's rounds
    # (None from baselines).
    certified_radius_lower: float | None = None
    # radius / certified_radius_lower, a proven bound on radius / R; None
    # when the lower radius is 0 (or not computed).
    certified_ratio: float | None = None


class BoundingSphereFamily(ComponentFamily):
    """f_i(x) = ||x - c_i||^2; the batch paths are one GEMV each on the cloud
    centred once on its centroid m (P = C - m, which keeps far-offset clouds
    accurate): ||x - c_i||^2 = ||P_i||^2 - 2 P_i . (x - m) + ||x - m||^2."""

    def __init__(self, cloud: PointCloud):
        self.cloud = cloud
        self.n = cloud.n
        self.dim = cloud.dim
        self.centroid = centroid_init(cloud)
        # [P | 1]: one GEMV gives both w^T P and sum(w) for combined_gradient.
        self._centred_ones = np.hstack([cloud.points - self.centroid, np.ones((cloud.n, 1))])
        self.centred = self._centred_ones[:, :-1]
        self.centred_sq = np.einsum("ij,ij->i", self.centred, self.centred)

    def value_at(self, i: int, x: np.ndarray) -> float:
        """Scalar f_i(x): the reference the batch-path tests compare against;
        the solver reads only the batch hooks."""
        diff = np.asarray(x, dtype=float) - self.cloud.points[i]
        return float(diff @ diff)

    def gradient_at(self, i: int, x: np.ndarray) -> np.ndarray:
        """Scalar grad f_i(x), the test reference for ``combined_gradient``."""
        return 2.0 * (np.asarray(x, dtype=float) - self.cloud.points[i])

    def hessian_at(self, i: int, x: np.ndarray) -> np.ndarray:
        return 2.0 * np.eye(self.dim)

    def values_at(self, x: np.ndarray) -> np.ndarray:
        x_c = x - self.centroid
        values = self.centred @ (-2.0 * x_c)  # a new array, updated in place
        values += self.centred_sq
        values += x_c @ x_c
        return values

    def gradients_at(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (x - self.cloud.points)

    def combined_gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        weighted = weights @ self._centred_ones
        return 2.0 * (weighted[-1] * (x - self.centroid) - weighted[:-1])


def centroid_init(cloud: PointCloud) -> np.ndarray:
    """Arithmetic mean of the points; lies in their convex hull."""
    return cloud.points.mean(axis=0)


def farthest_sq_distance(cloud: PointCloud, x: np.ndarray) -> tuple[float, int]:
    """max_i ||x - c_i||^2 and the achieving index (lowest on ties)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cloud.dim,):
        raise ContractViolationError(
            f"query point has shape {x.shape}, cloud dimension is {cloud.dim}"
        )
    diffs = cloud.points - x
    sq = np.einsum("ij,ij->i", diffs, diffs)
    idx = int(np.argmax(sq))
    return float(sq[idx]), idx


def radius_bounds(f_at_x1: float) -> tuple[float, float]:
    """Bracket on the optimal radius from one objective value in the hull:
    sqrt(f(x1))/2 <= R <= sqrt(f(x1))."""
    if f_at_x1 < 0:
        raise ContractViolationError("squared distance cannot be negative")
    root = math.sqrt(f_at_x1)
    return 0.5 * root, root


def meb_gradient_bound(f_at_x1: float, epsilon_gap: float) -> float:
    """Common gradient norm bound over all iterates: 6 sqrt(5 f(x1) + eps/2)."""
    if f_at_x1 < 0 or not epsilon_gap > 0:
        raise ContractViolationError("need f_at_x1 >= 0 and epsilon_gap > 0")
    return 6.0 * math.sqrt(5.0 * f_at_x1 + 0.5 * epsilon_gap)


def required_iterations_meb(relative_epsilon: float, n: int) -> int:
    """Closed-form sufficient iteration count for the (1+eps) guarantee:
    ceil(1 + log(1 + 4/eps) sqrt(1 + 18 (1 + 20/eps) log n))."""
    if not 0 < relative_epsilon <= 1 or n < 1:
        raise ContractViolationError("need 0 < relative_epsilon <= 1 and n >= 1")
    if n == 1:
        return 1
    eps = relative_epsilon
    value = 1.0 + math.log(1.0 + 4.0 / eps) * math.sqrt(
        1.0 + 18.0 * (1.0 + 20.0 / eps) * math.log(n)
    )
    return math.ceil(value)


def solve_meb(
    cloud: PointCloud,
    config: MebConfig,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> MebResult:
    """Approximate minimal bounding sphere with radius <= (1+eps) R.

    Smoother continuation: round k is a ``run_to_gap`` solve at the relative
    gap e_k = max(eps, 4^-k) (1, 1/4, 1/16, ... down to eps), warm-started
    at the previous round's ``x_final`` (the centroid x1 for round 0).  Its
    absolute gap, which sets the smoother, is eps_abs = (2 e_k + e_k^2) lb
    with lb = max(f(x1) / 4, the highest lower bound the rounds so far
    proved).  Every pass's lower model bounds the true max, not f_s, so a
    bound stays valid under the next smoother, and lb <= R^2 keeps each
    round's a-priori guarantee.  A round's cap is the single-shot count for
    e_k, so the last round's is ``planned_iterations``.  A round stops
    once its lower bound lb on R^2 proves f_best <= (1+e_k)^2 lb
    (``OptimizerConfig.relative_epsilon``); a coarse round that reaches its
    cap still holds its (1+e_k) guarantee, and the last one gives
    radius <= (1+eps) certified_radius_lower <= (1+eps) R.

    ``iterations`` counts the steps of all rounds.  The observers see one
    step counter t across the solve (each round's t is offset by the steps
    of the rounds before it); the ``progress`` value is f_s at that round's
    smoother.
    """
    eps_rel = config.relative_epsilon
    family = BoundingSphereFamily(cloud)
    # x1 is the centroid, where the centred offset x~1 is 0.
    x1, f1 = family.centroid, float(family.centred_sq.max())

    if cloud.n == 1 or f1 == 0.0:
        # Single or fully coincident points: the centroid is the exact center.
        return MebResult(
            center=x1,
            radius=0.0,
            iterations=0,
            planned_iterations=0,
            epsilon_gap_used=0.0,
            radius_lower=0.0,
            radius_upper=0.0,
            certified_radius_lower=0.0,
        )

    lower, upper = radius_bounds(f1)
    planned = required_iterations_meb(eps_rel, cloud.n)
    x_start, lb_best, steps, round_gap = x1, -math.inf, 0, 1.0
    while True:
        round_gap = max(eps_rel, round_gap)
        epsilon_gap = (2.0 * round_gap + round_gap ** 2) * max(lower ** 2, lb_best)
        g_bound = meb_gradient_bound(f1, epsilon_gap)
        report = run_to_gap(
            family,
            DomainConstants.uniform(cloud.n, 2.0, 2.0, g_bound),
            OptimizerConfig(
                epsilon=epsilon_gap,
                x1=x_start,
                initial_distance_bound=math.sqrt(f1),
                max_iterations_override=required_iterations_meb(round_gap, cloud.n),
                relative_epsilon=round_gap,
            ),
            progress=_offset_progress(progress, steps),
            iterate_observer=_offset_observer(iterate_observer, steps),
        )
        steps += report.iterations_run
        lb_best = max(lb_best, report.lower_bound)
        x_start = report.x_final
        if round_gap == eps_rel:
            break
        round_gap /= ROUND_GAP_RATIO

    radius = math.sqrt(report.f_final)
    radius_lb = math.sqrt(max(lb_best, 0.0))
    return MebResult(
        center=report.x_final,
        radius=radius,
        iterations=steps,
        planned_iterations=planned,
        epsilon_gap_used=epsilon_gap,
        radius_lower=lower,
        radius_upper=upper,
        solve_report=report,
        certified_radius_lower=radius_lb,
        certified_ratio=radius / radius_lb if radius_lb > 0 else None,
    )


def _offset_progress(progress: ProgressCallback | None, offset: int) -> ProgressCallback | None:
    if progress is None or offset == 0:
        return progress
    return lambda t, value, grad_norm: progress(t + offset, value, grad_norm)


def _offset_observer(observer: IterateObserver | None, offset: int) -> IterateObserver | None:
    if observer is None or offset == 0:
        return observer
    return lambda state, grad: observer(replace(state, t=state.t + offset), grad)

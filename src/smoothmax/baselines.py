"""Reference algorithms: exact MEB (Gärtner's pivoting around Welzl's
move-to-front recursion) and the farthest-point core-set baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agd import MAX_PLANNED_ITERATIONS
from .errors import (
    ConfigurationError,
    ContractViolationError,
    SmoothmaxError,
    UnsupportedDimensionError,
)
from .meb import BoundingSphereFamily, MebResult, PointCloud, farthest_sq_distance

WELZL_MAX_DIM = 12

# Relative slack when testing sphere membership during the incremental
# construction; guards against re-adding boundary points due to roundoff.
_CONTAINS_SLACK = 1e-10


@dataclass(frozen=True)
class ExactMebResult:
    center: np.ndarray
    radius: float
    support: tuple[int, ...]


def _circumball(points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest sphere through all given points (their circumsphere within
    the affine hull).  Uses least squares so degenerate/affinely dependent
    boundary sets fall back to the subspace circumcenter."""
    base = points[0]
    if points.shape[0] == 1:
        return base.copy(), 0.0
    v = points[1:] - base  # k x d
    gram = v @ v.T
    rhs = 0.5 * np.einsum("ij,ij->i", v, v)
    coeffs, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = base + coeffs @ v
    diff = points - center
    r2 = float(np.max(np.einsum("ij,ij->i", diff, diff)))
    return center, r2


def _welzl_mtf(
    pts: np.ndarray, order: list[int], boundary: list[int]
) -> tuple[np.ndarray | None, float, list[int]]:
    if boundary:
        center, r2 = _circumball(pts[boundary])
    else:
        center, r2 = None, -1.0
    support = list(boundary)
    if len(boundary) == pts.shape[1] + 1:
        return center, r2, support
    i = 0
    while i < len(order):
        j = order[i]
        inside = False
        if center is not None:
            diff = pts[j] - center
            inside = float(diff @ diff) <= r2 * (1.0 + _CONTAINS_SLACK)
        if not inside:
            center, r2, support = _welzl_mtf(pts, order[:i], boundary + [j])
            order.pop(i)
            order.insert(0, j)
        i += 1
    return center, r2, support


def welzl_exact(cloud: PointCloud, seed: int = 0) -> ExactMebResult:
    """Exact minimal enclosing ball; deterministic given the seed.

    Pivoting (Gärtner, "Fast and robust smallest enclosing balls", 1999):
    each pass takes every squared distance to the current centre on the raw
    coordinates and picks the farthest point; if it lies outside, the ball
    is recomputed by the move-to-front recursion over the pivots found so
    far with that point on the boundary, and the point becomes the first
    pivot.  A pivot lies outside a ball holding every earlier pivot, so none
    repeats and there are at most n passes; the loop only ends on a pass
    that finds all n points inside.

    The seed picks the first pivot; the radius is unique, but on
    cospherical clouds the returned support may depend on it.
    Dimensions above 12 are refused (recursion constant grows too fast);
    use ``solve_meb`` instead, whose certified_radius_lower <= R <= radius
    brackets R within a proven (1+eps).
    """
    if cloud.dim > WELZL_MAX_DIM:
        raise UnsupportedDimensionError(
            f"welzl_exact supports dim <= {WELZL_MAX_DIM}, got {cloud.dim}; "
            "use solve_meb, whose certified radius bounds bracket R within (1+eps)"
        )
    pts = cloud.points
    first = int(np.random.default_rng(seed).integers(cloud.n))
    center, r2, support = pts[first].copy(), 0.0, [first]
    pivots = [first]
    diff = np.empty_like(pts)
    sq = np.empty(cloud.n)
    for _ in range(cloud.n):
        np.subtract(pts, center, out=diff)
        np.einsum("ij,ij->i", diff, diff, out=sq)
        k = int(sq.argmax())
        if sq[k] <= r2 * (1.0 + _CONTAINS_SLACK):
            break
        center, r2, support = _welzl_mtf(pts, list(pivots), [k])
        pivots.insert(0, k)
    else:
        raise SmoothmaxError(
            f"welzl_exact found no enclosing ball within {cloud.n} pivot passes"
        )
    return ExactMebResult(
        center=center,
        radius=math.sqrt(max(r2, 0.0)),
        support=tuple(sorted(int(i) for i in support)),
    )


def badoiu_clarkson(cloud: PointCloud, relative_epsilon: float) -> MebResult:
    """Farthest-point core-set iteration with ceil(1/eps^2) steps.

    c_0 is the first input point; step k moves c toward the farthest point
    by a 1/(k+1) fraction, so every iterate stays in the convex hull.  A
    count above ``agd.MAX_PLANNED_ITERATIONS`` is refused.

    Each step finds its farthest point with the smooth solver's O(nd)
    kernel, ``BoundingSphereFamily.farthest``: one GEMV on the family's
    coordinate-major table of the centred cloud and its squared norms, with
    no O(n) pass after it.  The two solvers' wall times thus compare like
    with like.  The centre moves in place, through one reused d-vector, by
    the same three IEEE operations as ``c + (c_i - c) / (k + 1)``.  The
    returned radius is taken on the raw coordinates, so it encloses every
    point exactly as computed.
    """
    if not 0 < relative_epsilon <= 1:
        raise ContractViolationError(
            f"relative_epsilon must be in (0, 1], got {relative_epsilon}"
        )
    points = cloud.points
    center = points[0].copy()
    iterations = 0
    if cloud.n > 1:
        # Any eps below 2^-16 plans 2^32 steps, so its square is never formed.
        iterations = math.ceil(1.0 / max(relative_epsilon, 2.0 ** -16) ** 2)
        if iterations > MAX_PLANNED_ITERATIONS:
            raise ConfigurationError(
                f"core-set count at eps={relative_epsilon} exceeds {MAX_PLANNED_ITERATIONS}"
            )
        family = BoundingSphereFamily(cloud)
        step = np.empty(cloud.dim)
        for k in range(1, iterations + 1):
            np.subtract(points[family.farthest(center)], center, out=step)
            step /= k + 1
            center += step

    f_final, _ = farthest_sq_distance(cloud, center)
    return MebResult(
        center=center,
        radius=math.sqrt(f_final),
        iterations=iterations,
        planned_iterations=iterations,
    )

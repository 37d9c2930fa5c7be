"""Reference algorithms: exact MEB (Gärtner's pivoting around Welzl's
move-to-front recursion, with each ball built incrementally on a push/pop
stack of boundary points) and the farthest-point core-set baseline, which
keeps a running sum of its picks in centred coordinates and adds up cached
score columns of the points it picks."""

from __future__ import annotations

import math

import numpy as np

from .agd import MAX_PLANNED_ITERATIONS
from .errors import (
    ConfigurationError,
    SmoothmaxError,
    UnsupportedDimensionError,
)
from .meb import BoundingSphereFamily, MebConfig, MebResult, PointCloud, farthest_sq_distance

WELZL_MAX_DIM = 12

# Relative slack when testing sphere membership during the incremental
# construction; guards against re-adding boundary points due to roundoff.
_CONTAINS_SLACK = 1e-10


class _Boundary:
    """Gärtner's push/pop stack of boundary points ("Fast and robust
    smallest enclosing balls", ESA 1999).

    ``rel`` holds the candidate points as offsets from the first boundary
    point q0, which is its row 0 and the bottom of the stack.  With m points
    on the stack, ``c[m-1]`` and ``r2[m-1]`` are the centre (relative to q0)
    and squared radius of the smallest ball through them, and ``u[:m-1]`` an
    orthonormal basis of their offsets from q0.  A push projects its offset
    off that basis and moves the centre along what is left, in O(d m) and
    without a linear solve; a pop only drops the top point.
    """

    def __init__(self, rel: np.ndarray):
        dim = rel.shape[1]
        self.rel = rel
        self.u = np.empty((dim, dim))
        self.c = np.zeros((dim + 1, dim))
        self.r2 = np.zeros(dim + 1)
        self.stack = [0]
        # The ball of the latest successful push: its level and its points.
        self.level = 0
        self.support = (0,)

    def outside(self, j: int) -> bool:
        diff = self.rel[j] - self.c[self.level]
        return float(diff @ diff) > self.r2[self.level] * (1.0 + _CONTAINS_SLACK)

    def push(self, j: int) -> bool:
        """Put row j on the boundary; its ball becomes the latest.  Refused
        (False, the stack unchanged) when the offset of row j from q0 lies
        in the span of the stack's offsets, to 1e-12 of its length: a
        repeated point, or one in the stack's affine hull, which only
        roundoff can put outside the latest ball."""
        m = len(self.stack)
        q = self.rel[j]
        u = self.u[: m - 1]
        v = q - (u @ q) @ u
        vv = float(v @ v)
        if vv <= 1e-24 * float(q @ q):
            return False
        # v is orthogonal to the stack's offsets, so c + f v stays as far from
        # each stack point (r2 + f^2 vv); f = excess / (2 vv) puts p there too.
        diff = q - self.c[m - 1]
        excess = float(diff @ diff) - self.r2[m - 1]
        f = excess / (2.0 * vv)
        np.add(self.c[m - 1], f * v, out=self.c[m])
        self.r2[m] = self.r2[m - 1] + 0.5 * excess * f
        np.divide(v, math.sqrt(vv), out=self.u[m - 1])
        self.stack.append(j)
        self.level = m
        self.support = tuple(self.stack)
        return True

    def move_to_front(self, order: list[int], end: int) -> None:
        """Welzl's move-to-front recursion over ``order[:end]`` with the
        stack's points on the boundary: a point outside the latest ball is
        pushed, the points before it are recursed over, the push is popped,
        and the point moves to the front of ``order``.  The latest ball then
        encloses ``order[:end]``."""
        if len(self.stack) == self.rel.shape[1] + 1:
            return
        for i in range(end):
            j = order[i]
            if self.outside(j) and self.push(j):
                self.move_to_front(order, i)
                self.stack.pop()
                order.insert(0, order.pop(i))


def welzl_exact(cloud: PointCloud, seed: int = 0) -> MebResult:
    """Exact minimal enclosing ball; deterministic given the seed.

    Pivoting (Gärtner, "Fast and robust smallest enclosing balls", 1999):
    each pass takes every squared distance to the current centre on the raw
    coordinates and picks the farthest point; if it lies outside, the ball
    is recomputed by the move-to-front recursion over the pivots found so
    far with that point on the boundary, and the point becomes the first
    pivot.  A pivot lies outside a ball holding every earlier pivot, so none
    repeats and there are at most n passes; the loop only ends on a pass
    that finds all n points inside.

    The recursion keeps its boundary on a ``_Boundary`` stack relative to
    the new pivot: each push moves the previous ball's centre in O(d k),
    with no linear solve, and a point in the affine hull of the boundary is
    not pushed.  The pass then forms the centre in raw coordinates once and
    takes the squared radius as its largest squared distance to the support.

    The ``MebResult`` has 0 steps, no solve report and no certificate, and
    ``support`` sorted.  The seed picks the first pivot; the radius is
    unique, but on cospherical clouds the support may depend on it.
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
        rows = [k] + pivots
        boundary = _Boundary(pts[rows] - pts[k])
        boundary.move_to_front(list(range(1, len(rows))), len(pivots))
        center = pts[k] + boundary.c[boundary.level]
        support = [rows[i] for i in boundary.support]
        # The radius is taken on the raw coordinates, from the rounded centre.
        on = pts[support] - center
        r2 = float(np.max(np.einsum("ij,ij->i", on, on)))
        pivots.insert(0, k)
    else:
        raise SmoothmaxError(
            f"welzl_exact found no enclosing ball within {cloud.n} pivot passes"
        )
    return MebResult(
        center=center,
        radius=math.sqrt(max(r2, 0.0)),
        iterations=0,
        planned_iterations=0,
        support=tuple(sorted(int(i) for i in support)),
    )


def badoiu_clarkson(cloud: PointCloud, relative_epsilon: float) -> MebResult:
    """Farthest-point core-set iteration with ceil(1/eps^2) steps.

    c_0 is the first input point; step k moves c toward the farthest point
    by a 1/(k+1) fraction, so every iterate stays in the convex hull.  A
    count above ``agd.MAX_PLANNED_ITERATIONS`` is refused.

    c_k is thus the mean of c_0 and the k points picked.  The loop works in
    coordinates centred on the centroid m, p~ = p - m, taken once from a
    row-major copy of the cloud (n d more doubles), and keeps s_k, the sum
    of p~ over c_0 and the picks, by one in-place add a step; the centre
    m + s_K / (K+1) is formed once, after the last step.  The family's score
    ||P_i||^2 - 2 P_i . x~ is affine in the query, so (k+1) times the score
    at c_k is the sum of the score columns of c_0 and the picked points.
    The loop keeps that sum and takes each step's farthest point as its
    argmax.  A point picked before adds its cached column, O(n); a new one
    stores its column while fewer than d+1 are cached (Carathéodory bounds
    the optimal ball's support by d+1), and otherwise the sum is recomputed
    by one GEMV with the query s_k at scale k+1
    (``BoundingSphereFamily.scores_into``).  Where the steps settle on a
    few points, a step thus costs O(n) against the smooth solver's O(nd)
    pass.  The cache takes at most (d+1) n doubles and is never evicted.

    The cached sum rounds otherwise than a fresh query, but only its argmax
    is read.  Far from the origin the centred sum keeps the centre within
    about an ulp of the offset of the exact mean of the picks.  The
    returned radius is taken on the raw coordinates, so it encloses every
    point exactly as computed.
    """
    MebConfig(relative_epsilon)  # refuses an eps outside (0, 1]
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
        centred = points - family.centroid
        # total is s_k; scores holds (k+1) times the family's score at c_k,
        # and columns[slots[j]] the score column of point j.
        total = centred[0].copy()
        scores = np.empty(cloud.n)
        family.scores_into(total, scores)
        columns = np.empty((min(cloud.dim + 1, cloud.n), cloud.n))
        slots: dict[int, int] = {}
        room = len(columns)
        for k in range(1, iterations + 1):
            j = int(scores.argmax())
            total += centred[j]
            slot = slots.get(j)
            if slot is not None:
                scores += columns[slot]
            elif room:
                room -= 1
                slot = slots[j] = len(slots)
                family.scores_into(centred[j], columns[slot])
                scores += columns[slot]
            else:
                family.scores_into(total, scores, k + 1.0)
        center = family.centroid + total / (iterations + 1.0)

    f_final, _ = farthest_sq_distance(cloud, center)
    return MebResult(
        center=center,
        radius=math.sqrt(f_final),
        iterations=iterations,
        planned_iterations=iterations,
    )

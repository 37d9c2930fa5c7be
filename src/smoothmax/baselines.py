"""Reference algorithms: exact MEB (Gärtner's pivoting around Welzl's
move-to-front recursion, with each ball built incrementally on a push/pop
stack of boundary points) and the farthest-point core-set baseline, which
keeps a running sum of its picks in centred coordinates, adds up cached
score columns of the points it picks, and stops once its dual proves its
ball."""

from __future__ import annotations

import math

import numpy as np

from .agd import CERTIFY_MARGIN, MAX_PLANNED_ITERATIONS
from .errors import (
    ConfigurationError,
    SmoothmaxError,
    UnsupportedDimensionError,
)
# farthest_sq_distance stays bound here because perfbench/tracing.py wraps it
# at this module; tests/test_bench_lookups.py checks that it is defined here.
from .meb import (
    BoundingSphereFamily,
    MebConfig,
    MebResult,
    PointCloud,
    _sq_distances,
    farthest_sq_distance,
)

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
        return float(diff.dot(diff)) > self.r2[self.level] * (1.0 + _CONTAINS_SLACK)

    def push(self, j: int) -> bool:
        """Put row j on the boundary; its ball becomes the latest.  Refused
        (False, the stack unchanged) when the offset of row j from q0 lies
        in the span of the stack's offsets, to 1e-12 of its length: a
        repeated point, or one in the stack's affine hull, which only
        roundoff can put outside the latest ball."""
        m = len(self.stack)
        q = self.rel[j]
        u = self.u[: m - 1]
        v = q - u.dot(q).dot(u)
        vv = float(v.dot(v))
        if vv <= 1e-24 * float(q.dot(q)):
            return False
        # v is orthogonal to the stack's offsets, so c + f v stays as far from
        # each stack point (r2 + f^2 vv); f = excess / (2 vv) puts p there too.
        diff = q - self.c[m - 1]
        excess = float(diff.dot(diff)) - self.r2[m - 1]
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
    coordinates (``meb._sq_distances``, the pass ``farthest_sq_distance``
    reads) and picks the farthest point; if it lies outside, the ball
    is recomputed by the move-to-front recursion over the pivots found so
    far with that point on the boundary, and the point becomes the first
    pivot.  A pivot lies outside a ball holding every earlier pivot, so none
    repeats and there are at most n passes; the loop only ends on a pass
    that finds all n points inside.

    The recursion keeps its boundary on a ``_Boundary`` stack relative to
    the new pivot: each push moves the previous ball's centre in O(d k),
    with no linear solve, and a point in the affine hull of the boundary is
    not pushed.  The centre is then formed in raw coordinates once.  A pass
    ends the loop once its largest squared distance is within
    ``_CONTAINS_SLACK`` of the largest to the support, both read from that
    pass.  The squared radius is the largest squared distance of that final
    pass, so the ball encloses every point as computed.

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
    center, support = pts[first].copy(), [first]
    pivots = [first]
    diff = np.empty_like(pts)
    sq = np.empty(cloud.n)
    for _ in range(cloud.n):
        _sq_distances(pts, center, diff, sq)
        k = int(sq.argmax())
        if sq[k] <= sq[support].max() * (1.0 + _CONTAINS_SLACK):
            break
        rows = [k] + pivots
        boundary = _Boundary(pts[rows] - pts[k])
        boundary.move_to_front(list(range(1, len(rows))), len(pivots))
        center = pts[k] + boundary.c[boundary.level]
        support = [rows[i] for i in boundary.support]
        pivots.insert(0, k)
    else:
        raise SmoothmaxError(
            f"welzl_exact found no enclosing ball within {cloud.n} pivot passes"
        )
    return MebResult(
        center=center,
        radius=math.sqrt(sq[k]),
        iterations=0,
        planned_iterations=0,
        support=tuple(sorted(int(i) for i in support)),
    )


def _dual_lower_sq(centred: np.ndarray, picks: dict[int, int], terms: float) -> float:
    """gamma(u) = sum_j u_j ||p~_j - c~||^2, the MEB dual at the weights
    u_j = picks[j] / terms (c~ = sum_j u_j p~_j), less its rounding.

    Every term is >= 0, so the sum rounds within (m + d + 4) 2^-53 of
    itself over m picked points in d dimensions; the rounded c~ only adds
    ||c~ - fl(c~)||^2, far below ``agd.CERTIFY_MARGIN`` times gamma.  The
    bound drops both margins."""
    rows = list(picks)
    counts = np.fromiter(picks.values(), float, len(rows))
    chosen = centred[rows]
    spread = chosen - (counts @ chosen) / terms
    gamma = float(counts @ np.einsum("ij,ij->i", spread, spread)) / terms
    margin = CERTIFY_MARGIN + (len(rows) + centred.shape[1] + 4) * 2.0 ** -53
    return gamma * (1.0 - margin)


def badoiu_clarkson(cloud: PointCloud, relative_epsilon: float) -> MebResult:
    """Farthest-point core-set iteration (Bădoiu and Clarkson, SODA 2003),
    stopped once its dual proves the (1+eps) ball, after at most
    ceil(1/eps^2) steps.

    c_0 is the first input point; step k moves c toward the farthest point
    by a 1/(k+1) fraction, so every iterate stays in the convex hull.
    ``planned_iterations`` is the cap ceil(1/eps^2), under which the paper
    proves the (1+eps) ball; a cap above ``agd.MAX_PLANNED_ITERATIONS`` is
    refused.  ``iterations`` is the step the run stopped at.

    c_k is thus the mean of c_0 and the k points picked.  The loop works in
    coordinates centred on the centroid m, p~ = p - m, read exactly from the
    family's table (``BoundingSphereFamily.centred_points``, n d more
    doubles), and keeps s_k, the sum of p~ over c_0 and the picks, by one
    in-place add a step; the centre m + s_k / (k+1) is formed only where
    the run is checked.  The family's
    score ||P_i||^2 - 2 P_i . x~ is affine in the query, so (k+1) times the
    score at c_k is the sum of the score columns of c_0 and the picked
    points.  The loop keeps that sum and takes each step's farthest point as
    its argmax.  A point picked before adds its cached column, O(n); a new
    one stores its column while fewer than d+1 are cached (Carathéodory
    bounds the optimal ball's support by d+1), and otherwise the sum is
    recomputed by one GEMV with the query s_k at scale k+1
    (``BoundingSphereFamily.scores_into``).  Where the steps settle on a
    few points, a step thus costs O(n) against the smooth solver's O(nd)
    pass.  The cache takes at most (d+1) n doubles and is never evicted.

    The stop.  The uniform weights over c_0 and the picks are MEB dual
    weights u, and gamma(u) = sum u ||p~||^2 - ||sum u p~||^2 <= R^2
    (Yıldırım, SIAM J. Optim. 2008).  Before step k the loop estimates
    f(c_k) = max score / (k+1) + ||s_k||^2 / (k+1)^2 and gamma from a
    running sum of ||p~||^2 over the picks: one d-dot a step.  Once the
    estimate has f <= (1+eps)^2 gamma, the run is checked: one farthest
    pass in raw coordinates at the formed centre gives the radius, and
    gamma is recomputed from the pick counts less its rounding
    (``_dual_lower_sq``).  The run stops if radius / sqrt(gamma) <= 1+eps;
    otherwise it steps on.  The run that reaches its cap is checked the same
    way.  So a run makes one raw pass per check, and a certified run
    usually one in all.  ``certified_radius_lower`` is sqrt(gamma) and
    ``certified_ratio`` the radius over it (None at radius 0).  A run whose
    ratio is at most 1+eps, or whose radius is 0, stops with ``stop_reason``
    "certified"; a capped run without that proof stops "planned".

    The cached sum rounds otherwise than a fresh query, but only its argmax
    is read.  Far from the origin the centred sum keeps the centre within
    about an ulp of the offset of the exact mean of the picks.  The
    returned radius is taken on the raw coordinates, so it encloses every
    point exactly as computed.  Centring moves each point by up to half an
    ulp of its coordinates, so sqrt(gamma) bounds R of the moved points:
    at an offset, it is within sqrt(d) ulp(2 offset) of the R of the input.
    """
    MebConfig(relative_epsilon)  # refuses an eps outside (0, 1]
    cap = 0
    if cloud.n > 1:
        # Any eps below 2^-16 plans 2^32 steps, so its square is never formed.
        cap = math.ceil(1.0 / max(relative_epsilon, 2.0 ** -16) ** 2)
        if cap > MAX_PLANNED_ITERATIONS:
            raise ConfigurationError(
                f"core-set count at eps={relative_epsilon} exceeds {MAX_PLANNED_ITERATIONS}"
            )
    limit, bound = 1.0 + relative_epsilon, (1.0 + relative_epsilon) ** 2
    family = BoundingSphereFamily(cloud)
    centred = family.centred_points()
    centred_sq = family.centred_sq
    # total is s_k and picked_sq the sum of ||p~||^2 over c_0 and the picks,
    # picks[j] how often point j is among them, and centre_sq ||c_k - m||^2;
    # scores holds (k+1) times the family's score at c_k, and
    # columns[slots[j]] the score column of j.
    total = centred[0].copy()
    picked_sq = centred_sq.item(0)
    picks = {0: 1}
    scores = np.empty(cloud.n)
    family.scores_into(total, scores)
    columns = np.empty((min(cloud.dim + 1, cloud.n), cloud.n))
    slots: dict[int, int] = {}
    for k in range(cap + 1):
        j = int(scores.argmax())
        terms = k + 1.0
        centre_sq = float(total.dot(total)) / (terms * terms)
        if k == cap or (scores.item(j) / terms + centre_sq
                        <= bound * (picked_sq / terms - centre_sq)):
            center = family.centroid + total / terms
            radius = math.sqrt(farthest_sq_distance(cloud, center)[0])
            lower = math.sqrt(_dual_lower_sq(centred, picks, terms))
            ratio = None if radius == 0.0 else (radius / lower if lower else math.inf)
            certified = ratio is None or ratio <= limit
            if certified or k == cap:
                break
        total += centred[j]
        picked_sq += centred_sq.item(j)
        picks[j] = picks.get(j, 0) + 1
        slot = slots.get(j)
        if slot is not None:
            scores += columns[slot]
        elif len(slots) < len(columns):
            slot = slots[j] = len(slots)
            family.scores_into(centred[j], columns[slot])
            scores += columns[slot]
        else:
            family.scores_into(total, scores, k + 2.0)

    return MebResult(
        center=center,
        radius=radius,
        iterations=k,
        planned_iterations=cap,
        certified_radius_lower=lower,
        certified_ratio=ratio,
        stop_reason="certified" if certified else "planned",
    )

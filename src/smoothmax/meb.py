"""(1 + eps)-approximate minimal bounding sphere via the smoothed solver.

The objective is f(x) = max_i ||x - c_i||^2.  Every constant the generic
solver needs is derived analytically: component curvature is exactly 2,
the radius bracket at the centroid gives the initial distance bound and the
first lower bound on R^2 (which, with each round's relative gap, sets the
smoother), and the max at a round's start point gives its gradient bound,
which sets the smoothness.  A solve is a short sequence of warm-started
rounds at relative gaps from sqrt(eps) down to eps, each at most half the
last and at most half what the last round proved; each round stops as soon
as its lower bound on R^2 certifies its (1+e_k) radius.  The
optimal ball rests on at most d+1 points (Caratheodory), so the rounds
smooth for a support of d+1 and raise the smoother where the cloud needs more.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# run_to_gap stays bound here because perfbench/tracing.py wraps it at this
# module; tests/test_bench_lookups.py checks that every name it wraps is
# defined where it looks it up.
from .agd import (
    MAX_PLANNED_ITERATIONS,
    IterateObserver,
    ProgressCallback,
    SolveReport,
    plan_round,
    run_rounds,
    run_to_gap,
)
from .errors import ConfigurationError, ContractViolationError
from .families import ComponentFamily


# A cloud is refused unless its squared bounding-box diagonal D^2 times this
# factor is finite.  A solve's largest intermediates are the t-weighted sums of
# ``agd.LowerModel``; after T passes the squared slope sum has measured below
# 1.2 (T^2 / 2)^2 D^2, so this covers a round of MAX_PLANNED_ITERATIONS = 2^31.
OVERFLOW_HEADROOM = 2.0 ** 128
# A cloud of distinct points is refused unless D^2 divided by this factor is a
# normal double.  The smallest quantity a solve divides by is a round's gap
# (2 e + e^2) f(x1) / 4, with e >= 2^-44 under the planned cap and
# f(x1) >= D^2 / (4 d); squared distances below the normal range lose their
# precision, or underflow to 0 and make distinct points look coincident.
UNDERFLOW_HEADROOM = 2.0 ** 128


def _box_span(points: np.ndarray) -> np.ndarray:
    """max(axis=0) - min(axis=0) of an n x d array, bit for bit, from a
    coordinate-major copy: its reductions run over rows of length n, where
    over axis 0 of the points the inner loop is only d long (at 5000 x 8,
    ~40 against ~280 us).  max and min are exact, so the order is free."""
    rows = points.T.copy()
    return rows.max(axis=1) - rows.min(axis=1)


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
        with np.errstate(over="ignore", invalid="ignore"):  # nan and inf fail this too
            span = _box_span(pts)
            diagonal_sq = float(span @ span)
        if not math.isfinite(diagonal_sq * OVERFLOW_HEADROOM):
            if not np.all(np.isfinite(pts)):
                raise ContractViolationError("all coordinates must be finite")
            raise ContractViolationError(
                f"the squared bounding-box diagonal times {OVERFLOW_HEADROOM:.3g} overflows; "
                "rescale the points"
            )
        if span.any() and diagonal_sq / UNDERFLOW_HEADROOM < sys.float_info.min:
            raise ContractViolationError(
                f"the squared bounding-box diagonal divided by {UNDERFLOW_HEADROOM:.3g} "
                "underflows; rescale the points"
            )
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
    """The ball of every method: solve_meb, badoiu_clarkson, welzl_exact."""

    center: np.ndarray
    radius: float
    iterations: int
    planned_iterations: int
    solve_report: SolveReport | None = None
    # sqrt of the proved lower bound on R^2: for solve_meb, f(x1)/4 or the
    # best a round certified, whichever is higher; for badoiu_clarkson, its
    # dual at the uniform weights over its picks (None from welzl_exact).
    certified_radius_lower: float | None = None
    # radius / certified_radius_lower, a proven bound on radius / R; None
    # when the radius is 0 (or from welzl_exact).
    certified_ratio: float | None = None
    # welzl_exact's sorted support indices (None from the other methods).
    support: tuple[int, ...] | None = None
    # How the method stopped: "certified" (its certificate proved the
    # (1+eps) ball) or "planned" (its step count ran out); None from
    # welzl_exact.
    stop_reason: str | None = None


class SquaredDistanceFamily(ComponentFamily):
    """f_i(x) = a_i ||x - c_i||^2 with every a_i > 0, on the centres taken
    once relative to their mean m (P = C - m, which keeps far-offset centres
    accurate): a_i ||x - c_i||^2 = a_i ||P_i||^2 - 2 a_i P_i . (x - m) +
    a_i ||x - m||^2.

    The family keeps one C-contiguous (d+2) x n table
    T = [a ||P||^2; -2 a P^T; a], filled in place.  The constructor makes one
    transposing copy of the centres into rows 1..d and does every other
    O(n d) pass on those rows of length n: m is each row's pairwise
    ``np.add.reduce`` over n, then the centring, the squared norms and the
    -2 a scaling.  (Over axis 0 of the row-major centres the inner loop is
    only d long: at 5000 x 8 the mean alone took ~90 us, and it summed
    sequentially, which rounds worse.)  With x~ = x - m, each batch
    query is then one GEMV over rows of length n (at small d, n dot products
    of length d are the shape BLAS handles worst), with no O(n) pass after
    it: ``values_at`` is [1, x~, x~ . x~] @ T, and ``combined_gradient``
    reads -2 P^T (a w) and sum(a w) from T[1:] @ w.  The constructor takes
    the a_i as an (n,) array or one value for all; ``curvatures`` is then a
    view of the last row.  The verification hooks and the scalar reference
    ``value_at`` read the raw centres.

    At the small n of a min-max family a query is mostly per-call cost, so
    the hooks keep their query vector and the views they read, and every
    product goes through ``ndarray.dot``: ``@`` (``np.matmul``) gives the
    same bits at about twice the cost per call (NumPy 2.4.6, one OpenBLAS
    thread, shared Xeon cores: 0.67 against 0.37 us for a d = 5 dot, 0.78
    against 0.40 us for a 7 x 20 GEMV)."""

    def __init__(self, centers: np.ndarray, curvatures):
        self.centers = centers
        self.n, self.dim = centers.shape
        self._table = np.empty((self.dim + 2, self.n))
        centred_t = self._table[1:-1]
        np.copyto(centred_t, centers.T)
        self.centroid = np.add.reduce(centred_t, axis=1) / self.n
        centred_t -= self.centroid[:, None]
        np.einsum("ij,ij->j", centred_t, centred_t, out=self._table[0])
        self._table[0] *= curvatures
        centred_t *= -2.0 * curvatures  # the factor 2 is exact: a power of two
        self._table[-1] = curvatures
        self.curvatures = self._table[-1]
        # values_at's query [1, x~, x~ . x~], its leading 1 set once, and the
        # views values_at and combined_gradient read.
        self._values_query = np.empty(self.dim + 2)
        self._values_query[0] = 1.0
        self._values_offset = self._values_query[1:-1]
        self._gradient_rows = self._table[1:]

    def value_at(self, i: int, x: np.ndarray) -> float:
        """Scalar f_i(x): the reference the batch-path tests compare against;
        the solver reads only the batch hooks."""
        diff = np.asarray(x, dtype=float) - self.centers[i]
        return float(self.curvatures[i] * (diff @ diff))

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """Every f_i(x), in a new array.  The query [1, x~, x~ . x~] is
        written into a (d+2)-vector the family keeps, so two threads must
        not call this on one family at once."""
        query = self._values_query
        x_c = np.subtract(x, self.centroid, out=self._values_offset)
        query[-1] = x_c.dot(x_c)
        return query.dot(self._table)

    def gradients_at(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.curvatures[:, None] * (x - self.centers)

    def combined_hessian(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return (2.0 * float(weights @ self.curvatures)) * np.eye(self.dim)

    def combined_gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # [-2 P^T (a w); sum(a w)]: scaling by 2 is exact, so this is bit for
        # bit 2 (sum(a w) x~ - P^T (a w)).
        weighted = self._gradient_rows.dot(weights)
        return (2.0 * weighted[-1]) * (x - self.centroid) + weighted[:-1]


class BoundingSphereFamily(SquaredDistanceFamily):
    """f_i(x) = ||x - c_i||^2 over the cloud's points: the unit-curvature
    ``SquaredDistanceFamily``, whose table is T = [||P||^2; -2 P^T; 1].

    ``centred_sq``, the squared norms ||P_i||^2, is a view of row 0.
    ``scores_into`` writes [s, s x~] @ T[:-1] for a scale s > 0 and a query
    s x~ the caller has already centred and scaled (||x~||^2 is the same for
    every i, so it is dropped, and the argmax is a farthest point)."""

    def __init__(self, cloud: PointCloud):
        super().__init__(cloud.points, 1.0)
        self.centred_sq = self._table[0]
        # scores_into's query and the views it reads, made once: the core set
        # calls it at each step that finds its cache full, and at 2000 x 5 a
        # fresh vector and three slices took ~0.6 of a ~6.5 us step (shared
        # 2-core host).
        self._query = np.empty(cloud.dim + 1)
        self._query_tail = self._query[1:]
        self._score_rows = self._table[:-1]

    # perfbench/tracing.py wraps these two at this class;
    # tests/test_bench_lookups.py checks that they are bound here.
    values_at = SquaredDistanceFamily.values_at
    combined_gradient = SquaredDistanceFamily.combined_gradient

    def centred_points(self) -> np.ndarray:
        """P = C - m as a new n x d array, read from the table's rows -2 P^T:
        scaling by -1/2 is exact, so these are the bits of C - m.  The array
        is the transpose of a d x n one, so each point is a strided row; a
        C-ordered copy measured ~4% slower on the core set's solves, whose
        steps read only a few rows."""
        return (-0.5 * self._table[1:-1]).T

    def scores_into(self, query: np.ndarray, out: np.ndarray, scale: float = 1.0) -> None:
        """Write [scale, query] @ T[:-1], that is scale ||P_i||^2 - 2 P_i . query,
        for every i into ``out``.  The query is centred and scaled by the
        caller: for query = scale x~ with scale > 0 this is scale times the
        squared distance ||x - c_i||^2 less the common ||x~||^2, so an argmax
        is a farthest point.  The score is affine in the query, which lets a
        caller add up the scores of single centred points instead of querying
        each new x, and query a sum of k centred points with scale k.  One
        copy into a (d+1)-vector the family keeps, then one GEMV, so two
        threads must not call this on one family at once.  ``out`` is a
        C-contiguous float64 (n,) array, as ``np.dot(..., out=)`` takes."""
        self._query[0] = scale
        self._query_tail[...] = query
        np.dot(self._query, self._score_rows, out=out)


def _sq_distances(points: np.ndarray, x: np.ndarray, diff: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """||p_i - x||^2 for every row p_i of ``points``, on the raw coordinates:
    one subtraction, then a row-wise ``einsum``.  Every raw farthest pass
    (``farthest_sq_distance``, ``baselines.welzl_exact``'s pivot pass) reads
    this one, so their squared distances round alike.  ``diff`` (n x d) and
    ``out`` (n,) are buffers to write into, fresh arrays when None."""
    diff = np.subtract(points, x, out=diff)
    return np.einsum("ij,ij->i", diff, diff, out=out)


def farthest_sq_distance(cloud: PointCloud, x: np.ndarray) -> tuple[float, int]:
    """max_i ||x - c_i||^2 and the achieving index (lowest on ties)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cloud.dim,):
        raise ContractViolationError(
            f"query point has shape {x.shape}, cloud dimension is {cloud.dim}"
        )
    sq = _sq_distances(cloud.points, x)
    idx = int(np.argmax(sq))
    return float(sq[idx]), idx


def required_iterations_meb(relative_epsilon: float, n: int) -> int:
    """Closed-form sufficient iteration count for the (1+eps) guarantee:
    ceil(1 + log(1 + 4/eps) sqrt(1 + 18 (1 + 20/eps) log n)).  A count above
    ``MAX_PLANNED_ITERATIONS`` is refused, as ``run_to_gap`` refuses its own."""
    if not 0 < relative_epsilon <= 1 or n < 1:
        raise ContractViolationError("need 0 < relative_epsilon <= 1 and n >= 1")
    if n == 1:
        return 1
    eps = relative_epsilon
    value = 1.0 + math.log(1.0 + 4.0 / eps) * math.sqrt(
        1.0 + 18.0 * (1.0 + 20.0 / eps) * math.log(n)
    )
    if not value <= MAX_PLANNED_ITERATIONS:  # also an infinite value at a subnormal eps
        raise ConfigurationError(f"planned count at eps={eps} exceeds {MAX_PLANNED_ITERATIONS}")
    return math.ceil(value)


def solve_meb(
    cloud: PointCloud,
    config: MebConfig,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> MebResult:
    """Approximate minimal bounding sphere with radius <= (1+eps) R.

    Smoother continuation: one ``run_rounds`` loop, whose round 0 targets
    the relative gap e_0 = min(1, sqrt(eps)) and round k + 1 the gap
    max(eps, min(e_k, p_k) / 2) (``agd.ROUND_GAP_RATIO``), with
    p_k = sqrt(f_final / lower_bound) - 1 (at least 0) the relative gap
    round k proved from its own passes, or eps itself once that target is
    below 2 eps; the last round targets eps.
    Starting at sqrt(eps), not 1, the first round costs about eps^(-1/4)
    steps, below the last round's eps^(-1/2).  Round 0 starts at the centroid x1; each later round
    restarts the momentum at the best point so far, the previous round's
    ``x_final``, from the values kept there (no values pass).  Its absolute
    gap is eps_abs = (2 e_k + e_k^2) lb with lb = max(f(x1) / 4, the highest
    lower bound the rounds so far proved).  It sets the paper's smoother
    s_n = 2 log(n) / eps_abs, which the a-priori count and the fixed
    fallback use, and the support's 2 log(min(n, d+1)) / eps_abs, where the
    adaptive sequence starts; ``run_rounds`` doubles s, up to s_n, where a
    pass's regret passes eps_abs / 2, and carries the ratio s / s_n into the
    next round.  Each round certifies from its own passes.  Every pass's
    lower model bounds the true max at any smoother, so a bound stays valid
    under the next smoother, and lb <= R^2 keeps each round's a-priori
    guarantee.

    The gradient bound G of a round is 2 sqrt(f_top), with f_top the max
    at its start point, the lowest max evaluated so far.  grad f_i(x) =
    2 (x - c_i), so Cov_p(grad f_i) = 4 Cov_p(c_i) at every x, and its top
    eigenvalue is at most 4 E_p ||c_i - x*||^2 <= 4 R^2 <= 4 f_top (x* the
    exact centre): the smoothness is U_s = 4 s f_top + 2.  At the start
    point, ||grad f_s|| = 2 ||x - E_p c_i|| <= 2 sqrt(f_top), so G also
    bounds the initial gap by G D.  A round's cap is its own count under
    these bounds (``plan_round``).  The count grows as lb falls and f_top
    rises, so it is largest at lb = f(x1) / 4 and f_top = f(x1) = D^2, where
    it is below the paper's single-shot count for e_k
    (``required_iterations_meb``): the last round never runs longer than
    ``planned_iterations``.  A round stops
    once its own lower bound on R^2 proves f_best <= (1+e_k)^2 times it
    (``Round.relative_epsilon``); a coarse round that reaches its
    cap still holds its (1+e_k) guarantee.  ``certified_radius_lower`` is
    sqrt(lb) after the last round, so a certified solve gives
    radius <= (1+eps) certified_radius_lower <= (1+eps) R.
    ``solve_report.s`` is the smoother the last round ended at, from the
    support's up to s_n, so 2 log(n) / ``solve_report.s`` is at least that
    round's absolute gap.

    ``iterations`` counts the steps of all rounds.  The observers see one
    step counter t across the solve; the ``progress`` value is f_s at that
    round's smoother.
    """
    eps_rel = config.relative_epsilon
    family = BoundingSphereFamily(cloud)
    n = cloud.n
    # x1 is the centroid, where the centred offset x~1 is 0.
    x1, f1 = family.centroid, float(family.centred_sq.max())

    if f1 == 0.0:
        # Single or fully coincident points: the centroid is the exact center.
        return MebResult(
            center=x1,
            radius=0.0,
            iterations=0,
            planned_iterations=0,
            certified_radius_lower=0.0,
            stop_reason="certified",
        )

    planned = required_iterations_meb(eps_rel, n)
    distance = math.sqrt(f1)

    def proved_lb(reports: list[SolveReport]) -> float:
        # R >= sqrt(f(x1)) / 2 for x1 in the hull, so f(x1) / 4 is a proved bound.
        return max([f1 / 4.0] + [r.lower_bound for r in reports])

    def plan(gap: float, reports: list[SolveReport]):
        # f_top, the max at the round's start point, is at least R^2.
        f_top = reports[-1].f_final if reports else f1
        return plan_round(n, cloud.dim, (2.0 * gap + gap ** 2) * proved_lb(reports), distance,
                          2.0 * math.sqrt(f_top), 2.0, 2.0, gap)

    reports = run_rounds(family, x1, plan, min(1.0, math.sqrt(eps_rel)), eps_rel, progress=progress,
                         iterate_observer=iterate_observer)
    report = reports[-1]
    radius, radius_lb = math.sqrt(report.f_final), math.sqrt(proved_lb(reports))
    return MebResult(
        center=report.x_final,
        radius=radius,
        iterations=sum(r.iterations_run for r in reports),
        planned_iterations=planned,
        solve_report=report,
        certified_radius_lower=radius_lb,
        certified_ratio=radius / radius_lb,
        stop_reason=report.stop_reason,
    )

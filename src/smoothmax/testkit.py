"""Verification utilities: finite-difference oracles, seeded instance
generators, and a brute-force grid minimizer used as ground truth.

All generators are pure functions of (seed, parameters).  Randomness comes
from numpy's default_rng (PCG64), which is stable across platforms; golden
values in the tests depend on it staying fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError
from .families import DomainConstants
from .meb import PointCloud, SquaredDistanceFamily

DEFAULT_FD_STEP = 1e-5  # balances truncation and roundoff on unit-scale inputs

DISTRIBUTIONS = ("gaussian", "sphere_surface", "clustered")


def finite_diff_jacobian(fn, x: np.ndarray, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central differences (fn(x + h e_j) - fn(x - h e_j)) / (2h), stacked
    along the last axis: the Jacobian (row = output) of a vector-valued fn,
    the gradient of a scalar one."""
    if not h > 0:
        raise ContractViolationError("step h must be positive")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h))
    return np.stack(cols, axis=-1)


finite_diff_gradient = finite_diff_jacobian


def grid_oracle_minimize(
    fn, lows, highs, resolution: int
) -> tuple[np.ndarray, float]:
    """Exhaustive grid scan followed by a local polish from the best cell.

    Independent of the accelerated solver on purpose; practical for d <= 3.
    SciPy is imported here, so importing the CLI does not load it.
    """
    from scipy import optimize

    lows = np.atleast_1d(np.asarray(lows, dtype=float))
    highs = np.atleast_1d(np.asarray(highs, dtype=float))
    if resolution < 2:
        raise ContractViolationError("resolution must be >= 2")
    if lows.shape != highs.shape or not np.all(np.isfinite(lows)) or not np.all(
        np.isfinite(highs)
    ):
        raise ContractViolationError("box bounds must be finite and of equal shape")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(lows, highs)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.array([fn(p) for p in grid])
    best = grid[int(np.argmin(values))]
    polish = optimize.minimize(
        fn, best, method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000},
    )
    if polish.fun <= np.min(values):
        return np.asarray(polish.x, dtype=float), float(polish.fun)
    return best, float(np.min(values))


@dataclass(frozen=True)
class BallAudit:
    """A returned ball checked in exact arithmetic: ``farthest_sq`` is
    max_i ||p_i - c||^2 and ``radius_sq`` the square of the returned radius,
    both exact rationals of the float bits; ``index`` is the farthest point
    (lowest on ties)."""

    farthest_sq: Fraction
    radius_sq: Fraction
    index: int

    @property
    def encloses(self) -> bool:
        return self.farthest_sq <= self.radius_sq

    @property
    def shortfall(self) -> float:
        """(farthest_sq - radius_sq) / farthest_sq, rounded once to a float:
        how far, relative to the exact max, radius^2 falls short of enclosing
        every point.  It is <= 0 when the ball encloses them, and 0 when every
        point is the centre; a shortfall below the smallest double reads 0,
        so ``encloses`` is the exact test."""
        if not self.farthest_sq:
            return 0.0
        return float((self.farthest_sq - self.radius_sq) / self.farthest_sq)


def audit_ball(points: np.ndarray, center: np.ndarray, radius: float) -> BallAudit:
    """The exact max ||p_i - c||^2 over the rows of ``points``, from the float
    bits of the points and the centre, against the exact square of
    ``radius``.  Every finite double is an integer times a power of two, so
    the values are scaled by the largest denominator to integers and the
    squared distances are summed in Python integers, with no rounding:
    about 0.5 ms at 300 x 8.  For tests, not solves."""
    points = np.asarray(points, dtype=float)
    center = np.asarray(center, dtype=float)
    if points.ndim != 2 or center.shape != (points.shape[1],) or len(points) < 1:
        raise ContractViolationError(
            f"need points (n, d) with n >= 1 and a centre (d,), got {points.shape} "
            f"and {center.shape}")
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(center))
            and math.isfinite(radius)):
        raise ContractViolationError("points, centre and radius must be finite")
    values = (*points.ravel().tolist(), *center.tolist(), float(radius))
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)  # a power of two
    scaled = [num * (scale // den) for num, den in ratios]
    dim = points.shape[1]
    centre = scaled[-dim - 1:-1]
    sq = [sum((p - c) ** 2 for p, c in zip(scaled[i:i + dim], centre))
          for i in range(0, len(points) * dim, dim)]
    index = max(range(len(sq)), key=sq.__getitem__)  # the first of equal maxima
    unit = scale * scale
    return BallAudit(Fraction(sq[index], unit), Fraction(scaled[-1] ** 2, unit), index)


def random_point_cloud(seed: int, n: int, dim: int, distribution: str = "gaussian") -> PointCloud:
    """Seeded cloud generator.

    gaussian: iid standard normal coordinates.
    sphere_surface: uniform directions on the unit sphere (exact radius is
      known to be at most 1, approaching 1 as n grows).
    clustered: 3 well-separated gaussian clusters with sizes differing by
      at most one.
    """
    if n < 1 or dim < 1:
        raise ContractViolationError("need n >= 1 and dim >= 1")
    rng = np.random.default_rng(seed)
    if distribution == "gaussian":
        pts = rng.standard_normal((n, dim))
    elif distribution == "sphere_surface":
        raw = rng.standard_normal((n, dim))
        norms = np.linalg.norm(raw, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        pts = raw / norms
    elif distribution == "clustered":
        k = 3
        centers = 4.0 * rng.standard_normal((k, dim))
        sizes = [n // k + (1 if r < n % k else 0) for r in range(k)]
        chunks = [
            centers[c] + 0.25 * rng.standard_normal((size, dim))
            for c, size in enumerate(sizes)
            if size > 0
        ]
        pts = np.concatenate(chunks, axis=0)
    else:
        raise ContractViolationError(
            f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}"
        )
    return PointCloud(pts)


def _rotated(points: np.ndarray, seed: int | None, offset: float) -> PointCloud:
    """points times a Haar-random orthogonal matrix drawn from the seed (none
    when the seed is None), then offset added to every coordinate."""
    if seed is not None:
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((points.shape[1],) * 2))
        points = points @ (q * np.sign(np.diag(r)))
    return PointCloud(points + offset)


def regular_simplex(seed: int | None, n: int, offset: float = 1e6) -> tuple[PointCloud, float]:
    """The unit vectors e_1 ... e_n of R^n, rotated and offset as in
    ``_rotated``, and their exact minimal radius sqrt((n - 1) / n): the ball
    is centred at their mean, and all n points are its support."""
    if n < 1:
        raise ContractViolationError("need n >= 1")
    return _rotated(np.eye(n), seed, offset), float(np.sqrt((n - 1) / n))


def cross_polytope(seed: int | None, dim: int, offset: float = 1e6) -> tuple[PointCloud, float]:
    """The 2 dim points +-e_i of R^dim, rotated and offset as in ``_rotated``,
    and their exact minimal radius 1: the unit ball about their mean, with
    all 2 dim points its support."""
    if dim < 1:
        raise ContractViolationError("need dim >= 1")
    eye = np.eye(dim)
    return _rotated(np.concatenate([eye, -eye]), seed, offset), 1.0


class RandomQuadraticFamily(SquaredDistanceFamily):
    """f_i(x) = curvature_i * ||x - center_i||^2, a ``SquaredDistanceFamily``
    with constants known exactly by construction (l_i = u_i = 2 curvature_i)."""

    def __init__(self, centers: np.ndarray, curvatures: np.ndarray):
        centers = np.asarray(centers, dtype=float)
        curvatures = np.asarray(curvatures, dtype=float)
        if centers.ndim != 2 or len(centers) < 1 or curvatures.shape != (len(centers),):
            raise ContractViolationError("centers must be (n, d) with n >= 1, curvatures (n,)")
        if not np.all(curvatures > 0):
            raise ContractViolationError("curvatures must be strictly positive")
        super().__init__(centers, curvatures)

    # perfbench/tracing.py wraps these two at this class;
    # tests/test_bench_lookups.py checks that they are bound here.
    values_at = SquaredDistanceFamily.values_at
    combined_gradient = SquaredDistanceFamily.combined_gradient

    @staticmethod
    def from_seed(
        seed: int,
        n: int,
        dim: int,
        curv_min: float = 0.5,
        curv_max: float = 2.0,
    ) -> "RandomQuadraticFamily":
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((n, dim))
        curvatures = rng.uniform(curv_min, curv_max, size=n)
        return RandomQuadraticFamily(centers, curvatures)

    def true_constants(self, domain_radius: float) -> DomainConstants:
        """Exact constants on the ball ||x|| <= domain_radius.

        Curvature bounds are global; the gradient bound uses the farthest
        point of the ball from each quadratic's center.
        """
        if not domain_radius > 0:
            raise ContractViolationError("domain_radius must be positive")
        grad_bound = float(
            np.max(2.0 * self.curvatures * (np.linalg.norm(self.centers, axis=1) + domain_radius))
        )
        return DomainConstants(
            2.0 * self.curvatures, 2.0 * self.curvatures, grad_bound
        )

    def pointwise_gradient_bound(self, x: np.ndarray) -> float:
        """Tight gradient norm bound at a single point (for Hessian checks)."""
        return float(np.max(np.linalg.norm(self.gradients_at(x), axis=1)))

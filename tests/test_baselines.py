import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothmax import MebConfig, MebResult, PointCloud, badoiu_clarkson, solve_meb, welzl_exact
from smoothmax import baselines
from smoothmax.baselines import WELZL_MAX_DIM
from smoothmax.errors import (
    ConfigurationError,
    ContractViolationError,
    SmoothmaxError,
    UnsupportedDimensionError,
)
from smoothmax.meb import BoundingSphereFamily, farthest_sq_distance
from smoothmax.testkit import DISTRIBUTIONS, random_point_cloud, regular_simplex


# The oracle's independent reference: each ball is solved from scratch by
# least squares, where welzl_exact builds it point by point with Gärtner's
# push/pop stack, and the recursion runs over the whole cloud, where
# welzl_exact pivots.  It shares no code with welzl_exact.
_CONTAINS_SLACK = 1e-10


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


def reference_radius(points: np.ndarray) -> float:
    _, r2, _ = _welzl_mtf(points, list(range(points.shape[0])), [])
    return math.sqrt(r2)


def brute_force_meb(points: np.ndarray) -> float:
    """Exhaustive search over all candidate support subsets of size <= d+1.

    The optimal ball is the circumball of its support set, so the smallest
    enclosing candidate radius is the exact optimum.  Usable for n <= 12.
    """
    n, d = points.shape
    best = math.inf
    for size in range(1, min(n, d + 1) + 1):
        for subset in itertools.combinations(range(n), size):
            center, r2 = _circumball(points[list(subset)])
            dists = np.einsum("ij,ij->i", points - center, points - center)
            covering = float(np.max(dists))
            if covering <= r2 * (1.0 + 1e-9) + 1e-12:
                best = min(best, math.sqrt(covering))
    return best


class TestWelzlExact:
    def test_unit_square(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        result = welzl_exact(cloud, seed=0)
        np.testing.assert_allclose(result.center, [0.5, 0.5], atol=1e-12)
        assert result.radius == pytest.approx(math.sqrt(2.0) / 2.0)

    def test_collinear_points(self):
        cloud = PointCloud(np.array([[0.0], [1.0], [2.0], [3.0]]))
        result = welzl_exact(cloud, seed=0)
        np.testing.assert_allclose(result.center, [1.5])
        assert result.radius == pytest.approx(1.5)
        assert result.support == (0, 3)

    def test_returns_the_result_type_of_every_method(self):
        cloud = random_point_cloud(23, 80, 4, "sphere_surface")
        result = welzl_exact(cloud, seed=0)
        assert type(result) is MebResult
        assert result.iterations == result.planned_iterations == 0
        assert result.solve_report is None
        assert result.certified_radius_lower is None and result.certified_ratio is None
        assert result.support == tuple(sorted(set(result.support)))
        assert all(type(i) is int for i in result.support)
        # Only the exact oracle names a support.
        assert badoiu_clarkson(cloud, 0.1).support is None
        assert solve_meb(cloud, MebConfig(0.1)).support is None

    def test_seed_independence(self):
        cloud = random_point_cloud(17, 200, 3, "gaussian")
        a = welzl_exact(cloud, seed=1)
        b = welzl_exact(cloud, seed=99)
        np.testing.assert_allclose(a.center, b.center, atol=1e-10)
        assert a.radius == pytest.approx(b.radius, abs=1e-10)

    def test_support_points_on_boundary(self):
        cloud = random_point_cloud(23, 80, 4, "sphere_surface")
        result = welzl_exact(cloud, seed=0)
        assert len(result.support) <= cloud.dim + 1
        for idx in result.support:
            dist = np.linalg.norm(cloud.points[idx] - result.center)
            assert dist == pytest.approx(result.radius, rel=1e-7)
        dists = np.linalg.norm(cloud.points - result.center, axis=1)
        assert np.max(dists) <= result.radius * (1.0 + 1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_search_on_small_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 5))
        cloud = PointCloud(rng.standard_normal((n, d)))
        exact = welzl_exact(cloud, seed=seed)
        brute = brute_force_meb(cloud.points)
        assert exact.radius == pytest.approx(brute, rel=1e-9)

    def test_dimension_gate(self):
        cloud = PointCloud(np.zeros((3, 13)))
        with pytest.raises(UnsupportedDimensionError, match="solve_meb"):
            welzl_exact(cloud, seed=0)

    def test_duplicated_points(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [2.0, 0.0]]))
        result = welzl_exact(cloud, seed=0)
        np.testing.assert_allclose(result.center, [1.0, 0.0], atol=1e-12)
        assert result.radius == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "points",
        [
            # a square with every corner repeated, in scrambled order
            [[0, 0], [1, 1], [1, 0], [0, 0], [0, 1], [1, 1], [1, 0], [0, 1]],
            # a regular hexagon: all six points on the one circle
            [[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)],
            # collinear points in the plane, with duplicates
            [[3 + t, -1 + 2 * t] for t in (0.0, 2.5, 0.0, 1.0, 4.0, 2.5, 4.0)],
        ],
        ids=["square-repeated-corners", "hexagon", "collinear-duplicates"],
    )
    def test_degenerate_clouds_match_exhaustive_search(self, points, seed):
        cloud = PointCloud(np.array(points, dtype=float))
        exact = welzl_exact(cloud, seed=seed)
        assert exact.radius == pytest.approx(brute_force_meb(cloud.points), rel=1e-9)
        dists = np.linalg.norm(cloud.points - exact.center, axis=1)
        assert np.max(dists) <= exact.radius * (1.0 + 1e-9)

    def test_cospherical_support_may_differ_but_radius_may_not(self):
        # The seed picks the first pivot, so on a cospherical cloud two seeds
        # may return different supports; each must lie on both balls.
        cloud = random_point_cloud(3, 500, 5, "sphere_surface")
        a = welzl_exact(cloud, seed=0)
        b = welzl_exact(cloud, seed=7)
        assert a.support != b.support
        assert a.radius == pytest.approx(b.radius, rel=1e-12)
        for idx in a.support + b.support:
            for ball in (a, b):
                dist = np.linalg.norm(cloud.points[idx] - ball.center)
                assert dist == pytest.approx(ball.radius, rel=1e-7)

    def test_pass_count_is_bounded(self, monkeypatch):
        # A slack of -1 counts no point as inside, so no pass can end the
        # loop; it must stop after n passes instead of returning a ball.
        monkeypatch.setattr(baselines, "_CONTAINS_SLACK", -1.0)
        with pytest.raises(SmoothmaxError, match="5 pivot passes"):
            welzl_exact(random_point_cloud(0, 5, 2, "gaussian"), seed=0)


@settings(max_examples=60, deadline=None)
@given(
    distribution=st.sampled_from(DISTRIBUTIONS),
    cloud_seed=st.integers(min_value=0, max_value=10_000),
    order_seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=300),
    dim=st.integers(min_value=1, max_value=WELZL_MAX_DIM),
    offset=st.sampled_from([0.0, 1e6, 1e8]),
    duplicate=st.booleans(),
)
# A cloud whose last pivot pass found a point outside a radius taken from
# the support alone.
@example(distribution="sphere_surface", cloud_seed=0, order_seed=0, n=400, dim=4,
         offset=1e6, duplicate=False)
def test_pivoting_matches_the_plain_recursion(
    distribution, cloud_seed, order_seed, n, dim, offset, duplicate
):
    n = min(n, 1800 // dim)  # the plain recursion's cost grows fast with d
    points = random_point_cloud(cloud_seed, n, dim, distribution).points + offset
    if duplicate:  # repeat a third of the rows, after the originals
        points = np.concatenate([points, points[: max(1, n // 3)]])
    cloud = PointCloud(points)
    exact = welzl_exact(cloud, seed=order_seed)
    assert_matches_the_reference(points, exact, offset)
    # The ball encloses every point as computed, not only to a tolerance.
    assert math.sqrt(farthest_sq_distance(cloud, exact.center)[0]) <= exact.radius


def assert_matches_the_reference(points, exact, offset):
    """The radius matches the plain recursion's, every point lies in the
    ball and every support point on it."""
    # Both centres are rounded to the grid of the shifted coordinates, which
    # moves a distance to them by up to about sqrt(d) ulp of the offset.
    rounding = math.sqrt(points.shape[1]) * np.spacing(2.0 * offset)
    assert exact.radius == pytest.approx(reference_radius(points), rel=1e-12, abs=rounding)
    dists = np.linalg.norm(points - exact.center, axis=1)
    assert np.max(dists) <= exact.radius * (1.0 + 1e-9)
    for idx in exact.support:
        assert dists[idx] == pytest.approx(exact.radius, rel=1e-7, abs=rounding)


def flat_cloud(seed: int, n: int, k: int, d: int, offset: float, noise: float) -> np.ndarray:
    """n points on a randomly rotated and shifted k-flat in R^d and the
    first third of them again, then Gaussian noise of scale ``noise`` and
    ``offset`` added to every coordinate."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((d, d)))
    points = rng.standard_normal((n, k)) @ rotation[:k] + rng.standard_normal(d)
    points = np.concatenate([points, points[: n // 3]])
    return points + noise * rng.standard_normal(points.shape) + offset


class TestDegeneratePushes:
    """Boundary points in the affine hull of those already pushed: a push
    of such a point is refused and the recursion skips it."""

    def test_push_in_the_affine_hull_is_refused(self):
        # Offsets from q0, which is row 0: after row 1, rows 2 and 3 lie on
        # the line through q0 and row 1 (row 3 within 1e-13 of it), and row
        # 4 repeats q0; only row 5, off that line, may join the boundary.
        boundary = baselines._Boundary(np.array(
            [[0, 0, 0], [2, 0, 0], [5, 0, 0], [3, 1e-13, 0], [0, 0, 0], [1, 1, 0]],
            dtype=float,
        ))
        assert boundary.push(1)
        assert not any(boundary.push(j) for j in (2, 3, 4))
        assert boundary.stack == [0, 1] and boundary.support == (0, 1)
        assert boundary.push(5)
        assert boundary.support == (0, 1, 5)
        np.testing.assert_allclose(boundary.c[boundary.level], [1, 0, 0], atol=1e-15)
        assert boundary.r2[boundary.level] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("noise", [0.0, 1e-13])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("k, d", [(1, 2), (1, 5), (2, 3), (3, 8), (6, 12), (11, 12)])
    def test_points_on_a_flat_match_the_reference(self, k, d, offset, noise):
        points = flat_cloud(k * 100 + d, 90, k, d, offset, noise)
        for seed in range(3):
            assert_matches_the_reference(points, welzl_exact(PointCloud(points), seed=seed),
                                         offset)

    @pytest.mark.parametrize("noise", [0.0, 1e-13])
    @pytest.mark.parametrize("k, d", [(1, 3), (2, 4), (3, 7), (4, 9)])
    def test_points_on_a_flat_match_exhaustive_search(self, k, d, noise):
        points = flat_cloud(k * 100 + d, 8, k, d, 0.0, noise)
        exact = welzl_exact(PointCloud(points), seed=k)
        assert exact.radius == pytest.approx(brute_force_meb(points), rel=1e-9)

    @pytest.mark.parametrize("n", range(1, WELZL_MAX_DIM + 1))
    def test_regular_simplex(self, n):
        # e_1, ..., e_n, unrotated and at the origin: the ball is centred at
        # their mean, and all n are its support.
        cloud, radius = regular_simplex(None, n, offset=0.0)
        for seed in range(n):
            exact = welzl_exact(cloud, seed=seed)
            assert exact.radius == pytest.approx(radius, rel=1e-12, abs=0)
            np.testing.assert_allclose(exact.center, np.full(n, 1.0 / n), rtol=0, atol=1e-15)
            assert exact.support == tuple(range(n))

    def test_cospherical_cloud_in_twelve_dimensions(self):
        cloud = random_point_cloud(0, 5000, 12, "sphere_surface")
        assert_matches_the_reference(cloud.points, welzl_exact(cloud, seed=0), 0.0)

    def test_no_linear_solve(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("welzl_exact called a linear solver")

        monkeypatch.setattr(np.linalg, "lstsq", refused)
        monkeypatch.setattr(np.linalg, "solve", refused)
        for points in (random_point_cloud(1, 500, 12, "sphere_surface").points,
                       flat_cloud(3, 40, 2, 6, 1e6, 1e-13), np.eye(5)):
            welzl_exact(PointCloud(points), seed=0)


def direct_steps(points: np.ndarray, iterations: int) -> tuple[np.ndarray, list[int]]:
    """The core-set steps on the direct ||c_i - x||^2, and the picks.  The
    centre after step k is m + sum(p - m) / (k + 1) over c_0 = points[0]
    and the k picks, m the centroid, formed by badoiu_clarkson's float
    operations so that its centre can be compared bit for bit."""
    centroid = points.mean(axis=0)
    total = points[0] - centroid
    center = points[0].copy()
    picks = []
    for k in range(1, iterations + 1):
        diffs = points - center
        idx = int(np.argmax(np.einsum("ij,ij->i", diffs, diffs)))
        picks.append(idx)
        total = total + (points[idx] - centroid)
        center = centroid + total / (k + 1)
    return center, picks


class TestBadoiuClarkson:
    def test_two_point_first_step_is_exact(self):
        cloud = PointCloud(np.array([[0.0], [2.0]]))
        result = badoiu_clarkson(cloud, 1.0)
        np.testing.assert_allclose(result.center, [1.0])
        assert result.radius == pytest.approx(1.0)
        assert result.iterations == 1

    def test_singleton(self):
        cloud = PointCloud(np.array([[5.0, -1.0]]))
        result = badoiu_clarkson(cloud, 0.5)
        assert result.radius == 0.0
        assert result.iterations == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_approximation_guarantee(self, seed):
        cloud = random_point_cloud(seed, 150, 4, "gaussian")
        result = badoiu_clarkson(cloud, 0.1)
        exact = welzl_exact(cloud, seed=seed).radius
        assert result.radius <= 1.1 * exact

    def test_iterates_stay_in_convex_hull_1d(self):
        # In 1-D, hull membership is an interval check.  The run planned for
        # k steps returns the iterate it stopped at; from the interior start
        # c_0 = 1 the iterates swing about the centre 2, so the runs stop at
        # steps 1 to 5.
        cloud = PointCloud(np.array([[1.0], [0.0], [4.0]]))
        stops = set()
        for k in range(1, 30):
            result = badoiu_clarkson(cloud, min(1.0, (k - 0.5) ** -0.5))
            assert result.planned_iterations == k
            assert 1 <= result.iterations <= k
            assert 0.0 <= result.center[0] <= 4.0
            stops.add(result.iterations)
        assert len(stops) >= 5

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("distribution", ["gaussian", "sphere_surface", "clustered"])
    def test_steps_match_the_direct_farthest_point(self, distribution, offset):
        # Each step's farthest index comes from the centred-GEMV kernel; a
        # loop on the direct ||c_i - x||^2 must take the same steps.  (An
        # exact tie, such as at the centre of a 1-D cloud of +-1 points, may
        # break either way; these clouds have none.)  At d = 8 the GEMV sums
        # over more coordinates, in another order than the direct loop.  The
        # run at eps 1e-3, which certifies after 480-677 of its 10^6 planned
        # steps, guards the running centred sum over a long run; the input
        # cloud must come back untouched and unaliased.
        for n, d, eps, planned in ((1000, 3, 0.1, 100), (3000, 8, 0.1, 100),
                                   (1000, 3, 1e-3, 10 ** 6)):
            cloud = random_point_cloud(7, n, d, distribution)
            cloud = PointCloud(cloud.points + offset)
            before = cloud.points.tobytes()
            result = badoiu_clarkson(cloud, eps)
            assert cloud.points.tobytes() == before, (n, d)
            assert not np.shares_memory(result.center, cloud.points), (n, d)
            center, _ = direct_steps(cloud.points, result.iterations)
            diffs = cloud.points - center
            assert result.planned_iterations == planned
            assert result.iterations > (400 if eps == 1e-3 else 0)
            assert result.center.tobytes() == center.tobytes(), (n, d)
            assert result.radius == math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_center_is_the_mean_of_the_picks_far_from_origin(self, offset):
        # The centre is the mean of c_0 and the K picks.  A recurrence that
        # moves the centre in raw coordinates rounds at the offset's ulp in
        # every one of the ~1900 steps the run takes before its dual
        # certifies it; the centred sum rounds there once.
        cloud = PointCloud(random_point_cloud(3, 1000, 3, "gaussian").points + offset)
        result = badoiu_clarkson(cloud, 1e-4)
        assert result.planned_iterations == 10 ** 8
        assert result.iterations > 1500
        _, picks = direct_steps(cloud.points, result.iterations)
        chosen = cloud.points[[0] + picks]
        exact = [math.fsum(chosen[:, i]) / len(chosen) for i in range(cloud.dim)]
        assert np.all(np.abs(result.center - exact) <= 2 * np.spacing(offset)), (
            (result.center - exact) / np.spacing(offset))

    @staticmethod
    def record_score_calls(monkeypatch) -> list:
        # (address of the buffer written, scale) for every score-hook call.
        calls = []
        original = BoundingSphereFamily.scores_into

        def recorded(self, x, out, scale=1.0):
            calls.append((out.__array_interface__["data"][0], scale))
            original(self, x, out, scale)

        monkeypatch.setattr(BoundingSphereFamily, "scores_into", recorded)
        return calls

    def test_repeated_picks_add_cached_columns(self, monkeypatch):
        # The clustered cloud's steps bounce among a few points: the start
        # scores and one column per distinct pick are the only GEMVs, over
        # the ~290 steps the run takes at eps 1e-3.
        calls = self.record_score_calls(monkeypatch)
        cloud = random_point_cloud(7, 5000, 8, "clustered")
        result = badoiu_clarkson(cloud, 1e-3)
        assert result.planned_iterations == 10 ** 6
        assert result.iterations > 200
        assert len(calls) <= cloud.dim + 2
        assert all(scale == 1.0 for _, scale in calls)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_recomputed_steps_match_the_direct_loop(self, monkeypatch, offset):
        # On a sphere most steps pick a point the full cache does not hold
        # and recompute the scores at the new centre; those steps must still
        # be the direct loop's, bit for bit, over the hundreds of steps a run
        # at eps 1e-3 takes.  Each cached column is written once, into one of
        # at most d + 1 rows.
        calls = self.record_score_calls(monkeypatch)
        cloud = PointCloud(random_point_cloud(5, 2000, 5, "sphere_surface").points + offset)
        result = badoiu_clarkson(cloud, 1e-3)
        assert result.iterations > 300
        center, _ = direct_steps(cloud.points, result.iterations)
        assert result.center.tobytes() == center.tobytes()
        scores, _ = calls[0]
        column_writes = [address for address, _ in calls if address != scores]
        assert len(column_writes) == len(set(column_writes)) <= cloud.dim + 1
        recomputes = [scale for address, scale in calls if address == scores][1:]
        assert len(recomputes) > result.iterations // 2
        assert all(scale > 1.0 for scale in recomputes)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fewer_points_than_the_cache_holds(self, monkeypatch, n):
        # d + 1 = 9 columns would fit, but there are only n points to pick.
        # (Two points tie exactly at their midpoint, so the steps are not
        # compared with the direct loop's.)
        calls = self.record_score_calls(monkeypatch)
        points = random_point_cloud(n, n, 8, "gaussian").points
        result = badoiu_clarkson(PointCloud(points), 0.1)
        assert result.planned_iterations == 100
        assert len(calls) <= n + 1
        assert result.radius <= 1.1 * welzl_exact(PointCloud(points)).radius
        diffs = points - result.center
        assert result.radius == math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))

    def test_epsilon_validation(self):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        with pytest.raises(ContractViolationError):
            badoiu_clarkson(cloud, 0.0)

    def test_iteration_budget(self):
        cloud = random_point_cloud(2, 30, 2, "gaussian")
        result = badoiu_clarkson(cloud, 0.25)
        assert result.planned_iterations == math.ceil(1.0 / 0.25 ** 2)
        assert result.iterations <= result.planned_iterations

    @pytest.mark.parametrize("eps", [1e-6, 1e-160, 1e-200, 5e-324])
    def test_count_above_the_planned_cap_is_refused(self, eps):
        # 1e-6 plans 10^12 steps; 1e-160 and 1e-200 square to an overflowing
        # or zero count, and 5e-324 is the smallest subnormal.
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        with pytest.raises(ConfigurationError):
            badoiu_clarkson(cloud, eps)


class TestBaselineEquivariance:
    @pytest.mark.parametrize("algorithm", ["welzl", "coreset"])
    def test_translation_and_scale(self, algorithm):
        cloud = random_point_cloud(31, 60, 3, "clustered")
        shift = np.array([4.0, -2.0, 7.0])
        scale = 2.5

        def run(c):
            if algorithm == "welzl":
                res = welzl_exact(c, seed=5)
            else:
                res = badoiu_clarkson(c, 0.1)
            return res.center, res.radius

        c0, r0 = run(cloud)
        c1, r1 = run(PointCloud(cloud.points + shift))
        np.testing.assert_allclose(c1, c0 + shift, rtol=1e-9, atol=1e-9)
        assert r1 == pytest.approx(r0, rel=1e-9)
        c2, r2 = run(PointCloud(cloud.points * scale))
        np.testing.assert_allclose(c2, c0 * scale, rtol=1e-9, atol=1e-9)
        assert r2 == pytest.approx(r0 * scale, rel=1e-9)


class TestCoreSetCertificate:
    """The core set's dual stop: sqrt(gamma) at its uniform weights is a
    lower bound on R, and a run stops once radius / sqrt(gamma) <= 1+eps."""

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("distribution", ["gaussian", "sphere_surface", "clustered"])
    def test_certificate_brackets_the_exact_radius(self, distribution, offset):
        # R comes from the oracle on the cloud at the origin; adding the
        # offset rounds each point by up to sqrt(d) ulp(2 offset).
        for seed in range(6):
            base = random_point_cloud(seed, 300, 2 + seed, distribution)
            exact = welzl_exact(base).radius * (1.0 + 1e-9)
            exact += math.sqrt(base.dim) * float(np.spacing(2.0 * offset))
            cloud = PointCloud(base.points + offset)
            for eps in (0.1, 0.01, 1e-3):
                result = badoiu_clarkson(cloud, eps)
                case = (seed, eps, result.iterations)
                diffs = cloud.points - result.center
                assert result.radius == math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))
                assert result.certified_radius_lower <= exact, case
                assert result.radius <= (1.0 + eps) * exact, case
                assert result.certified_ratio == result.radius / result.certified_radius_lower
                if result.iterations < result.planned_iterations:
                    assert result.certified_ratio <= 1.0 + eps, case

    def test_a_run_that_reaches_its_cap_uncertified(self):
        # One step from c_0 = 0 picks 1 and reaches c_1 = 0.5, where f = 1.96
        # and gamma = 0.25: the ratio 2.8 does not prove (1 + 1) = 2.
        result = badoiu_clarkson(PointCloud(np.array([[0.0], [1.0], [-0.9]])), 1.0)
        assert result.iterations == result.planned_iterations == 1
        assert result.radius == pytest.approx(1.4)
        assert result.certified_radius_lower == pytest.approx(0.5)
        assert result.certified_ratio == pytest.approx(2.8)

    def test_a_certified_run_makes_one_raw_pass(self, monkeypatch):
        # The estimate from the loop's scalars only triggers the check; the
        # check's raw farthest pass also gives the radius.
        passes = []
        original = baselines.farthest_sq_distance

        def counted(cloud, x):
            passes.append(x)
            return original(cloud, x)

        monkeypatch.setattr(baselines, "farthest_sq_distance", counted)
        for distribution in ("gaussian", "sphere_surface", "clustered"):
            cloud = random_point_cloud(7, 1000, 3, distribution)
            for eps in (0.1, 0.03, 1e-3):
                passes.clear()
                result = badoiu_clarkson(cloud, eps)
                assert result.iterations < result.planned_iterations
                assert len(passes) == 1, (distribution, eps)

    @pytest.mark.parametrize("n, d, distribution", [(2000, 5, "gaussian"),
                                                     (2000, 5, "clustered"),
                                                     (474, 3, "gaussian")])
    def test_certified_steps_grow_as_one_over_eps(self, n, d, distribution):
        # The dual gap of the 1/(k+1) rule closes as O(1/k), so the certified
        # step count grows as 1/eps, not as the planned 1/eps^2: the slope of
        # log steps against log 1/eps reads 0.95, 0.99 and 0.91 here.
        cloud = random_point_cloud(0, n, d, distribution)
        epsilons = (1e-2, 1e-3, 1e-4)
        steps = [badoiu_clarkson(cloud, eps).iterations for eps in epsilons]
        slope = np.polyfit(np.log([1.0 / eps for eps in epsilons]), np.log(steps), 1)[0]
        assert 0.8 <= slope <= 1.2, steps


def test_each_method_reports_how_it_stopped():
    # The core set capped before its dual proves the ball (one step on the
    # cloud 0, 1, -0.9 at eps 1, as above) stopped "planned"; a run that
    # proves its ratio, or a ball of radius 0, "certified".  Welzl has no
    # certificate and no stop reason.
    assert badoiu_clarkson(PointCloud(np.array([[0.0], [1.0], [-0.9]])), 1.0).stop_reason \
        == "planned"
    cloud = random_point_cloud(0, 500, 3, "gaussian")
    assert badoiu_clarkson(cloud, 0.01).stop_reason == "certified"
    smooth = solve_meb(cloud, MebConfig(0.01))
    assert smooth.stop_reason == smooth.solve_report.stop_reason == "certified"
    coincident = PointCloud(np.array([[3.0], [3.0]]))
    assert badoiu_clarkson(coincident, 0.1).stop_reason == "certified"
    assert solve_meb(coincident, MebConfig(0.1)).stop_reason == "certified"
    assert welzl_exact(cloud).stop_reason is None


# The cloud shapes of perfbench's baselines workload, here drawn from seed 0.
BASELINE_SHAPES = (
    (1000, 2, "gaussian"), (1200, 2, "sphere_surface"), (1000, 3, "clustered"),
    (1200, 3, "gaussian"), (1100, 4, "sphere_surface"), (1350, 4, "clustered"),
    (1650, 4, "gaussian"), (1600, 5, "clustered"), (2000, 5, "sphere_surface"),
    (2000, 6, "clustered"), (2450, 6, "sphere_surface"), (3000, 6, "clustered"),
    (3150, 7, "sphere_surface"), (3850, 7, "clustered"), (4100, 8, "sphere_surface"),
    (5000, 8, "clustered"),
)


@pytest.mark.parametrize("eps, expected", [
    (0.1, [8, 1, 3, 11, 1, 6, 8, 6, 3, 6, 3, 4, 3, 4, 5, 4]),  # 76 in all
    (0.03, [32, 1, 11, 23, 11, 20, 24, 18, 13, 16, 16, 16, 15, 8, 16, 10]),  # 250
])
def test_core_set_step_counts_are_pinned(eps, expected):
    # The core set's certified steps, pinned exactly like solve_meb's (the
    # same last-bit scaling of the clouds moved none of these).
    steps = [badoiu_clarkson(random_point_cloud(0, n, d, kind), eps).iterations
             for n, d, kind in BASELINE_SHAPES]
    assert steps == expected

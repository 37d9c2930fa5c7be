import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothmax import PointCloud, badoiu_clarkson, welzl_exact
from smoothmax import baselines
from smoothmax.baselines import _circumball, _welzl_mtf
from smoothmax.errors import (
    ConfigurationError,
    ContractViolationError,
    SmoothmaxError,
    UnsupportedDimensionError,
)
from smoothmax.testkit import DISTRIBUTIONS, random_point_cloud


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
    dim=st.integers(min_value=1, max_value=6),
    offset=st.sampled_from([0.0, 1e6, 1e8]),
    duplicate=st.booleans(),
)
def test_pivoting_matches_the_plain_recursion(
    distribution, cloud_seed, order_seed, n, dim, offset, duplicate
):
    points = random_point_cloud(cloud_seed, n, dim, distribution).points + offset
    if duplicate:  # repeat a third of the rows, after the originals
        points = np.concatenate([points, points[: max(1, n // 3)]])
    exact = welzl_exact(PointCloud(points), seed=order_seed)
    _, r2, _ = _welzl_mtf(points, list(range(points.shape[0])), [])
    # Both centres are rounded to the grid of the shifted coordinates, which
    # moves a distance to them by up to about sqrt(d) ulp of the offset.
    rounding = math.sqrt(dim) * np.spacing(2.0 * offset)
    assert exact.radius == pytest.approx(math.sqrt(r2), rel=1e-12, abs=rounding)
    dists = np.linalg.norm(points - exact.center, axis=1)
    assert np.max(dists) <= exact.radius * (1.0 + 1e-9)
    for idx in exact.support:
        assert dists[idx] == pytest.approx(exact.radius, rel=1e-7, abs=rounding)


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
        # In 1-D, hull membership is an interval check; the run planned for
        # k steps returns the k-th iterate, so every iterate up to 29 is seen.
        cloud = PointCloud(np.array([[0.0], [1.0], [4.0]]))
        for k in range(1, 30):
            result = badoiu_clarkson(cloud, min(1.0, (k - 0.5) ** -0.5))
            assert result.iterations == k
            assert 0.0 <= result.center[0] <= 4.0

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("distribution", ["gaussian", "sphere_surface", "clustered"])
    def test_steps_match_the_direct_farthest_point(self, distribution, offset):
        # Each step's farthest index comes from the centred-GEMV kernel; a
        # loop on the direct ||c_i - x||^2 must take the same steps.  (An
        # exact tie, such as at the centre of a 1-D cloud of +-1 points, may
        # break either way; these clouds have none.)  At d = 8 the GEMV sums
        # over more coordinates, in another order than the direct loop.  The
        # 1112-step run at eps 0.03 guards the in-place centre update over a
        # long run; the input cloud must come back untouched and unaliased.
        for n, d, eps, steps in ((1000, 3, 0.1, 100), (3000, 8, 0.1, 100), (1000, 3, 0.03, 1112)):
            cloud = random_point_cloud(7, n, d, distribution)
            cloud = PointCloud(cloud.points + offset)
            before = cloud.points.tobytes()
            result = badoiu_clarkson(cloud, eps)
            assert cloud.points.tobytes() == before, (n, d)
            assert not np.shares_memory(result.center, cloud.points), (n, d)
            center = cloud.points[0].copy()
            for k in range(1, result.iterations + 1):
                diffs = cloud.points - center
                idx = int(np.argmax(np.einsum("ij,ij->i", diffs, diffs)))
                center = center + (cloud.points[idx] - center) / (k + 1)
            diffs = cloud.points - center
            assert result.iterations == steps
            assert result.center.tobytes() == center.tobytes(), (n, d)
            assert result.radius == math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))

    def test_epsilon_validation(self):
        cloud = PointCloud(np.array([[0.0], [1.0]]))
        with pytest.raises(ContractViolationError):
            badoiu_clarkson(cloud, 0.0)

    def test_iteration_budget(self):
        cloud = random_point_cloud(2, 30, 2, "gaussian")
        result = badoiu_clarkson(cloud, 0.25)
        assert result.iterations == math.ceil(1.0 / 0.25 ** 2)

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

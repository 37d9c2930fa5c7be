import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothmax import (
    MebConfig,
    PointCloud,
    centroid_init,
    farthest_sq_distance,
    meb_gradient_bound,
    radius_bounds,
    required_iterations_meb,
    solve_meb,
    welzl_exact,
)
from smoothmax import meb
from smoothmax.errors import ContractViolationError
from smoothmax.testkit import DISTRIBUTIONS, random_point_cloud


def cloud_of(*rows):
    return PointCloud(np.array(rows, dtype=float))


class TestPointCloud:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ContractViolationError):
            PointCloud(np.zeros((0, 2)))
        with pytest.raises(ContractViolationError):
            cloud_of([0.0, math.nan])

    def test_shape_accessors(self):
        cloud = cloud_of([0.0, 0.0], [1.0, 2.0])
        assert (cloud.n, cloud.dim) == (2, 2)


class TestCentroidInit:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(centroid_init(cloud_of([-1.0], [1.0])), [0.0])

    def test_triangle(self):
        cloud = cloud_of([0.0, 0.0], [1.0, 0.0], [0.0, 3.0])
        np.testing.assert_allclose(centroid_init(cloud), [1.0 / 3.0, 1.0])

    def test_single_point(self):
        np.testing.assert_allclose(centroid_init(cloud_of([2.0, -5.0])), [2.0, -5.0])


class TestFarthestSqDistance:
    def test_simple(self):
        value, idx = farthest_sq_distance(cloud_of([-1.0], [2.0]), np.array([0.0]))
        assert (value, idx) == (4.0, 1)

    def test_singleton_at_point(self):
        value, idx = farthest_sq_distance(cloud_of([3.0, 4.0]), np.array([3.0, 4.0]))
        assert (value, idx) == (0.0, 0)

    def test_matches_exhaustive_scan(self):
        cloud = random_point_cloud(5, 40, 3, "gaussian")
        x = np.array([0.2, -0.4, 0.9])
        value, idx = farthest_sq_distance(cloud, x)
        brute = [float(np.sum((p - x) ** 2)) for p in cloud.points]
        assert value == max(brute)
        assert idx == int(np.argmax(brute))


class TestRadiusAndGradientBounds:
    def test_radius_bounds_values(self):
        assert radius_bounds(4.0) == (1.0, 2.0)
        assert radius_bounds(0.0) == (0.0, 0.0)
        assert radius_bounds(1.0) == (0.5, 1.0)

    def test_gradient_bound_values(self):
        assert meb_gradient_bound(4.0, 2.0) == pytest.approx(6.0 * math.sqrt(21.0))
        assert meb_gradient_bound(0.0, 2.0) == pytest.approx(6.0)

    def test_gradient_bound_monotone(self):
        assert meb_gradient_bound(2.0, 1.0) < meb_gradient_bound(3.0, 1.0)
        assert meb_gradient_bound(2.0, 1.0) < meb_gradient_bound(2.0, 2.0)


class TestRequiredIterationsMeb:
    def test_golden_value(self):
        assert required_iterations_meb(1.0, 2) == 28

    def test_single_point(self):
        assert required_iterations_meb(1.0, 1) == 1

    def test_quartering_epsilon_roughly_doubles(self):
        # the log(1 + 4/eps) factor keeps the ratio slightly above 2
        eps = 1e-5
        t1 = required_iterations_meb(eps, 64)
        t2 = required_iterations_meb(eps / 4.0, 64)
        assert 2.0 <= t2 / t1 <= 2.3


class TestSolveMeb:
    def test_two_points(self):
        result = solve_meb(cloud_of([0.0], [2.0]), MebConfig(0.01))
        assert result.radius <= 1.01
        assert abs(result.center[0] - 1.0) <= 0.05
        assert result.radius >= 1.0 - 1e-9  # must still cover both points

    def test_equilateral_triangle(self):
        cloud = cloud_of([0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0])
        result = solve_meb(cloud, MebConfig(0.01))
        exact = 1.0 / math.sqrt(3.0)
        assert result.radius <= 1.01 * exact
        assert result.radius >= exact - 1e-9

    @pytest.mark.parametrize("seed,dist", [(0, "gaussian"), (1, "sphere_surface"), (2, "clustered")])
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_random_clouds_against_welzl(self, seed, dist, eps):
        cloud = random_point_cloud(seed, 120, 4, dist)
        result = solve_meb(cloud, MebConfig(eps))
        exact = welzl_exact(cloud, seed=seed).radius
        assert result.radius <= (1.0 + eps) * exact * (1.0 + 1e-9)

    def test_enclosure_is_by_construction(self):
        cloud = random_point_cloud(3, 60, 3, "gaussian")
        result = solve_meb(cloud, MebConfig(0.05))
        dists = np.linalg.norm(cloud.points - result.center, axis=1)
        assert np.max(dists) <= result.radius * (1.0 + 1e-9)

    def test_degenerate_single_and_coincident(self):
        single = solve_meb(cloud_of([1.0, 2.0]), MebConfig(0.5))
        assert single.radius == 0.0 and single.iterations == 0
        coincident = solve_meb(cloud_of([1.0], [1.0], [1.0]), MebConfig(0.5))
        assert coincident.radius == 0.0
        np.testing.assert_allclose(coincident.center, [1.0])

    def test_lemma_bracket_contains_exact_radius(self):
        for seed in range(8):
            cloud = random_point_cloud(seed, 50, 3, "gaussian")
            result = solve_meb(cloud, MebConfig(0.1))
            exact = welzl_exact(cloud, seed=seed).radius
            assert result.radius_lower <= exact <= result.radius_upper
            assert result.radius_upper == pytest.approx(2.0 * result.radius_lower)

    def test_planned_iterations_match_formula(self):
        cloud = random_point_cloud(11, 80, 3, "gaussian")
        result = solve_meb(cloud, MebConfig(0.1))
        assert result.planned_iterations == required_iterations_meb(0.1, 80)

    def test_translation_equivariance(self):
        cloud = random_point_cloud(4, 70, 3, "gaussian")
        shift = np.array([10.0, -3.0, 0.5])
        base = solve_meb(cloud, MebConfig(0.05))
        moved = solve_meb(PointCloud(cloud.points + shift), MebConfig(0.05))
        np.testing.assert_allclose(moved.center, base.center + shift, atol=1e-9)
        assert moved.radius == pytest.approx(base.radius, rel=1e-9)

    def test_scale_equivariance(self):
        cloud = random_point_cloud(4, 70, 3, "gaussian")
        scale = 3.5
        base = solve_meb(cloud, MebConfig(0.05))
        scaled = solve_meb(PointCloud(cloud.points * scale), MebConfig(0.05))
        np.testing.assert_allclose(scaled.center, base.center * scale, rtol=1e-9, atol=1e-9)
        assert scaled.radius == pytest.approx(base.radius * scale, rel=1e-9)

    def test_duplicate_points_change_n_not_answer_much(self):
        cloud = cloud_of([0.0], [2.0], [2.0])
        result = solve_meb(cloud, MebConfig(0.01))
        assert result.radius <= 1.01
        assert result.planned_iterations == required_iterations_meb(0.01, 3)

    def test_config_validation(self):
        with pytest.raises(ContractViolationError):
            MebConfig(0.0)
        with pytest.raises(ContractViolationError):
            MebConfig(1.5)

    def test_gradient_norms_obey_lemma_bounds(self):
        # At every iterate: ||grad f_s(x_t)|| <= 2 sqrt(5 R^2 + eps/2) and
        # ||grad f_s(y_t)|| <= 6 sqrt(5 R^2 + eps/2), R exact.
        from smoothmax import BoundingSphereFamily, SmoothingParams, smooth_gradient

        cloud = random_point_cloud(21, 60, 3, "gaussian")
        exact = welzl_exact(cloud, seed=0).radius
        family = BoundingSphereFamily(cloud)
        records = []

        def observer(state, grad_y):
            records.append((state, grad_y))

        result = solve_meb(cloud, MebConfig(0.05), iterate_observer=observer)
        eps = result.epsilon_gap_used
        s = result.solve_report.s
        params = SmoothingParams(s)
        bound_core = math.sqrt(5.0 * exact ** 2 + 0.5 * eps)
        for state, _ in records:
            gx = np.linalg.norm(smooth_gradient(family, params, state.x_current))
            gy = np.linalg.norm(smooth_gradient(family, params, state.y_current))
            assert gx <= 2.0 * bound_core + 1e-6
            assert gy <= 6.0 * bound_core + 1e-6


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([1e6, 1e8]),
    eps=st.sampled_from([0.1, 0.03]),
)
def test_far_offset_clouds_keep_the_guarantee(seed, offset, eps):
    # Rounding each shifted coordinate moves a point by at most sqrt(d) ulp,
    # which moves the optimal radius by no more than that.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    cloud = random_point_cloud(seed, int(rng.integers(10, 121)), dim, DISTRIBUTIONS[seed % 3])
    exact = welzl_exact(cloud).radius
    moved = PointCloud(cloud.points + offset)
    result = solve_meb(moved, MebConfig(eps))
    dists = np.linalg.norm(moved.points - result.center, axis=1)
    assert np.max(dists) <= result.radius * (1.0 + 1e-9)
    assert result.radius <= (1.0 + eps) * (exact + math.sqrt(dim) * np.spacing(2.0 * offset))


# Coordinates on a 2^-20 grid: adding 1e6 or 1e8 to them is exact, so the
# moved cloud has exactly the radius Welzl computes on the unmoved one.
GRID = 2.0 ** -20
CLOUD_KINDS = DISTRIBUTIONS + ("duplicates", "cospherical")


def soundness_cloud(kind: str, seed: int, n: int, dim: int) -> PointCloud:
    if kind == "cospherical":  # every corner of [-1, 1]^dim, on one sphere
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * dim)).reshape(dim, -1).T
        return PointCloud(corners)
    if kind == "duplicates":  # a few points, each repeated four times
        points = np.repeat(random_point_cloud(seed, max(2, n // 4), dim).points, 4, axis=0)
    else:
        points = random_point_cloud(seed, n, dim, kind).points
    return PointCloud(np.round(points / GRID) * GRID)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CLOUD_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([0.0, 1e6, 1e8]),
    eps=st.sampled_from([0.1, 0.03]),
)
def test_certified_radius_bound_is_sound(kind, seed, offset, eps):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    cloud = soundness_cloud(kind, seed, int(rng.integers(2, 121)), dim)
    exact = welzl_exact(cloud).radius
    moved = PointCloud(cloud.points + offset)
    assert np.array_equal(moved.points - offset, cloud.points)
    result = solve_meb(moved, MebConfig(eps))
    assert result.certified_radius_lower <= exact * (1.0 + 1e-9)
    assert result.radius <= (1.0 + eps) * exact * (1.0 + 1e-9)
    dists = np.linalg.norm(moved.points - result.center, axis=1)
    assert np.max(dists) <= result.radius * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CLOUD_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([0.0, 1e6, 1e8]),
    eps=st.sampled_from([0.1, 0.03, 0.01]),
)
def test_certified_solves_prove_their_own_ratio(kind, seed, offset, eps):
    # A certified solve proves radius <= (1+eps) certified_radius_lower from
    # its own bound, and that bound is below the exact radius.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    cloud = soundness_cloud(kind, seed, int(rng.integers(2, 121)), dim)
    exact = welzl_exact(cloud).radius
    result = solve_meb(PointCloud(cloud.points + offset), MebConfig(eps))
    lower = result.certified_radius_lower
    assert lower <= exact * (1.0 + 1e-9)
    assert result.certified_ratio == result.radius / lower
    if result.solve_report.stop_reason == "certified":
        assert result.radius <= (1.0 + eps) * lower * (1.0 + 1e-12)
    else:
        # The last round ran its full a-priori count.
        assert result.solve_report.iterations_run == result.planned_iterations


def test_certified_ratio_is_none_without_a_positive_lower_radius():
    assert solve_meb(cloud_of([1.0, 2.0]), MebConfig(0.1)).certified_ratio is None
    assert solve_meb(cloud_of([3.0], [3.0]), MebConfig(0.1)).certified_ratio is None


class TestContinuation:
    def test_observers_see_one_step_counter(self):
        cloud = random_point_cloud(5, 300, 4, "gaussian")
        rows, states = [], []
        result = solve_meb(cloud, MebConfig(0.01),
                           progress=lambda t, value, grad_norm: rows.append(t),
                           iterate_observer=lambda state, grad: states.append(state.t))
        assert result.iterations > result.solve_report.iterations_run  # several rounds stepped
        assert rows == states == list(range(2, result.iterations + 2))

    def test_rounds_follow_the_schedule_and_the_proved_bound(self, monkeypatch):
        # With every cap at 2 steps, every round of this cloud reaches it.
        configs, reports, run_to_gap = [], [], meb.run_to_gap

        def recording_run_to_gap(family, constants, config, **observers):
            configs.append(config)
            reports.append(run_to_gap(family, constants, config, **observers))
            return reports[-1]

        monkeypatch.setattr(meb, "required_iterations_meb", lambda eps, n: 2)
        monkeypatch.setattr(meb, "run_to_gap", recording_run_to_gap)
        cloud = random_point_cloud(2, 200, 3, "clustered")
        result = solve_meb(cloud, MebConfig(0.01))
        assert [c.relative_epsilon for c in configs] == [1.0, 0.25, 0.0625, 0.015625, 0.01]
        assert all(r.iterations_run == 2 and r.stop_reason == "override" for r in reports)
        assert result.iterations == 2 * len(reports)
        assert result.planned_iterations == 2
        f1 = float(np.max(np.sum((cloud.points - centroid_init(cloud)) ** 2, axis=1)))
        lb = f1 / 4.0
        for k, config in enumerate(configs):
            e = config.relative_epsilon
            assert config.epsilon == pytest.approx((2.0 * e + e * e) * lb, rel=1e-12)
            assert config.max_iterations_override == 2
            if k:
                assert config.x1 is reports[k - 1].x_final
            lb = max(lb, reports[k].lower_bound)
        exact = welzl_exact(cloud).radius
        dists = np.linalg.norm(cloud.points - result.center, axis=1)
        assert np.max(dists) <= result.radius * (1.0 + 1e-9)
        assert result.certified_radius_lower == math.sqrt(max(r.lower_bound for r in reports))
        assert result.certified_radius_lower <= exact * (1.0 + 1e-9)
        assert result.solve_report is reports[-1]

    def test_relative_epsilon_one_is_one_round(self):
        cloud = random_point_cloud(3, 60, 3, "gaussian")
        rows = []
        result = solve_meb(cloud, MebConfig(1.0),
                           progress=lambda t, value, grad_norm: rows.append(t))
        assert result.iterations == result.solve_report.iterations_run == len(rows)

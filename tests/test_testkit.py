import math
from fractions import Fraction

import numpy as np
import pytest

from smoothmax import BoundingSphereFamily, PointCloud, farthest_sq_distance, welzl_exact
from smoothmax.errors import ContractViolationError
from smoothmax.testkit import (
    RandomQuadraticFamily,
    audit_ball,
    cross_polytope,
    finite_diff_gradient,
    grid_oracle_minimize,
    random_point_cloud,
    regular_simplex,
)


class TestFiniteDiff:
    def test_quadratic_is_exact_up_to_roundoff(self):
        grad = finite_diff_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant_function(self):
        grad = finite_diff_gradient(lambda x: 3.0, np.array([0.5, -0.5, 1.5]))
        np.testing.assert_allclose(grad, np.zeros(3))

    def test_cubic_truncation_error(self):
        grad = finite_diff_gradient(lambda x: float(x[0] ** 3), np.array([2.0]), h=1e-4)
        assert grad[0] == pytest.approx(12.0, abs=1e-6)

    def test_quadratic_error_shrinks_with_h(self):
        # O(h^2) truncation: halving h shrinks the cubic's error ~4x.
        fn = lambda x: float(x[0] ** 3)
        x = np.array([1.0])
        err = lambda h: abs(finite_diff_gradient(fn, x, h=h)[0] - 3.0)
        ratio = err(1e-3) / err(5e-4)
        assert ratio == pytest.approx(4.0, rel=0.2)

    def test_step_validation(self):
        with pytest.raises(ContractViolationError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(1), h=0.0)


class TestAuditBall:
    def test_integer_ball(self):
        audit = audit_ball(np.array([[0.0, 0.0], [3.0, 4.0], [-1.0, 2.0]]), np.zeros(2), 5.0)
        assert (audit.farthest_sq, audit.radius_sq, audit.index) == (25, 25, 1)
        assert audit.encloses and audit.shortfall == 0.0

    def test_exact_where_floats_round(self):
        # 0.1, 0.2 and 0.3 are not their decimals: 0.2 - 0.1 is exactly the
        # double 0.1, and 0.3 - 0.2 is less.
        points, center = np.array([[0.1], [0.3]]), np.array([0.2])
        audit = audit_ball(points, center, 0.1)
        assert audit.index == 0 and audit.farthest_sq == audit.radius_sq == Fraction(0.1) ** 2
        assert audit.encloses and audit.shortfall == 0.0
        below = float(np.nextafter(0.1, 0.0))
        short = audit_ball(points, center, below)
        assert not short.encloses
        assert short.shortfall == float(1 - (Fraction(below) / Fraction(0.1)) ** 2) > 0.0

    def test_far_offset_and_tiny_values_are_exact(self):
        # Offsets of 1e8 and coordinates of 1e-300 in one cloud: the integer
        # scaling keeps both, where the float shortfall rounds to 0.
        points = np.array([[1e8, 1e-300], [1e8 + 2.0, 0.0]])
        audit = audit_ball(points, np.array([1e8 + 1.0, 0.0]), 1.0)
        assert audit.index == 0
        assert audit.farthest_sq - audit.radius_sq == Fraction(1e-300) ** 2
        assert not audit.encloses and audit.shortfall == 0.0

    def test_coincident_points(self):
        audit = audit_ball(np.ones((3, 2)), np.ones(2), 0.0)
        assert audit.farthest_sq == 0 and audit.encloses and audit.shortfall == 0.0

    @pytest.mark.parametrize("points, center, radius", [
        (np.array([[np.nan, 0.0]]), np.zeros(2), 1.0),
        (np.zeros((2, 2)), np.array([np.inf, 0.0]), 1.0),
        (np.zeros((2, 2)), np.zeros(2), math.inf),
        (np.zeros((2, 2)), np.zeros(3), 1.0),
        (np.zeros((0, 2)), np.zeros(2), 1.0),
    ])
    def test_refuses_malformed_input(self, points, center, radius):
        with pytest.raises(ContractViolationError):
            audit_ball(points, center, radius)


class TestGridOracle:
    def test_scalar_quadratic(self):
        x, value = grid_oracle_minimize(lambda p: float((p[0] - 1.0) ** 2), [-2.0], [2.0], 401)
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_two_quadratic_max(self):
        fn = lambda p: max((p[0] - 1.0) ** 2, (p[0] + 1.0) ** 2)
        x, value = grid_oracle_minimize(fn, [-2.0], [2.0], 401)
        assert x[0] == pytest.approx(0.0, abs=1e-4)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_meb_objective_matches_welzl(self):
        cloud = random_point_cloud(9, 3, 2, "gaussian")
        exact = welzl_exact(cloud, seed=0)
        fn = lambda p: float(np.max(np.sum((cloud.points - p) ** 2, axis=1)))
        x, value = grid_oracle_minimize(fn, [-3.0, -3.0], [3.0, 3.0], 61)
        np.testing.assert_allclose(x, exact.center, atol=0.2)
        assert math.sqrt(value) == pytest.approx(exact.radius, abs=1e-4)

    def test_resolution_validation(self):
        with pytest.raises(ContractViolationError):
            grid_oracle_minimize(lambda p: 0.0, [0.0], [1.0], 1)


class TestRandomPointCloud:
    def test_determinism(self):
        a = random_point_cloud(1, 2, 1, "gaussian")
        b = random_point_cloud(1, 2, 1, "gaussian")
        assert np.array_equal(a.points, b.points)

    def test_sphere_surface_radius(self):
        cloud = random_point_cloud(5, 1000, 3, "sphere_surface")
        norms = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        exact = welzl_exact(cloud, seed=0).radius
        assert 0.95 <= exact <= 1.0 + 1e-9

    def test_clustered_sizes_balanced(self):
        cloud = random_point_cloud(3, 10, 2, "clustered")
        assert cloud.n == 10

    def test_unknown_distribution(self):
        with pytest.raises(ContractViolationError):
            random_point_cloud(0, 5, 2, "uniform")


class TestKnownRadiusClouds:
    @pytest.mark.parametrize("dim", [1, 2, 5, 12])
    @pytest.mark.parametrize("generator", [regular_simplex, cross_polytope])
    def test_radius_matches_the_exact_oracle(self, generator, dim):
        cloud, radius = generator(dim, dim, offset=0.0)
        assert welzl_exact(cloud).radius == pytest.approx(radius, rel=1e-12, abs=0)
        # A rotation keeps every pairwise distance: sqrt(2) or, for +-e_i, 2.
        gaps = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
        gaps = gaps[np.triu_indices(cloud.n, 1)]
        assert np.all(np.minimum(abs(gaps - math.sqrt(2.0)), abs(gaps - 2.0)) <= 1e-12)

    def test_seeded_rotation_and_offset(self):
        plain, _ = regular_simplex(None, 4, offset=0.0)
        assert np.array_equal(plain.points, np.eye(4))
        cloud, _ = cross_polytope(3, 6)
        assert np.array_equal(cloud.points, cross_polytope(3, 6)[0].points)
        assert not np.array_equal(cloud.points, cross_polytope(4, 6)[0].points)
        np.testing.assert_allclose(cloud.points.mean(axis=0), 1e6, rtol=0, atol=1e-9)


class TestRandomQuadraticFamily:
    def test_reproducible_from_seed(self):
        a = RandomQuadraticFamily.from_seed(7, 4, 3)
        b = RandomQuadraticFamily.from_seed(7, 4, 3)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.curvatures, b.curvatures)

    @pytest.mark.parametrize("centers, curvatures", [
        (np.zeros((0, 2)), np.zeros(0)),
        (np.zeros(3), np.ones(3)),
        (np.zeros((2, 2)), np.ones(3)),
        (np.zeros((2, 2)), np.array([1.0, 0.0])),
    ], ids=["empty", "one-dimensional", "mismatched", "zero-curvature"])
    def test_refuses_malformed_input(self, centers, curvatures):
        with pytest.raises(ContractViolationError):
            RandomQuadraticFamily(centers, curvatures)

    def test_constants_known_by_construction(self):
        fam = RandomQuadraticFamily.from_seed(7, 4, 3)
        constants = fam.true_constants(domain_radius=2.0)
        np.testing.assert_allclose(
            constants.per_component_strong_convexity, 2.0 * fam.curvatures
        )
        np.testing.assert_allclose(
            constants.per_component_smoothness, 2.0 * fam.curvatures
        )
        # bound must dominate gradients inside the ball
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(3)
            x = 2.0 * x / max(np.linalg.norm(x), 1.0)
            assert fam.pointwise_gradient_bound(x) <= constants.gradient_norm_bound + 1e-12

    def test_batch_paths_agree_with_scalar(self):
        fam = RandomQuadraticFamily.from_seed(3, 5, 2)
        x = np.array([0.4, -1.2])
        values = fam.values_at(x)
        for i in range(fam.n):
            assert values[i] == pytest.approx(fam.value_at(i, x), rel=1e-14)
        weights = np.random.default_rng(1).dirichlet(np.ones(5))
        direct = sum(weights[i] * grad for i, grad in enumerate(fam.gradients_at(x)))
        np.testing.assert_allclose(fam.combined_gradient(x, weights), direct, atol=1e-13)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_unit_curvatures_are_the_bounding_sphere_bit_for_bit(self, offset):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((40, 3)) + offset
        sphere = BoundingSphereFamily(PointCloud(centers))
        quadratic = RandomQuadraticFamily(centers, np.ones(40))
        for x in (offset + rng.standard_normal(3), sphere.centroid, np.zeros(3)):
            assert np.array_equal(quadratic.values_at(x), sphere.values_at(x))
            for weights in (rng.dirichlet(np.ones(40)), rng.uniform(0.1, 3.0, size=40)):
                assert np.array_equal(quadratic.combined_gradient(x, weights),
                                      sphere.combined_gradient(x, weights))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("kind", ["bounding_sphere", "quadratic"])
    def test_batch_paths_match_scalar_loop_far_from_origin(self, kind, offset):
        # Besides 5x3, the edges of the GEMV kernels: one point, one
        # coordinate, a long thin cloud and a Fortran-ordered point array.
        rng = np.random.default_rng(7)
        for n, d, order in ((5, 3, "C"), (1, 3, "C"), (5, 1, "C"), (2000, 2, "C"), (5, 3, "F")):
            shape = f"{n}x{d} {order}-ordered"
            centers = np.asarray(rng.standard_normal((n, d)) + offset, order=order)
            if kind == "bounding_sphere":
                cloud = PointCloud(centers)
                fam = BoundingSphereFamily(cloud)
            else:
                fam = RandomQuadraticFamily(centers, rng.uniform(0.5, 2.0, size=n))
            x = offset + rng.standard_normal(d)
            values = fam.values_at(x)
            scalar = np.array([fam.value_at(i, x) for i in range(fam.n)])
            np.testing.assert_allclose(values, scalar, rtol=0, atol=1e-12 * np.max(scalar),
                                       err_msg=shape)
            if kind == "bounding_sphere":
                # At the centroid only the squared norms tell the points apart.
                # The hook takes its query centred and scaled; a positive
                # scale leaves the argmax where it was.
                scores = np.empty(fam.n)
                for query in (x, fam.centroid):
                    for scale in (1.0, 7.0):
                        fam.scores_into(scale * (query - fam.centroid), scores, scale)
                        assert (int(scores.argmax())
                                == farthest_sq_distance(cloud, query)[1]), shape
            grads = fam.gradients_at(x)
            grad_scale = max(np.linalg.norm(grad) for grad in grads)
            for weights in (rng.dirichlet(np.ones(n)), rng.uniform(0.1, 3.0, size=n)):
                loop = sum(weights[i] * grads[i] for i in range(fam.n))
                np.testing.assert_allclose(
                    fam.combined_gradient(x, weights), loop,
                    rtol=0, atol=1e-12 * np.sum(weights) * grad_scale, err_msg=shape,
                )

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from smoothmax import (
    MebConfig,
    PointCloud,
    farthest_sq_distance,
    required_iterations_meb,
    solve_meb,
    welzl_exact,
)
from smoothmax import BoundingSphereFamily, SmoothingParams, agd, badoiu_clarkson, core, meb
from smoothmax.errors import ConfigurationError, ContractViolationError
from smoothmax.testkit import DISTRIBUTIONS, RandomQuadraticFamily, audit_ball, random_point_cloud


def cloud_of(*rows):
    return PointCloud(np.array(rows, dtype=float))


class TestPointCloud:
    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ContractViolationError):
            PointCloud(np.zeros((0, 2)))
        with pytest.raises(ContractViolationError):
            cloud_of([0.0, math.nan])

    def test_overflow_limit(self):
        # 2^k scalings of one cloud, the widest whose squared diagonal keeps
        # OVERFLOW_HEADROOM of room and the next, twice as wide.  Power-of-2
        # scaling is exact, so inside the limit every algorithm gives the
        # scaled answer of the unscaled cloud, with no overflow warning.
        base = random_point_cloud(5, 60, 3, "gaussian").points
        span = base.max(axis=0) - base.min(axis=0)
        k = math.floor(math.log2(sys.float_info.max / meb.OVERFLOW_HEADROOM / (span @ span)) / 2)
        with pytest.raises(ContractViolationError, match="diagonal"):
            PointCloud(base * 2.0 ** (k + 1))
        inside, scale = PointCloud(base * 2.0 ** k), 2.0 ** k
        reference = solve_meb(PointCloud(base), MebConfig(0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_meb(inside, MebConfig(0.01))
            coreset = badoiu_clarkson(inside, 0.1)
            exact = welzl_exact(inside)
        assert result.iterations == reference.iterations
        assert result.radius == reference.radius * scale
        assert result.certified_radius_lower == reference.certified_radius_lower * scale
        assert coreset.radius == badoiu_clarkson(PointCloud(base), 0.1).radius * scale
        assert exact.radius == pytest.approx(welzl_exact(PointCloud(base)).radius * scale)

    def test_underflow_limit(self):
        # 2^-k scalings of one cloud, the narrowest whose squared diagonal keeps
        # UNDERFLOW_HEADROOM of room above the normal doubles and the next,
        # half as wide.  Inside the limit every algorithm gives the scaled
        # answer of the unscaled cloud; coincident points still solve to 0.
        base = random_point_cloud(5, 60, 3, "gaussian").points
        span = base.max(axis=0) - base.min(axis=0)
        k = math.floor(math.log2((span @ span) / meb.UNDERFLOW_HEADROOM / sys.float_info.min) / 2)
        with pytest.raises(ContractViolationError, match="diagonal"):
            PointCloud(base * 2.0 ** -(k + 1))
        with pytest.raises(ContractViolationError, match="diagonal"):
            cloud_of([1e-160, 0.0], [-1e-160, 0.0], [0.0, 1e-160])
        inside, scale = PointCloud(base * 2.0 ** -k), 2.0 ** -k
        reference = solve_meb(PointCloud(base), MebConfig(0.01))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_meb(inside, MebConfig(0.01))
            coreset = badoiu_clarkson(inside, 0.1)
            exact = welzl_exact(inside)
        assert result.iterations == reference.iterations
        assert result.radius == reference.radius * scale
        assert result.certified_radius_lower == reference.certified_radius_lower * scale
        assert coreset.radius == badoiu_clarkson(PointCloud(base), 0.1).radius * scale
        assert exact.radius == pytest.approx(welzl_exact(PointCloud(base)).radius * scale)
        coincident = cloud_of([1e-300, 0.0], [1e-300, 0.0])
        assert solve_meb(coincident, MebConfig(0.1)).radius == 0.0
        assert badoiu_clarkson(coincident, 0.1).radius == welzl_exact(coincident).radius == 0.0

    def test_far_apart_points_still_solve(self):
        cloud = cloud_of([1e100, 0.0], [-1e100, 0.0], [0.0, 1.0])
        result = solve_meb(cloud, MebConfig(0.1))
        assert result.radius <= 1.1 * welzl_exact(cloud).radius

    def test_shape_accessors(self):
        cloud = cloud_of([0.0, 0.0], [1.0, 2.0])
        assert (cloud.n, cloud.dim) == (2, 2)


def refusal(points) -> str | None:
    try:
        PointCloud(points)
    except ContractViolationError as exc:
        return str(exc)
    return None


def axis0_span(points):
    return points.max(axis=0) - points.min(axis=0)


# Coordinates that reach every refusal: nan and inf, squared diagonals that
# overflow or underflow the headroom once scaled, subnormals and signed zeros.
COORDINATES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-160, -1e-160, 5e-324, 1e150, -1e150, 1e300]),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                  elements=COORDINATES),
       st.integers(-700, 700))
@example(np.array([[np.nan, 1.0], [0.0, 2.0]]), 0)  # nan
@example(np.array([[1.0], [-np.inf]]), 0)  # inf, d = 1
@example(np.array([[1e300, 0.0], [-1e300, 0.0]]), 0)  # overflow
@example(np.array([[1e-160, 0.0], [-1e-160, 0.0]]), 0)  # underflow
@example(np.array([[3.0, -4.0, 5e-324]]), 0)  # n = 1
@example(np.array([[2.0], [7.0], [-1.0]]), 0)  # d = 1
def test_box_span_is_the_axis0_span_with_the_same_refusals(points, exponent):
    # The span over contiguous coordinate rows is max(axis=0) - min(axis=0)
    # bit for bit (signed zeros compare equal, and square and test alike),
    # so PointCloud refuses the same clouds with the same message.
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        points = np.ldexp(points, exponent)
        span, expected = meb._box_span(points), axis0_span(points)
    assert span.shape == (points.shape[1],)
    assert np.array_equal(span, expected, equal_nan=True)
    found = refusal(points)
    with mock.patch.object(meb, "_box_span", axis0_span):
        assert found == refusal(points)


class TestCentroid:
    # solve_meb starts at the family's centroid, which lies in the hull.
    @staticmethod
    def centroid(cloud):
        return BoundingSphereFamily(cloud).centroid

    def test_symmetric_pair(self):
        np.testing.assert_allclose(self.centroid(cloud_of([-1.0], [1.0])), [0.0])

    def test_triangle(self):
        cloud = cloud_of([0.0, 0.0], [1.0, 0.0], [0.0, 3.0])
        np.testing.assert_allclose(self.centroid(cloud), [1.0 / 3.0, 1.0])

    def test_single_point(self):
        np.testing.assert_allclose(self.centroid(cloud_of([2.0, -5.0])), [2.0, -5.0])


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

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_buffered_pass_gives_the_bits_of_a_fresh_one(self, offset):
        # welzl_exact's pivot pass writes into buffers it keeps, and
        # farthest_sq_distance into fresh arrays, through one helper.
        cloud = PointCloud(random_point_cloud(5, 96, 11, "sphere_surface").points + offset)
        x = cloud.points.mean(axis=0)
        out = np.empty(cloud.n)
        sq = meb._sq_distances(cloud.points, x, np.empty_like(cloud.points), out)
        assert sq is out
        assert np.array_equal(sq, meb._sq_distances(cloud.points, x))
        assert farthest_sq_distance(cloud, x) == (float(sq.max()), int(sq.argmax()))


class TestSquaredDistanceKernel:
    # The hooks keep their query vector and row views and use ndarray.dot;
    # these pin them to the plain "@" forms of the table product, bit for bit.
    SHAPES = ((1, 1), (5, 1), (7, 3), (40, 5), (300, 12))

    @staticmethod
    def family(n, d, offset):
        rng = np.random.default_rng(n * 100 + d)
        return meb.SquaredDistanceFamily(rng.standard_normal((n, d)) + offset,
                                         rng.uniform(0.5, 2.0, size=n))

    @staticmethod
    def values_by_matmul(family, x):
        x_c = x - family.centroid
        return np.concatenate([[1.0], x_c, [x_c @ x_c]]) @ family._table

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_centroid_is_the_row_wise_reduction(self, n, d, offset):
        # Each coordinate's pairwise sum over its own contiguous column,
        # divided by n, for the family and the bounding sphere alike.
        fam = self.family(n, d, offset)
        columns = [np.ascontiguousarray(fam.centers[:, j]) for j in range(d)]
        expected = np.array([np.add.reduce(column) for column in columns]) / n
        assert fam.centroid.tobytes() == expected.tobytes()
        assert BoundingSphereFamily(PointCloud(fam.centers)).centroid.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_table_is_the_direct_fill_from_the_centroid(self, n, d, offset):
        # The table is the fill straight from the row-major centres (one
        # subtract into the transposed rows) at the family's centroid, bit for
        # bit, for both subclasses; the core set's centred points are C - m.
        rng = np.random.default_rng(n * 100 + d)
        centers = rng.standard_normal((n, d)) + offset
        curvatures = rng.uniform(0.5, 2.0, size=n)
        sphere = BoundingSphereFamily(PointCloud(centers))
        for fam, a in ((RandomQuadraticFamily(centers, curvatures), curvatures), (sphere, 1.0)):
            table = np.empty((d + 2, n))
            centred_t = table[1:-1]
            np.subtract(centers.T, fam.centroid[:, None], out=centred_t)
            np.einsum("ij,ij->j", centred_t, centred_t, out=table[0])
            table[0] *= a
            centred_t *= -2.0 * a
            table[-1] = a
            assert fam._table.tobytes() == table.tobytes()
        centred = sphere.centred_points()
        assert centred.shape == (n, d)
        assert np.ascontiguousarray(centred).tobytes() == (centers - sphere.centroid).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_values_at_two_points_are_independent_arrays(self, n, d, offset):
        fam = self.family(n, d, offset)
        rng = np.random.default_rng(1)
        x, z = offset + rng.standard_normal((2, d))
        first = fam.values_at(x)
        kept = first.copy()
        second = fam.values_at(z)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(first, self.values_by_matmul(fam, x))
        assert np.array_equal(second, self.values_by_matmul(fam, z))
        second[:] = np.nan  # the caller owns the array: the next query is unaffected
        assert np.array_equal(fam.values_at(x), kept)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_combined_gradient_is_the_table_product(self, n, d, offset):
        fam = self.family(n, d, offset)
        rng = np.random.default_rng(2)
        x = offset + rng.standard_normal(d)
        for weights in (rng.dirichlet(np.ones(n)), rng.uniform(0.1, 3.0, size=n)):
            weighted = fam._table[1:] @ weights
            by_matmul = (2.0 * weighted[-1]) * (x - fam.centroid) + weighted[:-1]
            assert np.array_equal(fam.combined_gradient(x, weights), by_matmul)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_scores_and_values_do_not_disturb_each_other(self, offset):
        cloud = PointCloud(random_point_cloud(3, 50, 4, "clustered").points + offset)
        rng = np.random.default_rng(3)
        points = offset + rng.standard_normal((3, 4))
        queries = rng.standard_normal((3, 4))
        # Each call alone, on a fresh family.
        values = [BoundingSphereFamily(cloud).values_at(x) for x in points]
        scores = []
        for k, query in enumerate(queries):
            scores.append(np.empty(cloud.n))
            BoundingSphereFamily(cloud).scores_into(query, scores[-1], k + 1.0)
        # The same calls interleaved on one family.
        fam = BoundingSphereFamily(cloud)
        for k, (x, query) in enumerate(zip(points, queries)):
            out = np.empty(cloud.n)
            fam.scores_into(query, out, k + 1.0)
            assert np.array_equal(fam.values_at(x), values[k])
            assert np.array_equal(out, scores[k])
            again = np.empty(cloud.n)
            fam.scores_into(query, again, k + 1.0)
            assert np.array_equal(again, scores[k])


@pytest.mark.parametrize("call, match", [
    (lambda: farthest_sq_distance(cloud_of([0.0, 0.0], [1.0, 1.0]), np.zeros(3)),
     "query point has shape"),
    (lambda: farthest_sq_distance(cloud_of([0.0, 0.0]), np.zeros((1, 2))),
     "query point has shape"),
    (lambda: required_iterations_meb(0.0, 3), "relative_epsilon"),
    (lambda: required_iterations_meb(1.5, 3), "relative_epsilon"),
    (lambda: required_iterations_meb(0.1, 0), "n >= 1"),
], ids=["farthest_dim", "farthest_rank", "iterations_zero_eps", "iterations_large_eps",
        "iterations_n"])
def test_public_input_checks_raise_contract_violations(call, match):
    with pytest.raises(ContractViolationError, match=match):
        call()


class TestRequiredIterationsMeb:
    def test_golden_value(self):
        assert required_iterations_meb(1.0, 2) == 28

    def test_single_point(self):
        assert required_iterations_meb(1.0, 1) == 1

    @pytest.mark.parametrize("eps", [1e-14, 5e-324])
    def test_count_above_the_planned_cap_is_refused(self, eps):
        with pytest.raises(ConfigurationError):
            required_iterations_meb(eps, 64)
        with pytest.raises(ConfigurationError):
            solve_meb(cloud_of([0.0], [1.0]), MebConfig(eps))

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

    def test_small_epsilon_certifies_in_few_steps(self):
        # A U_s of s G^2 + 2 (G = 6 sqrt(5 f(x1) + gap/2)) instead of
        # 4 s f_top + 2 took 41667 steps here.
        cloud = cloud_of([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.3, 0.2])
        result = solve_meb(cloud, MebConfig(1e-6))
        assert result.solve_report.stop_reason == "certified"
        assert result.iterations <= 8000
        assert result.radius <= (1.0 + 1e-6) * result.certified_radius_lower * (1.0 + 1e-12)

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
            root_f1 = math.sqrt(farthest_sq_distance(cloud, cloud.points.mean(axis=0))[0])
            slack = 1.0 + 1e-9
            assert 0.5 * root_f1 <= result.certified_radius_lower * slack
            assert result.certified_radius_lower <= exact * slack
            assert exact <= result.radius * slack
            assert result.radius <= root_f1 * slack

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

        def observer(t, x, y, grad_y):
            records.append((x, y))

        result = solve_meb(cloud, MebConfig(0.05), iterate_observer=observer)
        s = result.solve_report.s
        eps = 2.0 * math.log(cloud.n) / s
        params = SmoothingParams(s)
        bound_core = math.sqrt(5.0 * exact ** 2 + 0.5 * eps)
        for x, y in records:
            gx = np.linalg.norm(smooth_gradient(family, params, x))
            gy = np.linalg.norm(smooth_gradient(family, params, y))
            assert gx <= 2.0 * bound_core + 1e-6
            assert gy <= 6.0 * bound_core + 1e-6


UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    roundings (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_returned_balls_enclose_to_their_rounding_in_exact_arithmetic(distribution, offset):
    # audit_ball takes the exact max ||p - c||^2 at the returned centre from
    # the float bits.  radius^2 may fall short of it only by the rounding of
    # the float pass the radius is read from, and of the square root
    # (radius^2 >= (1 - u)^2 times that pass's max), where F is the exact max:
    # - the core set and Welzl read a raw pass: each p_j - c_j rounds once and
    #   the d squares sum as a dot of d non-negative terms, so the pass is
    #   >= (1 - gamma_{d+2}) F and F - radius^2 <= gamma_{d+4} F;
    # - solve_meb reads the family's pass [1, x~, ||x~||^2] . [||P_i||^2, -2 P_i, 1]
    #   with P = fl(c - m), x~ = fl(x - m): the (d+2)-term dot and its two
    #   squared norms round within gamma_{2d+3} (||P_i|| + ||x~||)^2, and the
    #   two centrings move ||P_i - x~|| by at most u S_i, S_i =
    #   ||c_i - m|| + ||x - m|| >= sqrt(F), so F - radius^2 <= gamma_{2d+8} S^2
    #   with S the largest S_i.
    # m is taken here as the cloud's mean; it differs from the family's
    # centroid by a few ulp of the offset, far inside the bound's slack.  A
    # centring that loses the offset's bits gives errors of order u offset^2.
    for seed, (n, d) in enumerate(((300, 2), (300, 4), (150, 8))):
        cloud = PointCloud(random_point_cloud(seed, n, d, distribution).points + offset)
        mean = cloud.points.mean(axis=0)
        spread = float(np.max(np.linalg.norm(cloud.points - mean, axis=1)))
        for result, table_pass in ((solve_meb(cloud, MebConfig(0.01)), True),
                                   (badoiu_clarkson(cloud, 0.01), False),
                                   (welzl_exact(cloud, seed=seed), False)):
            audit = audit_ball(cloud.points, result.center, result.radius)
            bound = gamma(d + 4)
            if table_pass:
                to_mean = float(np.linalg.norm(result.center - mean))
                bound = gamma(2 * d + 8) * (spread + to_mean) ** 2 / float(audit.farthest_sq)
            assert audit.shortfall <= bound, (n, d, table_pass, audit.shortfall / bound)


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
        # The last round ran its cap of adaptive steps, then of fixed ones: the
        # cap is the round's own a-priori count, below the paper's.
        report = result.solve_report
        assert report.iterations_run == 2 * report.planned_iterations
        assert report.planned_iterations < result.planned_iterations


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CLOUD_KINDS),
    seed=st.integers(min_value=0, max_value=10_000),
    s_times_r2=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
    distance=st.sampled_from([0.0, 3.0, 1e3]),
)
def test_smooth_hessian_is_within_the_spread_bound(kind, seed, s_times_r2, distance):
    # The Hessian of f_s is 2 I + 4 s Cov_p(c_i) at every x, and
    # lambda_max(Cov_p(c_i)) <= E_p ||c_i - x*||^2 <= R^2, so
    # U_s = 4 s R^2 + 2 holds inside the hull (distance 0) and far outside.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    cloud = soundness_cloud(kind, seed, int(rng.integers(2, 121)), dim)
    exact = welzl_exact(cloud).radius
    s = s_times_r2 / exact ** 2
    inside = rng.dirichlet(np.ones(cloud.n)) @ cloud.points
    direction = rng.standard_normal(dim)
    x = inside + distance * exact * direction / np.linalg.norm(direction)
    hessian = core.smooth_hessian(BoundingSphereFamily(cloud), SmoothingParams(s), x)
    assert np.linalg.eigvalsh(hessian)[-1] <= 2.0 + 4.0 * s * exact ** 2 * (1.0 + 1e-9)


@pytest.mark.parametrize("n, d, distribution", [(2000, 5, "gaussian"),
                                                 (2000, 5, "clustered"),
                                                 (2000, 50, "gaussian")])
def test_steps_grow_at_the_papers_rate(n, d, distribution):
    # The paper's O~(1/sqrt(eps)) step count, fitted at small eps: the
    # least-squares slope of log steps against log 1/eps.  It reads 0.597,
    # 0.578 and 0.566 here; a core set's fixed count would read 2.
    cloud = random_point_cloud(0, n, d, distribution)
    epsilons = (1e-4, 1e-5, 1e-6)
    steps = [solve_meb(cloud, MebConfig(eps)).iterations for eps in epsilons]
    slope = np.polyfit(np.log([1.0 / eps for eps in epsilons]), np.log(steps), 1)[0]
    assert slope <= 0.7, steps


# The cloud shapes of perfbench's meb-stream workload, here drawn from seed 0.
MEB_STREAM_SHAPES = (
    (200, 2, "gaussian"), (267, 5, "sphere_surface"), (356, 10, "clustered"),
    (474, 3, "gaussian"), (632, 6, "sphere_surface"), (843, 7, "clustered"),
    (1125, 4, "gaussian"), (1500, 3, "sphere_surface"), (2000, 8, "clustered"),
)


@pytest.mark.parametrize("eps, expected", [
    (0.1, [3, 2, 4, 2, 2, 4, 2, 2, 5]),  # 26 in all
    (0.03, [9, 6, 24, 6, 5, 11, 6, 4, 14]),  # 85
    (0.01, [9, 6, 12, 21, 7, 8, 12, 5, 13]),  # 93
])
def test_step_counts_are_pinned(eps, expected):
    # MEB step counts do not move on last-bit changes: scaling each
    # coordinate by 1 + {-1, 0, 1} 2^-52 at random (four copies of each
    # cloud) moved none of these.  So they are pinned exactly, and a change
    # that keeps the solver's results must keep them.
    steps = [solve_meb(random_point_cloud(0, n, d, kind), MebConfig(eps)).iterations
             for n, d, kind in MEB_STREAM_SHAPES]
    assert steps == expected


@pytest.mark.parametrize("kind, eps, fixed_smoother_steps", [
    ("gaussian", 0.1, 6), ("gaussian", 0.03, 9), ("clustered", 0.1, 6), ("clustered", 0.03, 8),
])
def test_support_sized_smoother_holds_at_coarse_eps(kind, eps, fixed_smoother_steps):
    # A fixed s = 2 log(d + 1) / eps took gaussian 20000x3 at eps 0.1 from 6
    # to 108 steps: at d <= 5 and coarse eps, log(d + 1) is too soft a
    # smoother.  The raise on measured regret must keep such clouds within
    # two steps of the paper's smoother s_n, whose counts are pinned here.
    result = solve_meb(random_point_cloud(0, 20000, 3, kind), MebConfig(eps))
    assert result.stop_reason == "certified"
    assert result.iterations <= fixed_smoother_steps + 2


def test_certified_ratio_is_none_without_a_positive_lower_radius():
    assert solve_meb(cloud_of([1.0, 2.0]), MebConfig(0.1)).certified_ratio is None
    assert solve_meb(cloud_of([3.0], [3.0]), MebConfig(0.1)).certified_ratio is None


class RoundRecorder:
    """Wraps ``meb.run_rounds``: records each round ``solve_meb``'s planner
    gives (``rounds``) and the ``SolveReport`` each round ended with
    (``ends``).  With ``uncertifiable``, every round runs with a relative
    stop of 1e-12, which no round can prove, so each one reaches its cap;
    with ``cap``, every round's cap is lowered to it; with
    ``regret_budget_scale``, every round's regret budget is scaled by it."""

    def __init__(self, monkeypatch, uncertifiable: bool, cap: int | None = None,
                 regret_budget_scale: float = 1.0):
        self.rounds, self.ends = [], []
        run_rounds = meb.run_rounds

        def forced(rnd):
            # Under the relative stop, a round reads its absolute gap only
            # for the regret budget eps / 2 that raises its smoother.
            rnd = rnd._replace(epsilon=rnd.epsilon * regret_budget_scale)
            if uncertifiable:
                rnd = rnd._replace(relative_epsilon=1e-12)
            return rnd if cap is None else rnd._replace(planned=min(rnd.planned, cap))

        def recording_run_rounds(family, x1, plan, first_gap, last_gap, **observers):
            def recording_plan(gap, reports):
                self.rounds.append(plan(gap, reports))
                return forced(self.rounds[-1])

            self.ends = run_rounds(family, x1, recording_plan, first_gap, last_gap, **observers)
            return self.ends

        monkeypatch.setattr(meb, "run_rounds", recording_run_rounds)


class TestContinuation:
    def test_observers_see_one_step_counter(self):
        cloud = random_point_cloud(5, 300, 4, "gaussian")
        rows, states = [], []
        result = solve_meb(cloud, MebConfig(0.01),
                           progress=lambda t, value, grad_norm: rows.append(t),
                           iterate_observer=lambda t, x, y, grad: states.append(t))
        assert result.iterations > result.solve_report.iterations_run  # several rounds stepped
        assert rows == states == list(range(2, result.iterations + 2))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_observers_see_the_max_at_each_pass_point(self, offset):
        # The fourth observer argument is the true max of the step's pass,
        # bit for bit the one a fresh family evaluates at y_t: bench's
        # observed_to_target reads the radius from it.
        cloud = PointCloud(random_point_cloud(8, 300, 4, "gaussian").points + offset)
        family = BoundingSphereFamily(cloud)
        states = []
        result = solve_meb(cloud, MebConfig(0.01),
                           iterate_observer=lambda t, x, y, f: states.append((y, f)))
        assert result.iterations > result.solve_report.iterations_run  # several rounds stepped
        assert len(states) == result.iterations
        for y, f in states:
            assert f == family.values_at(y).max()

    def test_rounds_follow_the_schedule_and_the_proved_bound(self, monkeypatch):
        # With every cap at 2 steps and no round able to certify, every round
        # reaches its cap.
        recorder = RoundRecorder(monkeypatch, uncertifiable=True, cap=2)
        grads, agd_step = [], agd.agd_step

        def recording_agd_step(x, y, grad, U_s, momentum):
            grads.append(grad)
            return agd_step(x, y, grad, U_s, momentum)

        monkeypatch.setattr(agd, "agd_step", recording_agd_step)
        cloud = random_point_cloud(2, 200, 3, "clustered")
        states = []
        result = solve_meb(cloud, MebConfig(0.01),
                           iterate_observer=lambda t, x, y, f: states.append(x))
        rounds, ends = recorder.rounds, recorder.ends
        # The continuation starts at sqrt(eps).  Each later round targets
        # half the smaller of the last round's target and the relative gap
        # that round proved, sqrt(f_final / lower_bound) - 1, down to eps.
        gaps = [0.1]
        for end in ends[:-1]:
            proved = max(0.0, math.sqrt(end.f_final / end.lower_bound) - 1.0)
            gaps.append(max(0.01, min(gaps[-1], proved) / agd.ROUND_GAP_RATIO))
        assert [r.relative_epsilon for r in rounds] == gaps
        assert gaps[1] < gaps[0] / agd.ROUND_GAP_RATIO  # a proved gap set the target
        assert len(gaps) > 2 and gaps[-1] == 0.01
        assert len(ends) == len(rounds)
        assert all(end.iterations_run == 4 and end.planned_iterations == 2 for end in ends)
        assert all(end.stop_reason == "planned" for end in ends)
        # Round 0 starts at the support's smoother; each fallback runs at
        # s_n, and each later round starts at the ratio s / s_n = 1 that the
        # previous one ended at.
        assert rounds[0].support_s < rounds[0].s
        assert all(end.s == rnd.s for rnd, end in zip(rounds, ends))
        assert result.iterations == 4 * len(rounds)
        assert result.planned_iterations == required_iterations_meb(0.01, cloud.n)
        f1 = float(np.max(np.sum((cloud.points - cloud.points.mean(axis=0)) ** 2, axis=1)))
        lb = f1 / 4.0
        for k, (rnd, end) in enumerate(zip(rounds, ends)):
            e = rnd.relative_epsilon
            assert rnd.epsilon == pytest.approx((2.0 * e + e * e) * lb, rel=1e-12)
            if k:
                # The round's first step is taken from the previous round's
                # x_final, with the gradient there under the new smoother.
                x_first, grad = states[4 * k], grads[4 * k]
                assert np.array_equal(x_first, ends[k - 1].x_final - grad / rnd.U_s)
            lb = max(lb, end.lower_bound)
        exact = welzl_exact(cloud).radius
        dists = np.linalg.norm(cloud.points - result.center, axis=1)
        assert np.max(dists) <= result.radius * (1.0 + 1e-9)
        assert result.certified_radius_lower == math.sqrt(lb)
        assert result.certified_radius_lower <= exact * (1.0 + 1e-9)
        assert result.solve_report is ends[-1]

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(DISTRIBUTIONS),
        seed=st.integers(min_value=0, max_value=10_000),
        offset=st.sampled_from([0.0, 1e6, 1e8]),
        eps=st.sampled_from([0.1, 0.01, 1e-3]),
    )
    def test_round_gaps_halve_down_to_eps_and_certify(self, kind, seed, offset, eps):
        # Each round's gap is at most half the last one, or eps itself, which
        # only the last round targets; every solve certifies its own ratio.
        rng = np.random.default_rng(seed)
        cloud = random_point_cloud(seed, int(rng.integers(10, 201)), int(rng.integers(2, 6)), kind)
        with pytest.MonkeyPatch.context() as patch:
            recorder = RoundRecorder(patch, uncertifiable=False)
            result = solve_meb(PointCloud(cloud.points + offset), MebConfig(eps))
        gaps = [rnd.relative_epsilon for rnd in recorder.rounds]
        assert gaps[0] == min(1.0, math.sqrt(eps)) and gaps[-1] == eps
        assert all(eps < gap for gap in gaps[:-1])
        for previous, gap in zip(gaps, gaps[1:]):
            assert gap <= previous / agd.ROUND_GAP_RATIO or gap == eps < previous
        assert all(end.stop_reason == "certified" for end in recorder.ends)
        assert result.stop_reason == "certified"
        assert result.radius <= (1.0 + eps) * result.certified_radius_lower

    @pytest.mark.parametrize("kind,offset", [("gaussian", 0.0), ("clustered", 1e6),
                                             ("sphere_surface", 1e8)])
    def test_rounds_at_their_caps_keep_the_a_priori_guarantee(self, monkeypatch, kind, offset):
        # No round can certify, so each runs to its cap, run_rounds' own
        # count under G = 2 sqrt(f_top), which is below the paper's, and
        # still proves its (1+e_k) radius a priori.
        recorder = RoundRecorder(monkeypatch, uncertifiable=True)
        base = random_point_cloud(4, 150, 3, kind)
        exact = welzl_exact(base).radius
        result = solve_meb(PointCloud(base.points + offset), MebConfig(0.01))
        assert len(recorder.ends) == len(recorder.rounds)
        for rnd, end in zip(recorder.rounds, recorder.ends):
            assert end.stop_reason == "planned"
            assert end.iterations_run == 2 * rnd.planned
            assert rnd.planned < required_iterations_meb(rnd.relative_epsilon, base.n)
            assert math.sqrt(end.f_final) <= (1.0 + rnd.relative_epsilon) * exact * (1.0 + 1e-9)
        assert result.iterations == sum(end.iterations_run for end in recorder.ends)
        assert result.stop_reason == "planned"
        assert result.radius <= 1.01 * exact * (1.0 + 1e-9)

    def test_round_counts_stay_below_the_single_shot_count(self):
        # A round's count grows as lb falls and f_top rises, so it is largest
        # at the loosest inputs a round can see: lb = f(x1) / 4 and
        # f_top = f(x1) = D^2 (here f(x1) = 1; the count is scale-free).
        # There it stays below the paper's single-shot count for the round's
        # gap, so the last round never runs past ``planned_iterations``; on
        # this grid it is at most 0.22 times that count.
        for k in range(89):
            e = 2.0 ** (-k / 2)
            for n in (2, 3, 10, 10 ** 3, 10 ** 6, 10 ** 9):
                planned = agd.plan_round(n, (2.0 * e + e * e) / 4.0, 1.0, 2.0, 2.0, 2.0, e).planned
                try:
                    single_shot = required_iterations_meb(e, n)
                except ConfigurationError:
                    continue  # solve_meb refuses such a solve before its first round
                assert planned < single_shot, (e, n)

    @pytest.mark.parametrize("uncertifiable", [False, True], ids=["certified", "capped"])
    def test_round_changes_make_no_values_pass(self, monkeypatch, uncertifiable):
        # Each step makes one values pass and one gradient, a round that
        # reaches its cap included.  A round change makes one gradient, from
        # the values kept at x_best, and no values pass.
        calls = {"values_at": 0, "combined_gradient": 0}

        class CountingFamily(BoundingSphereFamily):
            def values_at(self, x):
                calls["values_at"] += 1
                return super().values_at(x)

            def combined_gradient(self, x, weights):
                calls["combined_gradient"] += 1
                return super().combined_gradient(x, weights)

        monkeypatch.setattr(meb, "BoundingSphereFamily", CountingFamily)
        recorder = RoundRecorder(monkeypatch, uncertifiable)
        result = solve_meb(random_point_cloud(6, 150, 4, "gaussian"), MebConfig(0.01))
        rounds = len(recorder.ends)
        capped = sum(end.stop_reason != "certified" for end in recorder.ends)
        assert rounds == len(recorder.rounds) > 1
        assert capped == (rounds if uncertifiable else 0)
        assert calls["values_at"] == 1 + result.iterations
        # No smoother is raised on this cloud.  Capped, round 0's fallback
        # takes one more gradient: its start pass at s_n, from the values it
        # kept at the start; the later rounds start at s_n.
        assert calls["combined_gradient"] == rounds + result.iterations + uncertifiable

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_raises_reach_the_papers_smoother_and_certify(self, monkeypatch, offset):
        # On a sphere, whose support is every point, the softmax spreads
        # over the whole cloud.  Its values sit so close to the max that the
        # regret stays within eps / 2 at the support's smoother, so the
        # budget is shrunk here: every pass then raises, the smoother
        # reaches s_n in each round, and the rounds still certify.
        recorder = RoundRecorder(monkeypatch, uncertifiable=False, regret_budget_scale=1e-9)
        base = random_point_cloud(7, 2000, 3, "sphere_surface")
        exact = welzl_exact(base).radius
        result = solve_meb(PointCloud(base.points + offset), MebConfig(0.01))
        assert recorder.rounds[0].support_s < recorder.rounds[0].s
        assert all(end.s == rnd.s for rnd, end in zip(recorder.rounds, recorder.ends))
        assert all(end.stop_reason == "certified" for end in recorder.ends)
        assert result.radius <= 1.01 * exact * (1.0 + 1e-9)
        assert result.certified_radius_lower <= exact * (1.0 + 1e-9)

    def test_relative_epsilon_one_is_one_round(self):
        cloud = random_point_cloud(3, 60, 3, "gaussian")
        rows = []
        result = solve_meb(cloud, MebConfig(1.0),
                           progress=lambda t, value, grad_norm: rows.append(t))
        assert result.iterations == result.solve_report.iterations_run == len(rows)

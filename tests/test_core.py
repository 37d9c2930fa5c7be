import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothmax import (
    DomainConstants,
    SmoothingParams,
    condition_number,
    smooth_gradient,
    smooth_hessian,
    smooth_value,
    softmax_weights,
)
from smoothmax.errors import (
    ContractViolationError,
    DimensionMismatchError,
    EvaluationError,
    SmoothmaxError,
    UnsupportedCapabilityError,
)
from smoothmax.agd import plan_round
from smoothmax.core import component_values, shifted_pass, smooth_pass
from smoothmax.families import ComponentFamily
from smoothmax.meb import SquaredDistanceFamily
from smoothmax.testkit import (
    RandomQuadraticFamily,
    finite_diff_gradient,
    finite_diff_jacobian,
)


class ConstantFamily(ComponentFamily):
    """f_i(x) = levels[i], gradient 0; handy for value-only checks."""

    def __init__(self, levels, dim=1):
        self.levels = np.asarray(levels, dtype=float)
        self.n = self.levels.size
        self.dim = dim

    def values_at(self, x):
        return self.levels.copy()

    def combined_gradient(self, x, weights):
        return np.zeros(self.dim)


def single_quadratic():
    return RandomQuadraticFamily(np.zeros((1, 1)), np.array([1.0]))


class TestSmoothValue:
    def test_single_component_is_identity(self):
        fam = single_quadratic()
        assert smooth_value(fam, SmoothingParams(7.0), np.array([3.0])) == pytest.approx(9.0)

    def test_two_equal_components_hit_upper_bound(self):
        fam = ConstantFamily([0.0, 0.0])
        value = smooth_value(fam, SmoothingParams(1.0), np.zeros(1))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_shifted_evaluation_survives_large_spread(self):
        fam = ConstantFamily([0.0, 1000.0])
        value = smooth_value(fam, SmoothingParams(1.0), np.zeros(1))
        assert value == pytest.approx(1000.0)
        assert math.isfinite(value)

    def test_dimension_mismatch_raises(self):
        fam = single_quadratic()
        with pytest.raises(DimensionMismatchError):
            smooth_value(fam, SmoothingParams(1.0), np.zeros(2))

    def test_non_finite_component_identifies_index(self):
        fam = ConstantFamily([1.0, math.inf, 2.0])
        with pytest.raises(EvaluationError) as err:
            smooth_value(fam, SmoothingParams(1.0), np.zeros(1))
        assert err.value.index == 1


class TestSoftmaxWeights:
    def test_equal_values_are_uniform(self):
        fam = ConstantFamily([4.2, 4.2])
        np.testing.assert_allclose(
            softmax_weights(fam, SmoothingParams(3.0), np.zeros(1)), [0.5, 0.5]
        )

    def test_log3_split(self):
        fam = ConstantFamily([0.0, math.log(3.0)])
        np.testing.assert_allclose(
            softmax_weights(fam, SmoothingParams(1.0), np.zeros(1)),
            [0.25, 0.75],
            atol=1e-12,
        )

    def test_dominant_component_underflow_ok(self):
        fam = ConstantFamily([0.0, -1e6, -1e6])
        weights = softmax_weights(fam, SmoothingParams(10.0), np.zeros(1))
        assert np.all(np.isfinite(weights))
        assert np.all(weights >= 0)
        assert weights[0] == pytest.approx(1.0)
        assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


class TestSmoothGradient:
    def test_single_component(self):
        fam = RandomQuadraticFamily(np.zeros((1, 2)), np.array([1.0]))
        grad = smooth_gradient(fam, SmoothingParams(1.0), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0])

    def test_symmetric_pair_cancels(self):
        fam = RandomQuadraticFamily(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        grad = smooth_gradient(fam, SmoothingParams(2.0), np.zeros(1))
        np.testing.assert_allclose(grad, [0.0], atol=1e-14)

    def test_matches_finite_differences(self):
        fam = RandomQuadraticFamily.from_seed(11, n=3, dim=4)
        params = SmoothingParams(5.0)
        x = np.random.default_rng(5).standard_normal(4)
        grad = smooth_gradient(fam, params, x)
        fd = finite_diff_gradient(lambda p: smooth_value(fam, params, p), x)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


class TestShiftedPass:
    @pytest.mark.parametrize("s_new", [0.01, 3.0, 400.0])
    def test_rescaled_values_give_the_new_smoothers_pass(self, s_new):
        # The shifted values s (f - m) of a pass at one smoother, rescaled by
        # s_new / s, give the pass at s_new without evaluating any value.
        fam = RandomQuadraticFamily.from_seed(12, n=7, dim=3)
        x = np.random.default_rng(6).standard_normal(3)
        kept = smooth_pass(fam, SmoothingParams(2.0), x)
        shifted = kept[6] * (s_new / 2.0)
        fresh = smooth_pass(fam, SmoothingParams(s_new), x)
        again = shifted_pass(fam, SmoothingParams(s_new), x, shifted, kept[4])
        assert again[6] is shifted and again[4] == fresh[4]
        for a, b in zip(again[:4] + again[5:], fresh[:4] + fresh[5:]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestSmoothHessian:
    def test_single_component_is_plain_hessian(self):
        fam = RandomQuadraticFamily(np.zeros((1, 3)), np.array([1.5]))
        hess = smooth_hessian(fam, SmoothingParams(4.0), np.ones(3))
        np.testing.assert_allclose(hess, 3.0 * np.eye(3), atol=1e-12)

    def test_hand_computed_two_component_case(self):
        # weights (1/2, 1/2), gradients -2 and +2, variance 4 -> 2 + 1*4 = 6
        fam = RandomQuadraticFamily(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        hess = smooth_hessian(fam, SmoothingParams(1.0), np.zeros(1))
        np.testing.assert_allclose(hess, [[6.0]], atol=1e-12)

    def test_matches_finite_differences_of_gradient(self):
        fam = RandomQuadraticFamily.from_seed(3, n=3, dim=3)
        params = SmoothingParams(2.0)
        x = np.random.default_rng(8).standard_normal(3)
        hess = smooth_hessian(fam, params, x)
        fd = finite_diff_jacobian(lambda p: smooth_gradient(fam, params, p), x)
        assert np.linalg.norm(hess - fd) <= 1e-4 * np.linalg.norm(fd)
        np.testing.assert_allclose(hess, hess.T, atol=1e-10)

    def test_capability_check(self):
        fam = ConstantFamily([1.0, 2.0])
        with pytest.raises(UnsupportedCapabilityError):
            smooth_hessian(fam, SmoothingParams(1.0), np.zeros(1))


def round_at(constants: DomainConstants, s: float):
    """The round ``plan_round`` plans for ``constants`` at the gap whose
    smoother is s, 2 log(n) / s."""
    n = constants.per_component_strong_convexity.size
    rnd = plan_round(n, 2.0 * math.log(n) / s, 1.0, constants.gradient_norm_bound,
                     constants.min_strong_convexity, constants.max_smoothness)
    assert rnd.s == s
    return rnd


class TestBoundsAndConditioning:
    def test_eig_bounds_uniform_constants(self):
        rnd = round_at(DomainConstants.uniform(5, 2.0, 2.0, 10.0), 1.0)
        assert (rnd.L_s, rnd.U_s) == (2.0, 102.0)

    def test_eig_bounds_vanishing_smoother(self):
        rnd = round_at(DomainConstants.uniform(3, 1.0, 1.0, 1.0), 1e-9)
        assert rnd.L_s == 1.0
        assert rnd.U_s == pytest.approx(1.0 + 1e-9)

    def test_eig_bounds_mixed_constants(self):
        constants = DomainConstants(np.array([1.0, 3.0]), np.array([2.0, 5.0]), 2.0)
        rnd = round_at(constants, 3.0)
        assert (rnd.L_s, rnd.U_s) == (1.0, 17.0)

    @pytest.mark.parametrize("L,U,expected", [(2.0, 2.0, 1.0), (2.0, 102.0, 51.0), (1.0, 17.0, 17.0)])
    def test_condition_number(self, L, U, expected):
        assert condition_number(L, U) == pytest.approx(expected)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
    def test_smoother_must_be_positive_and_finite(self, s):
        with pytest.raises(ValueError):
            SmoothingParams(s)

    @pytest.mark.parametrize("build", [
        lambda: DomainConstants(np.array([0.0]), np.array([1.0]), 1.0),
        lambda: DomainConstants(np.array([1.0]), np.array([1.0]), 0.0),
        lambda: SmoothingParams(0.0),
    ], ids=["strong_convexity", "gradient_norm_bound", "smoother"])
    def test_invalid_constants_raise_library_errors(self, build):
        with pytest.raises(SmoothmaxError):
            build()

    @pytest.mark.parametrize("lo, hi", [
        (np.ones(2), np.ones(3)),
        (np.ones((1, 2)), np.ones((1, 2))),
        (np.ones(0), np.ones(0)),
    ], ids=["unequal_lengths", "two_dimensional", "empty"])
    def test_constant_vectors_must_be_one_dimensional_of_equal_length(self, lo, hi):
        with pytest.raises(DimensionMismatchError, match="1-D and of equal length"):
            DomainConstants(lo, hi, 1.0)

    def test_condition_number_contract(self):
        with pytest.raises(ContractViolationError):
            condition_number(0.0, 1.0)
        with pytest.raises(ContractViolationError):
            condition_number(2.0, 1.0)


class TestComponentValues:
    def test_tie_breaks_to_lowest_index(self):
        values, max_index = component_values(ConstantFamily([7.0, 7.0, 3.0]), np.zeros(1))
        assert max_index == 0
        assert values[max_index] == 7.0


# --- property tests ------------------------------------------------------

family_seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=100, deadline=None)
@given(seed=family_seeds, s=st.sampled_from([0.1, 1.0, 10.0, 100.0]))
def test_weights_normalize(seed, s):
    rng = np.random.default_rng(seed)
    fam = RandomQuadraticFamily.from_seed(seed, n=int(rng.integers(1, 17)), dim=int(rng.integers(1, 9)))
    x = rng.standard_normal(fam.dim)
    weights = softmax_weights(fam, SmoothingParams(s), x)
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights >= 0.0) and np.all(weights <= 1.0)


@settings(max_examples=100, deadline=None)
@given(seed=family_seeds, s=st.sampled_from([0.1, 1.0, 10.0, 100.0]))
def test_sandwich_property(seed, s):
    rng = np.random.default_rng(seed)
    fam = RandomQuadraticFamily.from_seed(seed, n=int(rng.integers(1, 17)), dim=int(rng.integers(1, 9)))
    x = rng.standard_normal(fam.dim)
    value = smooth_value(fam, SmoothingParams(s), x)
    f_max = float(np.max(fam.values_at(x)))
    scale = max(abs(f_max), 1.0)
    assert value >= f_max - 1e-9 * scale
    assert value <= f_max + math.log(fam.n) / s + 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(seed=family_seeds, offset=st.sampled_from([0.0, 1e6, 1e8]),
       log_s=st.floats(min_value=-3.0, max_value=6.0))
def test_pass_regret_is_within_log_n_over_s(seed, offset, log_s):
    # A pass's smoothing regret, max - mean = (H(p) - log S) / s, is at most
    # log(n) / s; run_rounds raises its smoother where it passes eps / 2.
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(1, 200)), int(rng.integers(1, 9))
    fam = SquaredDistanceFamily(rng.standard_normal((n, dim)) + offset,
                                rng.uniform(0.5, 2.0, size=n))
    x = fam.centroid + rng.standard_normal(dim)
    s = 10.0 ** log_s
    max_value, mean_value = smooth_pass(fam, SmoothingParams(s), x)[4:6]
    slack = 4.0 * float(np.spacing(abs(max_value))) + 1e-12 * math.log(n) / s
    assert 0.0 <= max_value - mean_value <= math.log(n) / s + slack


@settings(max_examples=50, deadline=None)
@given(seed=family_seeds)
def test_monotone_in_smoother(seed):
    rng = np.random.default_rng(seed)
    fam = RandomQuadraticFamily.from_seed(seed, n=int(rng.integers(2, 10)), dim=3)
    x = rng.standard_normal(3)
    values = [smooth_value(fam, SmoothingParams(s), x) for s in (0.1, 1.0, 10.0, 100.0)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=family_seeds)
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    fam = RandomQuadraticFamily.from_seed(seed, n=6, dim=3)
    perm = rng.permutation(6)
    shuffled = RandomQuadraticFamily(fam.centers[perm], fam.curvatures[perm])
    x = rng.standard_normal(3)
    params = SmoothingParams(2.0)
    assert smooth_value(fam, params, x) == pytest.approx(
        smooth_value(shuffled, params, x), rel=1e-12, abs=1e-12
    )
    np.testing.assert_allclose(
        smooth_gradient(fam, params, x),
        smooth_gradient(shuffled, params, x),
        rtol=1e-12,
        atol=1e-12,
    )


@settings(max_examples=30, deadline=None)
@given(
    magnitude=st.sampled_from([1.0, 1e4, 1e8]),
    s=st.sampled_from([1.0, 1e3, 1e6]),
)
def test_stability_under_extreme_scales(magnitude, s):
    fam = ConstantFamily([magnitude, -magnitude, 0.5 * magnitude])
    params = SmoothingParams(s)
    assert math.isfinite(smooth_value(fam, params, np.zeros(1)))
    weights = softmax_weights(fam, params, np.zeros(1))
    assert np.all(np.isfinite(weights))
    assert np.sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_hessian_eigenvalues_within_lemma_bounds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fam = RandomQuadraticFamily.from_seed(seed, n=5, dim=4)
        x = rng.standard_normal(4)
        constants = DomainConstants(
            2.0 * fam.curvatures, 2.0 * fam.curvatures, fam.pointwise_gradient_bound(x)
        )
        rnd = round_at(constants, 3.0)
        eigs = np.linalg.eigvalsh(smooth_hessian(fam, rnd.params, x))
        assert np.all(eigs >= rnd.L_s - 1e-6)
        assert np.all(eigs <= rnd.U_s + 1e-6)

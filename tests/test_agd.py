import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothmax import (
    BoundingSphereFamily,
    DomainConstants,
    OptimizerConfig,
    PointCloud,
    SmoothingParams,
    agd_step,
    gap_bound,
    required_iterations_general,
    run_online,
    run_to_gap,
    smooth_gradient,
    smooth_hessian,
    smooth_value,
    smoother_for_gap,
    softmax_weights,
)
from smoothmax.agd import (
    SECANT_SAFETY,
    SECANT_SAFETY_FLOOR,
    STEP_GROWTH,
    LowerModel,
    _plan,
    lower_bound,
    momentum_for,
    plan_round,
    run_rounds,
)
from smoothmax.core import smooth_pass
from smoothmax.errors import (
    ConfigurationError,
    ContractViolationError,
    DimensionMismatchError,
    DivergenceError,
    UnsupportedCapabilityError,
)
from smoothmax.families import ComponentFamily
from smoothmax.testkit import (
    RandomQuadraticFamily,
    cross_polytope,
    grid_oracle_minimize,
    random_point_cloud,
)


def symmetric_pair():
    """max((x-1)^2, (x+1)^2) in R^1; optimum x* = 0, f(x*) = 1."""
    return RandomQuadraticFamily(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


def oracle_minimum(family, lows, highs, resolution=241):
    fn = lambda x: float(np.max(family.values_at(np.atleast_1d(x))))
    return grid_oracle_minimize(fn, lows, highs, resolution)


class BatchOnlyFamily(ComponentFamily):
    """Defines only the two abstract hooks, delegated to ``inner``."""

    def __init__(self, inner):
        self.inner, self.n, self.dim = inner, inner.n, inner.dim

    def values_at(self, x):
        return self.inner.values_at(x)

    def combined_gradient(self, x, weights):
        return self.inner.combined_gradient(x, weights)


class CountingFamily(BatchOnlyFamily):
    """Counts the values passes and the point checks."""

    def __init__(self, inner):
        super().__init__(inner)
        self.passes = self.checks = 0

    def check_point(self, x):
        self.checks += 1
        return super().check_point(x)

    def values_at(self, x):
        self.passes += 1
        return super().values_at(x)


def capped_solve(family, constants, config, cap, relative_epsilon=None, **observers):
    """run_to_gap's round for ``config``, run with its cap lowered to ``cap``
    and, when ``relative_epsilon`` is given, its stop made relative.
    Returns the round as planned and the report."""
    rnd = _plan(family, constants, config, config.epsilon)
    capped = rnd._replace(planned=min(rnd.planned, cap), relative_epsilon=relative_epsilon)
    [report] = run_rounds(family, config.x1, lambda gap, reports: capped, config.epsilon,
                          config.epsilon, **observers)
    return rnd, report


class TestSmootherForGap:
    def test_formula(self):
        assert smoother_for_gap(0.1, 2) == pytest.approx(20.0 * math.log(2.0))

    def test_single_component_degenerates_to_zero(self):
        assert smoother_for_gap(0.5, 1) == 0.0

    def test_small_gap_many_components(self):
        assert smoother_for_gap(0.01, 1000) == pytest.approx(200.0 * math.log(1000.0))


class TestAgdStep:
    def test_kappa_one_is_plain_gradient_descent(self):
        x = np.array([1.0])
        x_next, y_next = agd_step(x, x, 2.0 * x, U_s=2.0, momentum=momentum_for(1.0))
        np.testing.assert_allclose(x_next, x - 2.0 * x / 2.0)
        np.testing.assert_allclose(y_next, x_next)

    def test_single_quadratic_one_step_exact(self):
        x = np.array([5.0])
        x_next, _ = agd_step(x, x, 2.0 * x, U_s=2.0, momentum=momentum_for(4.0))
        np.testing.assert_allclose(x_next, [0.0])

    def test_zero_gradient_fixed_point(self):
        x = np.array([2.0, -1.0])
        momentum = momentum_for(9.0)
        moved_x, moved_y = agd_step(x, x, np.ones(2), U_s=1.0, momentum=momentum)
        fixed_x, fixed_y = agd_step(moved_x, moved_y, np.zeros(2), U_s=1.0, momentum=momentum)
        np.testing.assert_allclose(fixed_x, moved_y)
        np.testing.assert_allclose(fixed_y, moved_y + momentum * (moved_y - moved_x))


class GradientOverrideFamily(BatchOnlyFamily):
    """Finite values; ``combined_gradient`` returns ``grad`` on pass ``at``
    (1 is the pass at x1) and from then on when ``stay``."""

    def __init__(self, inner, grad, at, stay):
        super().__init__(inner)
        self.grad, self.at, self.stay, self.calls = grad, at, stay, 0

    def combined_gradient(self, x, weights):
        self.calls += 1
        if self.calls == self.at or (self.stay and self.calls > self.at):
            return self.grad.copy()
        return super().combined_gradient(x, weights)


class TestGradientFiniteness:
    @pytest.mark.parametrize("at", [1, 3])
    def test_non_finite_gradient_raises(self, at):
        inner = RandomQuadraticFamily.from_seed(2, n=4, dim=2)
        config = OptimizerConfig(epsilon=0.01, x1=np.array([0.5, -0.5]),
                                 initial_distance_bound=4.0)
        for bad in (math.nan, math.inf):
            fam = GradientOverrideFamily(inner, np.array([bad, 0.0]), at, stay=True)
            ys = [config.x1]
            with pytest.raises(DivergenceError, match=f"non-finite gradient at iteration {at}$") as err:
                run_to_gap(fam, inner.true_constants(domain_radius=6.0), config,
                           iterate_observer=lambda t, x, y, grad: ys.append(y))
            # The pass at y_at gave the gradient; no step is taken from it.
            assert len(ys) == at
            assert err.value.iterate is ys[-1]

    def test_overflowing_squared_norm_still_steps(self):
        # grad . grad overflows on finite entries: the entry scan lets it step.
        inner = RandomQuadraticFamily(np.array([[2.0, -1.0]]), np.array([1.0]))
        fam = GradientOverrideFamily(inner, np.array([1e200, -1e200]), 1, stay=False)
        constants = DomainConstants.uniform(1, 1.0, 1e200, 1.0)
        config = OptimizerConfig(epsilon=0.1, x1=np.array([1.0, 2.0]), initial_distance_bound=10.0)
        rows, xs = [], []
        with np.errstate(over="ignore"):  # the lower models square the huge slope
            report = run_to_gap(fam, constants, config, progress=lambda *row: rows.append(row),
                                iterate_observer=lambda t, x, y, grad: xs.append(x))
        assert report.iterations_run == 2
        assert rows[0][0] == 2 and rows[0][2] == math.inf
        np.testing.assert_allclose(xs[0], [0.0, 3.0])


class TestGapBound:
    def test_t_one_is_initial_value(self):
        assert gap_bound(1, 2.0, 9.0, 1.5, 0.25) == pytest.approx(2.25 + 0.25)

    def test_formula_value(self):
        assert gap_bound(11, 2.0, 1.0, 1.0, 0.0) == pytest.approx(math.exp(-10.0))

    def test_monotone_decrease(self):
        values = [gap_bound(t, 1.0, 5.0, 1.0, 1.0) for t in range(1, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestRequiredIterations:
    def test_single_component(self):
        assert required_iterations_general(0.1, 1, 1.0, 1.0, 1.0, 1.0) == 1

    def test_golden_value(self):
        assert required_iterations_general(0.1, 2, 1.0, 2.0, 2.0, 1.0) == 12

    def test_already_within_gap(self):
        # L D^2 + 2 G D = 0.003 <= eps
        assert required_iterations_general(0.5, 4, 0.01, 0.01, 0.01, 0.1) == 1

    def test_epsilon_halving_scaling(self):
        eps = 1e-6
        t1 = required_iterations_general(eps, 8, 1.0, 1.0, 1.0, 1.0)
        t2 = required_iterations_general(eps / 2.0, 8, 1.0, 1.0, 1.0, 1.0)
        assert t2 / t1 == pytest.approx(math.sqrt(2.0), rel=0.05)

    def test_monotonicity_grid(self):
        eps_grid = [0.5, 0.2, 0.1, 0.05]
        counts = [required_iterations_general(e, 4, 1.0, 1.0, 1.0, 1.0) for e in eps_grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        for param_grid, position in [([2, 4, 8, 16], "n"), ([0.5, 1.0, 2.0, 4.0], "G"),
                                     ([0.5, 1.0, 2.0, 4.0], "D")]:
            values = []
            for p in param_grid:
                if position == "n":
                    values.append(required_iterations_general(0.1, p, 1.0, 1.0, 1.0, 1.0))
                elif position == "G":
                    values.append(required_iterations_general(0.1, 4, p, 1.0, 1.0, 1.0))
                else:
                    values.append(required_iterations_general(0.1, 4, 1.0, 1.0, 1.0, p))
            assert all(b >= a for a, b in zip(values, values[1:])), position


@pytest.mark.parametrize("call, match", [
    (lambda: OptimizerConfig(epsilon=0.0, x1=np.zeros(1), initial_distance_bound=1.0),
     "epsilon must be positive"),
    (lambda: OptimizerConfig(epsilon=0.1, x1=np.zeros(1), initial_distance_bound=math.nan),
     "initial_distance_bound must be positive"),
    (lambda: smoother_for_gap(0.0, 2), "epsilon > 0"),
    (lambda: smoother_for_gap(0.1, 0), "n >= 1"),
    (lambda: gap_bound(0, 1.0, 1.0, 1.0, 0.0), "out of range"),
    (lambda: gap_bound(1, 1.0, 0.5, 1.0, 0.0), "out of range"),
    (lambda: required_iterations_general(0.1, 2, 1.0, 1.0, 1.0, 0.0), "must be positive"),
    (lambda: required_iterations_general(0.1, 0, 1.0, 1.0, 1.0, 1.0), "n >= 1"),
    (lambda: plan_round(2, 0, 0.1, 1.0, 1.0, 1.0, 1.0), "dim >= 1"),
], ids=["config_epsilon", "config_distance", "smoother_epsilon", "smoother_n", "gap_t",
        "gap_kappa", "iterations_distance", "iterations_n", "plan_dim"])
def test_public_input_checks_raise_contract_violations(call, match):
    with pytest.raises(ContractViolationError, match=match):
        call()


class TestRunToGap:
    def test_single_quadratic_exact_in_one_step(self):
        fam = RandomQuadraticFamily(np.array([[2.0, -1.0]]), np.array([1.0]))
        config = OptimizerConfig(epsilon=0.1, x1=np.array([5.0, 5.0]), initial_distance_bound=10.0)
        constants = fam.true_constants(domain_radius=10.0)
        report = run_to_gap(fam, constants, config)
        np.testing.assert_allclose(report.x_final, [2.0, -1.0], atol=1e-12)
        assert report.s == 0.0

    def test_symmetric_pair_reaches_gap(self):
        fam = symmetric_pair()
        config = OptimizerConfig(epsilon=0.01, x1=np.array([0.5]), initial_distance_bound=0.5)
        constants = fam.true_constants(domain_radius=2.0)
        report = run_to_gap(fam, constants, config)
        oracle_x, oracle_value = oracle_minimum(fam, [-2.0], [2.0])
        assert oracle_value == pytest.approx(1.0, abs=1e-6)
        assert report.f_final - oracle_value <= 0.01
        assert report.gap_certificate >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_families_meet_oracle_gap(self, seed):
        rng = np.random.default_rng(seed)
        fam = RandomQuadraticFamily.from_seed(seed, n=int(rng.integers(2, 11)), dim=2)
        x1 = np.zeros(2)
        constants = fam.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.05, x1=x1, initial_distance_bound=4.0)
        report = run_to_gap(fam, constants, config)
        _, oracle_value = oracle_minimum(fam, [-3.0, -3.0], [3.0, 3.0], resolution=101)
        assert report.f_final - oracle_value <= 0.05 + 1e-9

    def test_determinism(self):
        fam = RandomQuadraticFamily.from_seed(42, n=6, dim=3)
        constants = fam.true_constants(domain_radius=5.0)
        config = OptimizerConfig(epsilon=0.05, x1=np.zeros(3), initial_distance_bound=3.0)
        iterates_a, iterates_b = [], []
        run_to_gap(fam, constants, config,
                   iterate_observer=lambda t, x, y, g: iterates_a.append(x.copy()))
        run_to_gap(fam, constants, config,
                   iterate_observer=lambda t, x, y, g: iterates_b.append(x.copy()))
        assert len(iterates_a) == len(iterates_b)
        for a, b in zip(iterates_a, iterates_b):
            assert np.array_equal(a, b)

    def test_cap_runs_both_sequences(self):
        fam = RandomQuadraticFamily.from_seed(1, n=4, dim=2)
        constants = fam.true_constants(domain_radius=5.0)
        config = OptimizerConfig(epsilon=0.001, x1=np.zeros(2), initial_distance_bound=3.0)
        rnd, report = capped_solve(fam, constants, config, 7)
        assert report.iterations_run == 14
        assert rnd.planned > 7 and report.planned_iterations == 7
        assert report.stop_reason == "planned"

    def test_overflow_guard(self):
        fam = RandomQuadraticFamily.from_seed(1, n=4, dim=2)
        constants = DomainConstants.uniform(4, 1e-9, 1e-9, 1e6)
        config = OptimizerConfig(epsilon=1e-12, x1=np.zeros(2), initial_distance_bound=1e3)
        with pytest.raises(ConfigurationError):
            run_to_gap(fam, constants, config)

    def test_certificate_soundness_and_descent_envelope(self):
        fam = symmetric_pair()
        eps = 0.02
        constants = fam.true_constants(domain_radius=3.0)
        config = OptimizerConfig(epsilon=eps, x1=np.array([0.75]), initial_distance_bound=1.0)
        s = smoother_for_gap(eps, fam.n)
        params = SmoothingParams(s)
        oracle_x, oracle_value = oracle_minimum(fam, [-2.0], [2.0], resolution=2001)
        smooth_at_star = smooth_value(fam, params, np.atleast_1d(oracle_x))
        trace = []
        report = run_to_gap(
            fam, constants, config,
            iterate_observer=lambda t, x, y, g: trace.append(
                (t, smooth_value(fam, params, x), float(np.max(fam.values_at(x))))
            ),
        )
        assert report.f_final - oracle_value <= report.gap_certificate + 1e-9
        initial_gap = smooth_value(fam, params, config.x1) - smooth_at_star
        for t, smooth_x, _max_x in trace:
            envelope = gap_bound(t, report.L_s, report.kappa_s,
                                 config.initial_distance_bound, initial_gap)
            assert smooth_x <= smooth_at_star + envelope + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    eps=st.sampled_from([0.1, 0.01]),
    cap=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
def test_lower_bound_and_certificate_are_sound(seed, eps, cap):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    inner = RandomQuadraticFamily.from_seed(seed, n=int(rng.integers(2, 9)), dim=dim)
    fam = CountingFamily(inner)
    config = OptimizerConfig(epsilon=eps, x1=rng.uniform(-1.0, 1.0, dim),
                             initial_distance_bound=4.0)
    constants = inner.true_constants(domain_radius=6.0)
    if cap is None:
        report = run_to_gap(fam, constants, config)
    else:
        _, report = capped_solve(fam, constants, config, cap)
    _, f_star = oracle_minimum(inner, [-3.0] * dim, [3.0] * dim,
                               resolution={1: 241, 2: 41}[dim])
    assert report.lower_bound <= f_star + 1e-9
    assert report.f_final - f_star <= report.gap_certificate + 1e-9
    assert report.f_final == float(np.max(inner.values_at(report.x_final)))
    # The pass at x1 and one per step; at the cap the last one is at x_T.
    assert fam.passes == report.iterations_run + 1
    if report.stop_reason == "certified":
        assert report.gap_certificate <= eps
    else:
        assert report.iterations_run == 2 * report.planned_iterations
        assert report.stop_reason == "planned"


def replay_passes(family, params, points, strong):
    """Redo a solve's passes at x1 and each y, building the bounds as
    run_to_gap does; yields (t, p_t, averaged bound, running lb_best)."""
    model, lb = None, -math.inf
    for t, y in enumerate(points, start=1):
        _, grad, e, total, _, mean, _ = smooth_pass(family, params, y)
        curvature = float(e.dot(strong)) / total if strong.max() > strong.min() else strong[0]
        if model is None:
            model = LowerModel(mean, grad, curvature)
        else:
            delta = y - points[t - 2]
            model.add(delta, float(delta.dot(delta)), mean, grad, curvature)
        lb = max(lb, lower_bound(mean, float(grad.dot(grad)), curvature), model.bound())
        yield t, e / total, curvature, model.bound(), lb


class TestLowerModel:
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_bounding_sphere_bound_is_the_dual_at_the_averaged_weights(self, offset):
        # Every pass's model of a bounding-sphere max is exact for its
        # p-weighted sum, so the averaged model's minimum is the Frank-Wolfe
        # dual sum p~ ||c~||^2 - ||p~^T P||^2 at the t-weighted mean p~ of the
        # passes' softmax weights.
        # One solve from the centroid at the relative gap 0.01, its absolute
        # gap set from the radius bracket's lower end f(x1) / 4.
        cloud = PointCloud(random_point_cloud(7, 150, 3, "gaussian").points + offset)
        family = BoundingSphereFamily(cloud)
        f1 = float(family.centred_sq.max())
        gap = (2.0 * 0.01 + 0.01 ** 2) * f1 / 4.0
        # G = 2 sqrt(f(x1)), the gradient bound solve_meb gives a round from x1.
        x1 = cloud.points.mean(axis=0)
        ys = []
        rnd = plan_round(cloud.n, cloud.dim, gap, math.sqrt(f1), 2.0 * math.sqrt(f1), 2.0, 2.0,
                         0.01)
        [report] = run_rounds(family, x1, lambda gap, reports: rnd, 0.01, 0.01,
                              iterate_observer=lambda t, x, y, grad: ys.append(y))
        assert report.stop_reason == "certified"
        weights_sum, weight = np.zeros(cloud.n), 0
        for t, p, _, averaged, lb in replay_passes(family, SmoothingParams(report.s),
                                                   [x1] + ys, np.full(cloud.n, 2.0)):
            weights_sum += t * p
            weight += t
            p_bar = weights_sum / weight
            centre = p_bar @ (cloud.points - family.centroid)
            assert averaged == pytest.approx(
                p_bar @ family.centred_sq - centre @ centre, rel=1e-9)
        # The solve keeps the highest of the per-pass and the averaged bounds.
        assert report.lower_bound == lb

    def test_average_uses_the_passes_softmax_curvature(self):
        # With mixed curvatures, each pass's model has curvature p . l >= min l.
        fam = RandomQuadraticFamily.from_seed(3, n=5, dim=2, curv_min=0.2, curv_max=5.0)
        constants = fam.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.05, x1=np.zeros(2), initial_distance_bound=4.0)
        ys = []
        report = run_to_gap(fam, constants, config,
                            iterate_observer=lambda t, x, y, grad: ys.append(y))
        for _, _, curvature, _, lb in replay_passes(fam, SmoothingParams(report.s),
                                                    [config.x1] + ys,
                                                    constants.per_component_strong_convexity):
            assert curvature >= report.L_s
        assert report.lower_bound == lb


def ill_conditioned(rng, max_dim, max_n):
    """A centre per component and curvatures spread over two decades."""
    dim, n = int(rng.integers(1, max_dim + 1)), int(rng.integers(2, max_n + 1))
    base = rng.standard_normal((n, dim))
    return base, np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))


def far_from_x1(seed, offset, eps):
    """An ill-conditioned family whose centres sit ``offset`` away from
    x1 = 0, so the iterates travel that far; the gap is scaled with the
    squared travel, which keeps the step count independent of the offset.
    Returns the solve's family, config and constants, and f*, which does not
    move with the centres and so comes from the unmoved family."""
    rng = np.random.default_rng(seed)
    base, curvatures = ill_conditioned(rng, 2, 8)
    dim = base.shape[1]
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    fam = RandomQuadraticFamily(base + offset * direction, curvatures)
    config = OptimizerConfig(epsilon=eps * (1.0 + offset) ** 2, x1=np.zeros(dim),
                             initial_distance_bound=offset + 3.0)
    _, f_star = oracle_minimum(RandomQuadraticFamily(base, curvatures), [-3.0] * dim,
                               [3.0] * dim, resolution={1: 241, 2: 41}[dim])
    return fam, config, fam.true_constants(domain_radius=2.0 * offset + 4.0), f_star


def roundoff_slack(fam, x1, f_star):
    """A few ulps of the largest values the solve handles, f(x1)."""
    return 1e-14 * float(np.max(fam.values_at(x1))) + 1e-9 * (1.0 + abs(f_star))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    eps=st.sampled_from([0.1, 0.01]),
)
def test_averaged_bound_is_sound_far_from_x1(seed, offset, eps):
    fam, config, constants, f_star = far_from_x1(seed, offset, eps)
    report = run_to_gap(fam, constants, config)
    slack = roundoff_slack(fam, config.x1, f_star)
    assert report.lower_bound <= f_star + slack
    assert report.f_final - f_star <= report.gap_certificate + slack


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    eps=st.sampled_from([0.1, 0.01]),
    cap=st.integers(min_value=1, max_value=40),
)
# Solves whose bounds, at 1e6 from x1, carried more roundoff than a margin
# scaled by |f_best| covered: each certified early, with a bound above f*.
@example(seed=36, offset=1e6, eps=0.1, cap=30)
@example(seed=36, offset=1e6, eps=0.01, cap=40)
@example(seed=295, offset=1e6, eps=0.1, cap=40)
def test_bounds_stay_sound_through_the_fallback(seed, offset, eps, cap):
    # No bound proves a relative gap of 1e-12 on a positive max, so every
    # solve runs the adaptive sequence and then the fixed one for its cap.
    # The averaged model keeps its anchor at the last pass point across the
    # restart; an anchor moved to the start point gives bounds above f*.
    fam, config, constants, f_star = far_from_x1(seed, offset, eps)
    rnd, report = capped_solve(fam, constants, config, cap, 1e-12)
    assert report.iterations_run == 2 * min(rnd.planned, cap)
    slack = roundoff_slack(fam, config.x1, f_star)
    assert report.lower_bound <= f_star + slack
    assert report.f_final - f_star <= report.gap_certificate + slack


class TestFallback:
    def test_uncertified_round_replays_the_fixed_sequence(self):
        # A round whose adaptive sequence does not certify within its cap
        # runs today's fixed sequence from its start for the cap again:
        # steps at 1/U_s with momentum_for(kappa_s), bit for bit.
        fam = RandomQuadraticFamily.from_seed(7, n=6, dim=3)
        cap, distance = 25, 3.0
        config = OptimizerConfig(epsilon=0.05, x1=np.full(3, 0.5), initial_distance_bound=distance)
        states = []
        rnd, report = capped_solve(
            fam, fam.true_constants(domain_radius=5.0), config, cap, 1e-12,
            iterate_observer=lambda t, x, y, f: states.append((t, x, y)))
        assert rnd.planned > cap
        assert (report.stop_reason, report.iterations_run) == ("planned", 2 * cap)
        assert [t for t, _, _ in states] == list(range(2, 2 * cap + 2))
        params, momentum = SmoothingParams(report.s), momentum_for(report.kappa_s)
        x = y = config.x1
        for _, x_t, y_t in states[cap:-1]:
            x, y = agd_step(x, y, smooth_gradient(fam, params, y), report.U_s, momentum)
            assert np.array_equal(x_t, x) and np.array_equal(y_t, y)
        # The last step lands on x_T as before and makes its pass there.
        x, _ = agd_step(x, y, smooth_gradient(fam, params, y), report.U_s, momentum)
        assert np.array_equal(states[-1][1], x) and np.array_equal(states[-1][2], x)
        # The adaptive sequence's first step is at 1/U of its own smoother,
        # the support's (d + 1 = 4 of n = 6 here), below s_n; the fixed
        # sequence's first step is at 1/U_s of s_n.  The two then part.
        s_0 = rnd.support_s
        U_0 = s_0 * rnd.G_s ** 2 + rnd.max_smoothness
        first, _ = agd_step(config.x1, config.x1,
                            smooth_gradient(fam, SmoothingParams(s_0), config.x1), U_0,
                            momentum_for(U_0 / rnd.L_s))
        assert s_0 == smoother_for_gap(config.epsilon, 4) < rnd.s == report.s
        assert np.array_equal(states[0][1], first)
        assert not np.array_equal(states[0][1], states[cap][1])
        assert not np.array_equal(states[cap - 1][1], x)
        # x_T is a candidate, and the certificate is the a-priori bound after
        # cap steps unless the proven gap is smaller.
        assert report.f_final <= float(np.max(fam.values_at(x)))
        a_priori = gap_bound(cap, report.L_s, report.kappa_s, distance,
                             report.g_s * distance) + math.log(fam.n) / report.s
        assert report.gap_certificate == min(max(0.0, report.f_final - report.lower_bound),
                                             a_priori)


# The component counts and dimensions of the benchmark's observed min-max
# families.
GENERIC_SIZES = tuple((round(2 + 38 * k / 23), 2 + k % 7) for k in range(24))


def replay_step_sizes(fam, report, x1, states, factor_after):
    """Replays a certified round's adaptive sequence from its observed pass
    states ``(x_t, y_t)``, t = 2, 3, ..., with the first secant at
    SECANT_SAFETY and every later one at ``factor_after(k)``, k the restarts
    so far.  Returns the steps t - 1 -> t that restarted, and the first pass
    t whose next step x_{t+1} = y_t - grad f_s(y_t) / U_t misses the observed
    one (None when every step matches)."""
    params = SmoothingParams(report.s)
    xs, ys = [x1] + [x for x, _ in states], [x1] + [y for _, y in states]
    grads = [smooth_gradient(fam, params, y) for y in ys]
    restarts, mismatch, U = [], None, report.U_s
    for j in range(1, len(ys)):  # the pass at y_{j+1}
        if float(grads[j - 1].dot(xs[j] - xs[j - 1])) > 0.0:
            assert np.array_equal(ys[j], xs[j])
            restarts.append(j + 1)
        dy = ys[j] - ys[j - 1]
        if dy.dot(dy) > 0.0:
            secant = np.linalg.norm(grads[j] - grads[j - 1]) / np.linalg.norm(dy)
            if j == 1:
                U = min(report.U_s, max(report.L_s, SECANT_SAFETY * secant))
            else:
                U = min(report.U_s, max(report.L_s, factor_after(len(restarts)) * secant,
                                        U / STEP_GROWTH))
        if (mismatch is None and j + 1 < len(ys)
                and not np.allclose(xs[j + 1], ys[j] - grads[j] / U, rtol=1e-12, atol=0.0)):
            mismatch = j + 1
    return restarts, mismatch


def doubling_factor(k):
    return min(SECANT_SAFETY, SECANT_SAFETY_FLOOR * 2 ** k)


class TestAdaptiveSequence:
    def setup_method(self):
        self.fam = RandomQuadraticFamily.from_seed(7, n=6, dim=3)
        self.config = OptimizerConfig(epsilon=0.05, x1=np.full(3, 0.5),
                                      initial_distance_bound=3.0)
        self.states = []
        self.report = run_to_gap(
            self.fam, self.fam.true_constants(domain_radius=5.0), self.config,
            iterate_observer=lambda t, x, y, f: self.states.append((x, y)))
        assert self.report.stop_reason == "certified"

    def test_first_secant_is_not_growth_capped(self):
        # After the first step at 1/U_s, the next step is at the first secant
        # alone (theta_0 = +inf): U_2 = min(U_s, max(L_s, 8 ||g2 - g1|| /
        # ||y2 - y1||)), far below the growth cap U_s / STEP_GROWTH here.
        fam = RandomQuadraticFamily.from_seed(7, n=6, dim=3)
        config = OptimizerConfig(epsilon=0.05, x1=np.full(3, 0.5), initial_distance_bound=3.0)
        states = []
        report = run_to_gap(fam, fam.true_constants(domain_radius=5.0), config,
                            iterate_observer=lambda t, x, y, grad: states.append((x, y)))
        assert report.stop_reason == "certified"
        params = SmoothingParams(report.s)
        y1, y2 = config.x1, states[0][1]
        g1, g2 = smooth_gradient(fam, params, y1), smooth_gradient(fam, params, y2)
        secant = SECANT_SAFETY * np.linalg.norm(g2 - g1) / np.linalg.norm(y2 - y1)
        U_2 = min(report.U_s, max(report.L_s, secant))
        assert U_2 < report.U_s / STEP_GROWTH
        np.testing.assert_allclose(states[1][0], y2 - g2 / U_2, rtol=1e-12)

    def test_second_secant_uses_the_floor_factor(self):
        # Step 2 -> 3 does not restart, so the secant at y_3 is scaled by
        # SECANT_SAFETY_FLOOR: U_3 = min(U_s, max(L_s, 1.5 ||g3 - g2|| /
        # ||y3 - y2||, U_2 / STEP_GROWTH)).  Factor 8 would give a larger U_3.
        fam, report, states = self.fam, self.report, self.states
        params = SmoothingParams(report.s)
        y1, (_, y2), (x3, y3) = self.config.x1, states[0], states[1]
        assert not np.array_equal(x3, y3)
        g1, g2, g3 = (smooth_gradient(fam, params, y) for y in (y1, y2, y3))
        first = SECANT_SAFETY * np.linalg.norm(g2 - g1) / np.linalg.norm(y2 - y1)
        U_2 = min(report.U_s, max(report.L_s, first))
        secant = np.linalg.norm(g3 - g2) / np.linalg.norm(y3 - y2)
        U_3 = min(report.U_s, max(report.L_s, SECANT_SAFETY_FLOOR * secant, U_2 / STEP_GROWTH))
        assert U_3 < min(report.U_s, SECANT_SAFETY * secant)
        np.testing.assert_allclose(states[2][0], y3 - g3 / U_3, rtol=1e-12)

    def test_restart_doubles_the_factor(self):
        # The factor doubles on each restart and scales the secant of the
        # restarting step's pass; kept at the floor, the replay parts from
        # the solve right at the first restart.
        args = self.fam, self.report, self.config.x1, self.states
        restarts, mismatch = replay_step_sizes(*args, doubling_factor)
        assert mismatch is None and len(restarts) >= 3
        assert replay_step_sizes(*args, lambda k: SECANT_SAFETY_FLOOR)[1] == restarts[0]

    def test_factor_never_passes_the_cap(self):
        # 1.5, 3, 6, then 8 from the third restart on, where 12 would part.
        args = self.fam, self.report, self.config.x1, self.states
        restarts, mismatch = replay_step_sizes(*args, doubling_factor)
        assert mismatch is None
        uncapped = replay_step_sizes(*args, lambda k: SECANT_SAFETY_FLOOR * 2 ** k)[1]
        assert uncapped == restarts[2]


class TestAdaptiveStepCounts:
    """Step totals of certified generic solves on fixed seeds, a guard on the
    adaptive sequence's gain: within 1.25x of 2246 and 5379, the steps they
    take with the secant factor that starts at SECANT_SAFETY_FLOOR and
    doubles on each restart.  With a constant factor 8 they took 3757 and
    6690 on the raw-coordinate kernel (5181 and 8721 with the first secant
    growth-capped too), and 3750 and 6820 on the centred table of
    ``SquaredDistanceFamily`` (5176 and 9061).  The fixed sequence alone
    took 23434 and 213256."""

    def test_benchmark_families(self):
        steps = 0
        for seed in range(3):
            for k, (n, d) in enumerate(GENERIC_SIZES):
                fam = RandomQuadraticFamily.from_seed(1000 * seed + k, n, d)
                distance = float(np.max(np.linalg.norm(fam.centers, axis=1)))
                config = OptimizerConfig(epsilon=0.1, x1=np.zeros(d),
                                         initial_distance_bound=distance)
                report = run_to_gap(fam, fam.true_constants(domain_radius=6.0), config)
                assert report.stop_reason == "certified"
                steps += report.iterations_run
        assert steps <= 1.25 * 2246

    def test_ill_conditioned_families(self):
        steps = 0
        for seed in range(50):
            base, curvatures = ill_conditioned(np.random.default_rng(seed), 3, 19)
            fam = RandomQuadraticFamily(base, curvatures)
            for eps in (0.1, 0.01):
                config = OptimizerConfig(epsilon=eps, x1=np.zeros(base.shape[1]),
                                         initial_distance_bound=3.0)
                report = run_to_gap(fam, fam.true_constants(domain_radius=4.0), config)
                assert report.stop_reason == "certified"
                steps += report.iterations_run
        assert steps <= 1.25 * 5379


class TestRunOnline:
    def test_single_round_matches_run_to_gap(self):
        fam = symmetric_pair()
        constants = fam.true_constants(domain_radius=3.0)
        config = OptimizerConfig(epsilon=0.1, x1=np.array([0.5]), initial_distance_bound=1.0)
        single = run_to_gap(fam, constants, config)
        online = run_online(fam, lambda eps: constants, 0.1, 1, config)
        assert len(online) == 1
        np.testing.assert_array_equal(single.x_final, online[0].x_final)
        assert single.iterations_run == online[0].iterations_run

    def test_four_rounds_halve_epsilon_and_certify(self):
        fam = symmetric_pair()
        constants = fam.true_constants(domain_radius=3.0)
        config = OptimizerConfig(epsilon=0.8, x1=np.array([0.6]), initial_distance_bound=1.0)
        reports = run_online(fam, lambda eps: constants, 0.8, 4, config)
        _, oracle_value = oracle_minimum(fam, [-2.0], [2.0], resolution=2001)
        expected = [0.8, 0.4, 0.2, 0.1]
        for eps, report in zip(expected, reports):
            assert report.gap_certificate <= eps + 1e-12
            assert report.f_final - oracle_value <= eps + 1e-9

    def test_cumulative_iterations_bounded_by_final_round(self):
        fam = RandomQuadraticFamily.from_seed(9, n=8, dim=2)
        constants = fam.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.8, x1=np.zeros(2), initial_distance_bound=4.0)
        reports = run_online(fam, lambda eps: constants, 0.8, 4, config)
        total = sum(r.iterations_run for r in reports)
        single = run_to_gap(
            fam, constants,
            OptimizerConfig(epsilon=0.1, x1=np.zeros(2), initial_distance_bound=4.0),
        )
        assert total <= 4 * single.iterations_run

    def test_bad_arguments(self):
        fam = symmetric_pair()
        constants = fam.true_constants(domain_radius=3.0)
        config = OptimizerConfig(epsilon=0.1, x1=np.array([0.5]), initial_distance_bound=1.0)
        with pytest.raises(ContractViolationError):
            run_online(fam, lambda eps: constants, 0.1, 0, config)

    @pytest.mark.parametrize("case", ["symmetric_pair", "seed_9", "unequal_curvatures", "raise"])
    def test_rounds_equal_chained_run_to_gap(self, case):
        # Each round is run_to_gap at its gap from the previous x_final, bit
        # for bit: the start pass of a round re-weights the values kept at
        # x_best, which the doubled smoother rescales exactly, and each round
        # starts at its support's smoother, whatever the last one raised it
        # to.  The provider's G grows with eps, so each round plans under its
        # own constants.
        if case == "symmetric_pair":
            fam, x1, distance, radius = symmetric_pair(), np.array([0.6]), 1.0, 3.0
        elif case == "seed_9":
            fam, x1, distance, radius = (RandomQuadraticFamily.from_seed(9, n=8, dim=2),
                                         np.zeros(2), 4.0, 6.0)
        elif case == "unequal_curvatures":
            base, curvatures = ill_conditioned(np.random.default_rng(3), 2, 8)
            fam, x1, distance, radius = (RandomQuadraticFamily(base, curvatures),
                                         np.zeros(base.shape[1]), 3.0, 4.0)
        else:
            # 21 centres in R^1, crowded near 0 and sparse near +-1: the
            # first round's regret passes its budget at the support's
            # smoother (2 of 21), which it raises.
            fam, x1, distance, radius = (
                RandomQuadraticFamily(np.linspace(-1.0, 1.0, 21)[:, None] ** 3, np.ones(21)),
                np.array([0.3]), 2.0, 3.0)
        base_constants = fam.true_constants(domain_radius=radius)
        # Only the symmetric pair and the raising family have equal
        # curvatures; the others take the per-component path of each round.
        assert base_constants.uniform_strong_convexity == (case in ("symmetric_pair", "raise"))

        def provider(eps):
            return DomainConstants(base_constants.per_component_strong_convexity,
                                   base_constants.per_component_smoothness,
                                   base_constants.gradient_norm_bound * (1.0 + eps))

        config = OptimizerConfig(epsilon=0.8, x1=x1, initial_distance_bound=distance)
        reports = run_online(fam, provider, 0.8, 4, config)
        assert len(reports) == 4
        if case == "raise":
            assert reports[0].s == 2.0 * smoother_for_gap(0.8, 2) < smoother_for_gap(0.8, 21)
        x = x1
        for k, report in enumerate(reports):
            eps = 0.8 / 2 ** k
            chained = run_to_gap(fam, provider(eps), replace(config, epsilon=eps, x1=x))
            assert np.array_equal(report.x_final, chained.x_final)
            assert (report.iterations_run, report.f_final, report.lower_bound,
                    report.gap_certificate) == (chained.iterations_run, chained.f_final,
                                                chained.lower_bound, chained.gap_certificate)
            assert report.g_s == provider(eps).gradient_norm_bound
            x = chained.x_final

    def test_one_step_counter_and_one_start_pass(self):
        # One run_rounds loop: one point check and one values pass at x1,
        # then one pass per step of every round, and progress counts the
        # steps across the rounds.
        fam = CountingFamily(RandomQuadraticFamily.from_seed(9, n=8, dim=2))
        constants = fam.inner.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.8, x1=np.zeros(2), initial_distance_bound=4.0)
        ts = []
        reports = run_online(fam, lambda eps: constants, 0.8, 4, config,
                             progress=lambda t, value, grad_norm: ts.append(t))
        assert all(r.stop_reason == "certified" for r in reports)
        total = sum(r.iterations_run for r in reports)
        assert fam.passes == total + 1
        assert fam.checks == 1
        assert ts == list(range(2, total + 2))


# Families of perfbench's minmax-observed shapes (n and d as its sizes 0, 8
# and 20), with each solve's steps and f_final.  The adaptive sequence starts
# at the smoother of the support min(n, d + 1): s_n for the first family
# (d + 1 >= n, where no raise can fire), below s_n for the other two.  Per
# family: run_to_gap's (steps, f_final), then run_online's per round.  The
# f_final bits also follow the rounding of the family's centroid (a pairwise
# sum per coordinate).
GENERIC_GOLDEN = [
    ((11, 2, 2), (12, "0x1.7227927fb2c98p+0"),
     [(3, "0x1.bc4e1632929cep+0"), (1, "0x1.bbf72b8f52740p+0"),
      (5, "0x1.8dcf725e1e566p+0"), (7, "0x1.7317972d848d3p+0")]),
    ((12, 15, 3), (15, "0x1.bda260f8d9dc3p+2"),
     [(5, "0x1.cc486237d6e84p+2"), (4, "0x1.c1493f5e9e95cp+2"),
      (3, "0x1.c047875e8cdd2p+2"), (10, "0x1.beae8c269d26bp+2")]),
    ((13, 35, 8), (60, "0x1.a565894897efcp+4"),
     [(24, "0x1.aadb03df42f78p+4"), (4, "0x1.a9a392ce29b62p+4"),
      (14, "0x1.a8511fc32d1bdp+4"), (28, "0x1.a683376cbabefp+4")]),
]


@pytest.mark.parametrize("shape, single, online", GENERIC_GOLDEN)
def test_generic_path_starts_at_the_supports_smoother(shape, single, online):
    seed, n, d = shape
    fam = RandomQuadraticFamily.from_seed(seed, n, d)
    constants = fam.true_constants(domain_radius=6.0)
    distance = float(np.max(np.linalg.norm(fam.centers, axis=1)))
    config = OptimizerConfig(epsilon=0.1, x1=np.zeros(d), initial_distance_bound=distance)
    report = run_to_gap(fam, constants, config)
    reports = run_online(fam, lambda eps: constants, 0.8, 4, config)
    assert (report.iterations_run, report.f_final.hex()) == single
    assert [(r.iterations_run, r.f_final.hex()) for r in reports] == online
    # No raise fires on these families: each round ends at the smoother it
    # starts at, its support's.
    support = min(n, d + 1)
    assert report.s == smoother_for_gap(0.1, support)
    assert [r.s for r in reports] == [smoother_for_gap(0.8 / 2 ** k, support) for k in range(4)]


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_generic_path_below_s_n_meets_the_exact_optimum(dim, offset):
    # f_i(x) = a ||x - c_i||^2 over the 2 dim vertices c_i of a unit cross
    # polytope: f* = a R^2 with R = 1 at their mean, where all 2 dim
    # components are active, a support wider than the dim + 1 the adaptive
    # sequence's smoother is sized for.
    a = 1.5
    cloud, radius = cross_polytope(dim, dim, offset)
    fam = RandomQuadraticFamily(cloud.points, np.full(cloud.n, a))
    f_star = a * radius ** 2
    direction = np.random.default_rng(dim).standard_normal(dim)
    x1 = cloud.points.mean(axis=0) + 0.5 * direction / np.linalg.norm(direction)
    # Every ||grad f_i|| = 2 a ||x - c_i|| is at most 2 a (R + 3) within 3
    # of the optimum.
    constants = DomainConstants.uniform(cloud.n, 2.0 * a, 2.0 * a, 2.0 * a * (radius + 3.0))
    config = OptimizerConfig(epsilon=0.05, x1=x1, initial_distance_bound=0.5)
    report = run_to_gap(fam, constants, config)
    reports = run_online(fam, lambda eps: constants, 0.4, 4, config)
    for r, eps in [(report, 0.05)] + list(zip(reports, (0.4, 0.2, 0.1, 0.05))):
        # Each round ran below s_n throughout: no raise reached s_n and no
        # fallback ran.
        assert r.s < smoother_for_gap(eps, cloud.n)
        assert r.stop_reason == "certified"
        assert r.lower_bound <= f_star * (1.0 + 1e-9)
        assert r.f_final - f_star <= eps + 1e-9


class TestOnePassPerIteration:
    def setup_method(self):
        self.fam = CountingFamily(RandomQuadraticFamily.from_seed(5, n=6, dim=3))
        self.constants = self.fam.inner.true_constants(domain_radius=5.0)
        self.config = OptimizerConfig(epsilon=0.1, x1=np.zeros(3), initial_distance_bound=3.0)

    def test_values_passes_per_solve(self):
        # A solve certified after step k makes the pass at x1 and one per
        # step; progress reads the same passes.
        report = run_to_gap(self.fam, self.constants, self.config)
        assert report.stop_reason == "certified"
        assert self.fam.passes == report.iterations_run + 1
        self.fam.passes = 0
        observed = run_to_gap(self.fam, self.constants, self.config,
                              progress=lambda t, value, grad_norm: None)
        assert observed.iterations_run == report.iterations_run
        assert self.fam.passes == report.iterations_run + 1
        # One step short of that, the adaptive and the fixed sequence each
        # run the cap, and the last step's own pass is the one at x_T.
        self.fam.passes = 0
        _, capped = capped_solve(self.fam, self.constants, self.config,
                                 report.iterations_run - 1)
        assert (capped.stop_reason, capped.iterations_run) == (
            "planned", 2 * (report.iterations_run - 1))
        assert self.fam.passes == capped.iterations_run + 1

    def test_one_point_check_per_call(self):
        params = SmoothingParams(2.0)
        for wrapper in (smooth_value, softmax_weights, smooth_gradient):
            wrapper(self.fam, params, np.ones(3))
        assert self.fam.checks == self.fam.passes == 3
        # run_to_gap checks x1 once; every later pass reads agd_step's arrays.
        self.fam.checks = 0
        report = run_to_gap(self.fam, self.constants, self.config,
                            progress=lambda t, value, grad_norm: None)
        assert report.stop_reason == "certified" and report.iterations_run > 1
        assert self.fam.checks == 1
        # At the cap, the values pass at x_T adds no check either.
        self.fam.checks = 0
        _, capped = capped_solve(self.fam, self.constants, self.config, 3)
        assert (capped.stop_reason, capped.iterations_run) == ("planned", 6)
        assert self.fam.checks == 1

    def test_wrong_shape_x1_raises(self):
        with pytest.raises(DimensionMismatchError):
            run_to_gap(self.fam, self.constants, replace(self.config, x1=np.zeros(2)))

    def test_observers_see_the_public_values(self):
        rows, ys, maxima = [], [self.config.x1], []

        def observer(t, x, y, f):
            ys.append(y)
            maxima.append(f)

        report = run_to_gap(self.fam, self.constants, self.config,
                            progress=lambda *row: rows.append(row),
                            iterate_observer=observer)
        assert len(rows) == report.iterations_run == len(maxima)
        params = SmoothingParams(report.s)
        for k, (t, value, grad_norm) in enumerate(rows):
            expected_grad = smooth_gradient(self.fam.inner, params, ys[k])
            assert t == k + 2
            assert value == smooth_value(self.fam.inner, params, ys[k + 1])
            assert grad_norm == float(np.linalg.norm(expected_grad))
            assert maxima[k] == float(np.max(self.fam.inner.values_at(ys[k + 1])))

    def test_progress_precedes_observer(self):
        events = []
        report = run_to_gap(
            self.fam, self.constants, self.config,
            progress=lambda t, value, grad_norm: events.append(("progress", t)),
            iterate_observer=lambda t, x, y, grad: events.append(("observer", t)),
        )
        assert events == [(kind, t) for t in range(2, report.iterations_run + 2)
                          for kind in ("progress", "observer")]


class TestBatchHookContract:
    """A family needs only ``values_at`` and ``combined_gradient``."""

    @pytest.mark.parametrize("n", [1, 5])
    def test_run_to_gap_solves_batch_only_family(self, n):
        inner = RandomQuadraticFamily.from_seed(n, n=n, dim=2)
        constants = inner.true_constants(domain_radius=6.0)
        config = OptimizerConfig(epsilon=0.05, x1=np.zeros(2), initial_distance_bound=4.0)
        report = run_to_gap(BatchOnlyFamily(inner), constants, config)
        _, oracle_value = oracle_minimum(inner, [-3.0, -3.0], [3.0, 3.0], resolution=101)
        assert report.f_final - oracle_value <= 0.05 + 1e-9
        np.testing.assert_array_equal(
            report.x_final, run_to_gap(inner, constants, config).x_final
        )

    def test_verification_capability_is_optional(self):
        fam = BatchOnlyFamily(RandomQuadraticFamily.from_seed(0, n=3, dim=2))
        with pytest.raises(UnsupportedCapabilityError):
            smooth_hessian(fam, SmoothingParams(1.0), np.zeros(2))
        with pytest.raises(UnsupportedCapabilityError):
            fam.gradients_at(np.zeros(2))
        with pytest.raises(UnsupportedCapabilityError):
            fam.combined_hessian(np.zeros(2), np.ones(3))

    @pytest.mark.parametrize("missing", ["values_at", "combined_gradient"])
    def test_missing_hook_fails_on_construction(self, missing):
        hooks = {name: getattr(BatchOnlyFamily, name)
                 for name in ("__init__", "values_at", "combined_gradient")}
        del hooks[missing]
        partial = type("PartialFamily", (ComponentFamily,), hooks)
        with pytest.raises(TypeError, match=missing):
            partial(RandomQuadraticFamily.from_seed(0, n=3, dim=2))

    def test_single_component_progress_is_exact(self):
        fam = RandomQuadraticFamily(np.array([[2.0, -1.0, 0.5]]), np.array([0.7]))
        constants = fam.true_constants(domain_radius=10.0)
        config = OptimizerConfig(epsilon=0.1, x1=np.array([5.0, 5.0, -3.0]),
                                 initial_distance_bound=10.0)
        rows, ys = [], [config.x1]
        report = run_to_gap(fam, constants, config,
                            progress=lambda *row: rows.append(row),
                            iterate_observer=lambda t, x, y, grad: ys.append(y))
        assert (report.s, report.U_s) == (0.0, constants.max_smoothness)
        # One step from x1 lands on the centre, where the bound is exact.
        assert (report.stop_reason, report.iterations_run) == ("certified", 1)
        maxima = [fam.values_at(y)[0] for y in ys]
        grads = [fam.combined_gradient(y, np.ones(1)) for y in ys]
        assert report.f_final == min(maxima)
        assert report.lower_bound == max(
            f - float(g.dot(g)) / (2.0 * report.L_s) for f, g in zip(maxima, grads))
        assert report.gap_certificate == max(0.0, report.f_final - report.lower_bound)
        assert rows == [
            (k + 2, fam.values_at(ys[k + 1])[0],
             float(np.linalg.norm(fam.combined_gradient(ys[k], np.ones(1)))))
            for k in range(report.iterations_run)
        ]

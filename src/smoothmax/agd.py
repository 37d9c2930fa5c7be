"""Accelerated gradient descent on the smoothed max objective.

Implements the update pair

    x_{t+1} = y_t - (1/U_s) grad f_s(y_t)
    y_{t+1} = x_{t+1} + (1 - 2/(sqrt(kappa_s) + 1)) (x_{t+1} - x_t)

together with the smoother selection, the closed-form sufficient iteration
count (the cap of each solve), the lower bounds on the optimum that stop a
solve once they certify the gap, and the one gap-halving schedule of every
multi-round solve (``run_rounds``).

The paper's smoother s_n = 2 log(n) / epsilon (Nesterov's entropy
smoothing) feeds the a-priori count and the fixed sequence that backs it.
No certificate reads s, so the adaptive sequence may smooth less: it starts
at 2 log(min(n, k)) / epsilon for a support of k components and doubles s,
up to s_n, on a pass whose measured regret max - mean passes epsilon / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# component_values, smooth_gradient and smooth_value stay bound here because
# perfbench/tracing.py wraps them at this module; tests/test_bench_lookups.py
# checks that every name it wraps is defined where it looks it up.
from .core import (
    component_values,
    condition_number,
    shifted_pass,
    smooth_gradient,
    smooth_pass,
    smooth_value,
)
from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .families import ComponentFamily, DomainConstants, SmoothingParams

MAX_PLANNED_ITERATIONS = 2 ** 31
# A solve is certified once f_best - lb_best <= epsilon - CERTIFY_MARGIN M
# (or f_best - (1 + rel)^2 lb_best <= -CERTIFY_MARGIN M under a relative
# target), M the largest |max| among the round's passes.  The margin keeps
# roundoff in the bound from certifying a gap just above the target: the
# bound's sums carry the roundoff of every pass's values, so it is scaled by
# the largest of them, not by |f_best|, which can be far smaller.
CERTIFY_MARGIN = 1e-12
# The adaptive sequence of a round (``run_rounds``) steps at 1/U_t with U_t a
# factor times the secant estimate of the local smoothness, falling by at most
# STEP_GROWTH per step after the round's first secant, which is not capped
# (theta_0 = +inf in Malitsky and Mishchenko, "Adaptive gradient descent
# without descent", ICML 2020).  The first secant's factor is SECANT_SAFETY.
# Later ones start at SECANT_SAFETY_FLOOR and double, up to SECANT_SAFETY, on
# each step that restarts the momentum: the overshoot a small factor risks.
# A constant factor 4 (or 2) stalls the bounding-sphere tail; floor 1.25
# loses the rate on gaussian 2000x50, and 1.75 or 2 keep less of the gain.
SECANT_SAFETY = 8.0
SECANT_SAFETY_FLOOR = 1.5
STEP_GROWTH = math.sqrt(2.0)
# Each round of ``run_rounds`` after the first targets the previous round's
# gap over this ratio, down to the last gap; after a relative-gap round, the
# smaller of its gap and the relative gap it proved.
ROUND_GAP_RATIO = 2.0

# Observers, called after each step t-1 -> t, progress first: the cheap trace
# hook ``progress(t, f_s(y_t), ||grad f_s(y_{t-1})||)``, and
# ``iterate_observer(t, x_t, y_t, f(y_t))``, f(y_t) the true max that the
# step's pass computed.
ProgressCallback = Callable[[int, float, float], None]
IterateObserver = Callable[[int, np.ndarray, np.ndarray, float], None]


@dataclass(frozen=True)
class OptimizerConfig:
    """``epsilon`` is the absolute gap the smoother and the a-priori count are
    built for; a solve is certified once its proven gap is below it."""

    epsilon: float
    x1: np.ndarray
    initial_distance_bound: float

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if not self.epsilon > 0:
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")
        if not self.initial_distance_bound > 0:
            raise ContractViolationError("initial_distance_bound must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``x_final`` is the evaluated point with the lowest true max ``f_final``;
    ``lower_bound`` is the best certified lower bound on f*, and
    ``gap_certificate`` bounds ``f_final - f*``.  ``stop_reason`` is
    ``"certified"`` (the bound proved the gap) or ``"planned"`` (the
    a-priori count ran out).
    """

    x_final: np.ndarray
    iterations_run: int
    planned_iterations: int
    s: float
    L_s: float
    U_s: float
    kappa_s: float
    g_s: float
    f_final: float
    gap_certificate: float
    lower_bound: float
    stop_reason: str


def smoother_for_gap(epsilon: float, n: int) -> float:
    """s = 2 log(n) / epsilon; 0 for n = 1 (degenerate, already smooth).

    Its smoothing regret, max - sum_i p_i f_i = (H(p) - log S) / s at any
    point, is at most log(n) / s = epsilon / 2.  For a softmax spread over k
    components, n = k gives the same budget (``plan_round``'s support)."""
    if not epsilon > 0 or n < 1:
        raise ContractViolationError("need epsilon > 0 and n >= 1")
    return 2.0 * math.log(n) / epsilon


def momentum_for(kappa_s: float) -> float:
    """The momentum 1 - 2 / (sqrt(kappa_s) + 1) of every step of a solve."""
    return 1.0 - 2.0 / (math.sqrt(kappa_s) + 1.0)


def agd_step(
    x: np.ndarray, y: np.ndarray, grad: np.ndarray, U_s: float, momentum: float
) -> tuple[np.ndarray, np.ndarray]:
    """One accelerated step from grad f_s(y): x' = y - grad / U_s and
    y' = x' + momentum (x' - x), both fresh arrays.  run_to_gap checks that
    the gradient is finite, and passes ``momentum_for(kappa_s)``."""
    x_next = y - grad / U_s
    return x_next, x_next + momentum * (x_next - x)


def lower_bound(value: float, slope_sq: float, curvature: float) -> float:
    """min_x of the quadratic model value + g . (x - a) + (curvature / 2) ||x - a||^2,
    which is value - ||g||^2 / (2 curvature), with slope_sq = ||g||^2.

    It bounds f* from below whenever the model lies below the max.  The pass
    at y gives such a model with value = sum_i p_i f_i(y), g = grad f_s(y)
    and curvature = sum_i p_i l_i: the p-weighted sum of the components is
    that strongly convex, has that gradient at y and never exceeds the max.
    So does any average of such models (``LowerModel``)."""
    return value - slope_sq / (2.0 * curvature)


class LowerModel:
    """The t-weighted average of the passes' lower models of the max.

    Pass t (x1 is pass 1) at y_t gives q_t(x) = mean_t + g_t . (x - y_t)
    + (mu_t / 2) ||x - y_t||^2 <= f(x), as in ``lower_bound``.  The average
    sum_t t q_t / sum_t t is the running mean with weight beta_t = 2 / (t + 1)
    on the newest model.  Unlike one pass's bound, it does not start over at
    each y: for bounding spheres its minimum is the Frank-Wolfe dual at the
    averaged softmax weights.  It is kept as the unnormalised sums (a scalar,
    a d-vector and a curvature) of a quadratic anchored at the latest y.
    Moving the anchor by delta = y_t - y_{t-1} adds slope . delta
    + (curvature / 2) ||delta||^2 to the value and curvature delta to the
    slope; delta is a difference of neighbouring iterates, so no term grows
    with how far the iterates have travelled from x1.
    """

    __slots__ = ("value", "slope", "curvature", "passes")

    def __init__(self, value: float, slope: np.ndarray, curvature: float):
        self.value, self.slope, self.curvature = value, slope.copy(), curvature
        self.passes = 1

    def add(self, delta: np.ndarray, delta_sq: float, value: float, slope: np.ndarray,
            curvature: float) -> None:
        """Move the anchor by ``delta``, of squared norm ``delta_sq``, and add
        the next pass's model there."""
        self.passes += 1
        t = self.passes
        self.value += float(self.slope.dot(delta)) + 0.5 * self.curvature * delta_sq
        self.value += t * value
        self.slope += self.curvature * delta
        self.slope += t * slope
        self.curvature += t * curvature

    def bound(self) -> float:
        """The minimum of the average: a lower bound on f*.  The weight
        sum_t t is an integer, so it is exact."""
        slope_sq = float(self.slope.dot(self.slope))
        weight = self.passes * (self.passes + 1) // 2
        return lower_bound(self.value, slope_sq, self.curvature) / weight


def gap_bound(t: int, L_s: float, kappa_s: float, distance: float, initial_gap: float) -> float:
    """Certified bound on f_s(x_t) - f_s(x*) after t - 1 accelerated steps."""
    if t < 1 or not L_s > 0 or not kappa_s >= 1 or distance < 0 or initial_gap < 0:
        raise ContractViolationError("gap_bound argument out of range")
    return (0.5 * L_s * distance ** 2 + initial_gap) * math.exp(-(t - 1) / math.sqrt(kappa_s))


def required_iterations_general(
    epsilon: float,
    n: int,
    G_s: float,
    L_s: float,
    U_tilde: float,
    distance: float,
) -> int:
    """Sufficient iteration count for an epsilon gap on the original max.

    t = 1 + sqrt((2/eps) G^2 log(n) / L + U~/L) * log((L D^2 + 2 G D)/eps),
    rounded up.  U~ is the pseudo-smoothness max_i u_i.  Returns 1 when
    n = 1 or when the log argument says the gap already holds at the start.
    """
    if not (epsilon > 0 and G_s > 0 and L_s > 0 and U_tilde > 0 and distance > 0):
        raise ContractViolationError("all arguments must be positive")
    if n < 1:
        raise ContractViolationError(f"need n >= 1, got {n}")
    if n == 1:
        return 1
    log_arg = (L_s * distance ** 2 + 2.0 * G_s * distance) / epsilon
    if log_arg <= 1.0:
        return 1
    root = math.sqrt(2.0 / epsilon * G_s ** 2 * math.log(n) / L_s + U_tilde / L_s)
    return math.ceil(1.0 + root * math.log(log_arg))


class Round(NamedTuple):
    """The scalars of one round of ``run_rounds``, as ``plan_round`` derives
    them.  ``params`` holds the paper's smoother s_n = 2 log(n) / epsilon,
    which the fixed sequence and the a-priori count use; ``s`` is s_n as
    reported (0 for n = 1, where any smoother is exact, and ``params`` only
    drives the passes).  ``support_s`` is the smoother the adaptive sequence
    may start at, sized by the support (``plan_round``); it equals
    ``params.s`` when the support is n.  ``L_s``, ``U_s`` and ``kappa_s`` are
    the bounds at s_n; at any smoother s the smoothness is s G_s^2 +
    ``max_smoothness``.  ``planned`` is the a-priori count, the round's cap.
    ``epsilon`` is the absolute gap.  With ``relative_epsilon`` set, the
    round is certified once f_best <= (1 + relative_epsilon)^2 lb_best
    instead of on the absolute gap: the stop for a nonnegative objective
    that is a squared radius.  ``distance`` is D.  ``strong_convexity``
    holds the l_i when they differ (None when uniform): each pass's model
    curvature is then sum_i p_i l_i, one n-dot, and L_s otherwise."""

    params: SmoothingParams
    s: float
    support_s: float
    L_s: float
    U_s: float
    kappa_s: float
    G_s: float
    max_smoothness: float
    planned: int
    epsilon: float
    relative_epsilon: float | None
    distance: float
    strong_convexity: np.ndarray | None


def plan_round(
    n: int,
    epsilon: float,
    distance: float,
    G_s: float,
    min_strong_convexity: float,
    max_smoothness: float,
    relative_epsilon: float | None = None,
    strong_convexity: np.ndarray | None = None,
    support: int | None = None,
) -> Round:
    """Pick the smoothers for the absolute gap ``epsilon`` and derive a
    round's constants.

    The paper's smoother s_n = 2 log(n) / epsilon splits the epsilon budget
    evenly between smoothing regret and optimization gap; both halves are
    baked into the a-priori iteration count, which caps the round.  The
    Hessian of f_s is s Cov_p(grad f_i) + E_p[hess f_i]
    (``core.smooth_hessian``), so L_s = min_i l_i and U_s = s G^2 + max_i
    u_i, with G^2 a bound on the top eigenvalue of Cov_p(grad f_i)
    (``DomainConstants``).  ``support`` is k, the number of components the
    optimum's softmax weights are expected to sit on (n when None): the
    adaptive sequence may start at 2 log(min(n, k)) / epsilon, whose regret
    budget covers a softmax spread over k components (``run_rounds`` raises
    it where the regret is seen).  ``strong_convexity``, the l_i when they
    differ, goes to the round as is.
    """
    if n == 1:
        # Already smooth: s = 0.  A pass over one component is exact at any
        # smoother (e = [1], S = 1), so params only drives it.
        s, params = 0.0, SmoothingParams(1.0)
        support_s = params.s
        L_s, U_s = min_strong_convexity, max_smoothness
    else:
        support = n if support is None else min(n, support)
        if support < 2:
            raise ContractViolationError(f"need a support of at least 2, got {support}")
        s = smoother_for_gap(epsilon, n)
        support_s = s if support == n else smoother_for_gap(epsilon, support)
        params = SmoothingParams(s)
        L_s, U_s = min_strong_convexity, s * G_s ** 2 + max_smoothness
    kappa_s = condition_number(L_s, U_s)

    planned = required_iterations_general(epsilon, n, G_s, L_s, max_smoothness, distance)
    if planned > MAX_PLANNED_ITERATIONS:
        raise ConfigurationError(
            f"planned iteration count {planned} exceeds {MAX_PLANNED_ITERATIONS}; "
            "relax epsilon or supply tighter constants"
        )
    return Round(params, s, support_s, L_s, U_s, kappa_s, G_s, max_smoothness, planned,
                 epsilon, relative_epsilon, distance, strong_convexity)


def run_rounds(
    family: ComponentFamily,
    x1: np.ndarray,
    plan: Callable[[float, list[SolveReport]], Round],
    first_gap: float,
    last_gap: float,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> list[SolveReport]:
    """The accelerated step loop: a sequence of rounds from x1, each stepping
    until its gap is certified or its steps run out.  The rounds run at the
    gaps ``first_gap``, then max(last_gap, g / ROUND_GAP_RATIO) until
    ``last_gap``; before each, ``plan(gap, reports)`` gives its ``Round``
    from the gap and the reports of the rounds so far.  What the gap means,
    absolute or relative, is the planner's.  After a round with an absolute
    gap, g is that gap, so round k targets first_gap / 2^k.  After a round
    with ``relative_epsilon`` set, g is the smaller of its gap and the
    relative gap its own passes proved, sqrt(f_best / lb_best) - 1 (at least
    0; the gap alone when lb_best <= 0): a round that proved more than it
    was asked for does not make the next one re-prove it.  Gaps only shrink
    and never pass ``last_gap``, so each round's cap and the last round's
    guarantee hold as planned, and each round certifies from its own passes.

    Each step makes one pass at the new y.  It gives the next gradient, the
    ``progress`` value, the true max at y, and that pass's lower model of the
    max (``lower_bound``), which also joins the round's running ``LowerModel``
    average.  A round's ``lb_best`` is the highest of both bounds over its
    passes, and ``f_best`` the lowest max of the solve, at ``x_best``.  After
    each step, the round stops once f_best - lb_best <= epsilon - CERTIFY_MARGIN
    M, or, with ``relative_epsilon`` set, once f_best - (1 +
    relative_epsilon)^2 lb_best <= -CERTIFY_MARGIN M, where M is the largest
    |max| among the round's passes, its start pass included.

    A round first runs an adaptive sequence of up to ``planned`` steps at a
    smoother s <= s_n = ``params.s``.  Round 0 starts at ``support_s``; each
    later round at max(``support_s``, r s_n), at most s_n, with r the ratio
    s / s_n the previous round ended at.  Below, U_s is the smoothness at the
    current s, s G_s^2 + ``max_smoothness``.  The sequence's
    first step is at 1/U_s; after the pass at y_t, U_t = min(U_s, max(L_s,
    c_t ||grad f_s(y_t) - grad f_s(y_{t-1})|| / ||y_t - y_{t-1}||,
    U_{t-1} / STEP_GROWTH)) from consecutive pass points (kept when they
    coincide), and the next step is x' = y - grad / U_t with momentum
    ``momentum_for(U_t / L_s)``.  The pass that ends the round's first step
    sets U_t at c_2 = SECANT_SAFETY without the U_{t-1} / STEP_GROWTH term, so
    the second step is at the first secant alone.  A step with
    grad f_s(y_{t-1}) . (x_t - x_{t-1}) > 0 restarts the momentum: its pass
    is at y_t = x_t.  The later factors c_t start at SECANT_SAFETY_FLOOR each
    round and double, up to SECANT_SAFETY, on each restart, from that
    restart's own secant on.  The bounds do not depend on the step sizes, so
    every pass still certifies.
    A pass of the adaptive sequence with s < s_n whose regret max - mean
    passes ``epsilon`` / 2 (the budget log(n) / s_n, ``smoother_for_gap``)
    raises the smoother: s becomes min(2 s, s_n), the pass's shifted values
    are rescaled and the pass redone from them (``shifted_pass``, no values
    evaluated), and everything after reads the redone pass.  The momentum
    then restarts at y (x_t = y_t), U_t scales by the raise, up to the new
    U_s, and the next secant is taken as a round's first one.  The model,
    ``lb_best``, ``f_best`` and ``x_best`` carry over.  At s = s_n, as on
    the generic path where the support is n, no raise can happen.
    If the adaptive sequence has not certified after ``planned`` steps, the
    round runs the fixed sequence (s_n, the a-priori ``U_s`` and
    ``momentum_for(kappa_s)``, no restart) from its start point for
    ``planned`` more steps.  Its first step reads the start pass's gradient,
    redone at s_n from the start's kept values when the round started below
    s_n; ``x_best``, ``f_best``, ``lb_best`` and the averaged
    model, anchored at the last pass point, carry over.  Its last step makes
    its pass at y_T = x_T, as a restart does, so x_T is a candidate; if that
    pass does not certify, the certificate is the smaller of the proven gap
    and the a-priori bound after ``planned`` steps.  A round that reaches its
    cap thus makes 2 ``planned`` passes, one per step.

    A new round restarts the momentum at ``x_best``.  Its first pass there
    evaluates no values: the shifted values s (f_i - f_best) kept from the
    pass that found ``x_best`` are rescaled to the round's starting s
    (``shifted_pass``).

    The observers see one step counter t across both sequences and the
    rounds, from 2 to the total steps + 1.  A round's report has the
    certificate min(max(0, f_best - lb_best), the a-priori bound), the
    smoother ``s`` the round ended at (s_n once the fallback ran; 0 at
    n = 1), and ``U_s`` and ``kappa_s`` at that smoother; every round's is
    returned, in order.
    """
    gap, reports, offset = first_gap, [], 0
    rnd = plan(gap, reports)
    s = rnd.support_s  # the smoother of the passes
    params = SmoothingParams(s)
    weights = np.empty(family.n)  # the exp buffer of every pass
    x_best = family.check_point(x1)  # later passes read agd_step's arrays
    _, grad, _, total, f_best, mean_value, shifted_best = smooth_pass(
        family, params, x_best, out=weights)
    s_best = s  # the smoother shifted_best is scaled by
    while True:
        s_n, L_s, cap = rnd.params.s, rnd.L_s, rnd.planned
        strong_convexity = rnd.strong_convexity

        def smoothness(s):  # U_s at the smoother s
            return rnd.U_s if s == s_n else s * rnd.G_s ** 2 + rnd.max_smoothness

        if rnd.relative_epsilon is None:
            lb_scale, target = 1.0, rnd.epsilon
        else:
            lb_scale, target = (1.0 + rnd.relative_epsilon) ** 2, 0.0
        regret_budget = 0.5 * rnd.epsilon
        x = y = anchor = start = x_best
        start_s, start_shifted, start_max = s, shifted_best, f_best
        grad_sq = float(grad.dot(grad))
        start_grad, start_grad_sq = grad, grad_sq
        curvature = L_s
        if strong_convexity is not None:
            curvature = float(weights.dot(strong_convexity)) / total
        model = LowerModel(mean_value, grad, curvature)
        lb_best = lower_bound(mean_value, grad_sq, curvature)
        U_s = smoothness(s)
        U_t, momentum, adaptive = U_s, momentum_for(U_s / L_s), True
        scale = abs(f_best)  # the largest |max| among the round's passes
        factor = SECANT_SAFETY_FLOOR  # the secant factor after the first
        first_secant = 2  # the step whose secant is not growth-capped
        last = 2 * cap + 1
        for t in range(2, last + 1):  # step t - 1 -> t of this round
            if t == cap + 2:  # the fixed sequence at s_n, from the round's start
                x = y = start
                grad, grad_sq = start_grad, start_grad_sq
                if start_s != s_n:
                    grad = shifted_pass(family, rnd.params, start,
                                        start_shifted * (s_n / start_s), start_max,
                                        out=weights)[1]
                    grad_sq = float(grad.dot(grad))
                s, params, U_s = s_n, rnd.params, rnd.U_s
                U_t, momentum, adaptive = U_s, momentum_for(rnd.kappa_s), False
            # A finite grad . grad proves a finite gradient; only a non-finite
            # one (which an overflow of finite entries can also give) scans it.
            if not math.isfinite(grad_sq) and not np.isfinite(grad).all():
                raise DivergenceError(f"non-finite gradient at iteration {t - 1 + offset}",
                                      iterate=y)
            grad_at_y, grad_sq_at_y, x_previous = grad, grad_sq, x
            x, y = agd_step(x, y, grad_at_y, U_t, momentum)
            # The fixed sequence's last pass is at x_T, a candidate that the
            # a-priori bound covers; y_T would look ahead to a step not taken.
            if t == last:
                y = x
            elif adaptive and float(grad_at_y.dot(x - x_previous)) > 0.0:
                y = x
                factor = min(SECANT_SAFETY, 2.0 * factor)
            value, grad, _, total, max_value, mean_value, shifted = smooth_pass(
                family, params, y, out=weights)
            raise_by = 1.0
            if s < s_n and max_value - mean_value > regret_budget:
                # The smoothing costs more than its budget here: redo the
                # pass from its own values at a doubled smoother.
                raised = min(2.0 * s, s_n)
                raise_by, s = raised / s, raised
                params, U_s = SmoothingParams(s), smoothness(s)
                shifted *= raise_by
                value, grad, _, total, _, mean_value, _ = shifted_pass(
                    family, params, y, shifted, max_value, out=weights)
            if progress is not None:
                progress(t + offset, value, math.sqrt(grad_sq_at_y))
            if iterate_observer is not None:
                iterate_observer(t + offset, x, y, max_value)
            grad_sq = float(grad.dot(grad))
            if strong_convexity is not None:
                curvature = float(weights.dot(strong_convexity)) / total
            delta = y - anchor
            delta_sq = float(delta.dot(delta))
            model.add(delta, delta_sq, mean_value, grad, curvature)
            lb_best = max(lb_best, lower_bound(mean_value, grad_sq, curvature), model.bound())
            if raise_by != 1.0:
                # The gradients on either side of a raise are of different
                # smoothers, so no secant: the momentum restarts at y and
                # the step scales with the smoother.
                x = y
                U_t = min(U_s, raise_by * U_t)
                momentum = momentum_for(U_t / L_s)
                first_secant = t + 1
            elif adaptive and delta_sq > 0.0:
                change = grad - grad_at_y
                secant = math.sqrt(float(change.dot(change)) / delta_sq)
                # A round's first secant keeps SECANT_SAFETY and is not
                # growth-capped (theta_0 = +inf).
                if t == first_secant:
                    U_t = min(U_s, max(L_s, SECANT_SAFETY * secant))
                else:
                    U_t = min(U_s, max(L_s, factor * secant, U_t / STEP_GROWTH))
                momentum = momentum_for(U_t / L_s)
            anchor = y
            scale = max(scale, abs(max_value))
            if max_value < f_best:
                x_best, f_best, shifted_best, s_best = y, max_value, shifted, s
            if f_best - lb_scale * lb_best <= target - CERTIFY_MARGIN * scale:
                stop_reason, a_priori = "certified", math.inf
                break
        else:
            stop_reason = "planned"
            # The smoothing regret log(n) / s_n, 0 at n = 1.
            a_priori = gap_bound(cap, L_s, rnd.kappa_s, rnd.distance,
                                 rnd.G_s * rnd.distance) + math.log(family.n) / s_n
        report = SolveReport(
            x_final=x_best,
            iterations_run=t - 1,
            planned_iterations=rnd.planned,
            s=s if rnd.s else 0.0,
            L_s=L_s,
            U_s=U_s,
            kappa_s=condition_number(L_s, U_s),
            g_s=rnd.G_s,
            f_final=f_best,
            gap_certificate=min(max(0.0, f_best - lb_best), a_priori),
            lower_bound=lb_best,
            stop_reason=stop_reason,
        )
        reports.append(report)
        if gap <= last_gap:
            return reports
        if rnd.relative_epsilon is not None and lb_best > 0.0:
            gap = min(gap, max(0.0, math.sqrt(f_best / lb_best) - 1.0))
        gap, offset = max(last_gap, gap / ROUND_GAP_RATIO), offset + report.iterations_run
        ratio = s / s_n
        rnd = plan(gap, reports)
        s = min(rnd.params.s, max(rnd.support_s, ratio * rnd.params.s))
        params = SmoothingParams(s)
        shifted_best *= s / s_best
        s_best = s
        _, grad, _, total, _, mean_value, _ = shifted_pass(
            family, params, x_best, shifted_best, f_best, out=weights)


def _plan(n: int, constants: DomainConstants, config: OptimizerConfig,
          epsilon: float) -> Round:
    """``plan_round`` for ``constants`` and ``config`` at the absolute gap
    ``epsilon``, with a support of n: a generic family's optimum may sit on
    every component, so its rounds keep the paper's smoother s_n."""
    strong = None
    if not constants.uniform_strong_convexity:
        strong = constants.per_component_strong_convexity
    return plan_round(n, epsilon, config.initial_distance_bound, constants.gradient_norm_bound,
                      constants.min_strong_convexity, constants.max_smoothness,
                      strong_convexity=strong, support=n)


def run_to_gap(
    family: ComponentFamily,
    constants: DomainConstants,
    config: OptimizerConfig,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> SolveReport:
    """Full smoothed solve: pick s, derive constants (``plan_round``), step
    until the gap is certified (``run_rounds``, one round)."""
    [report] = run_rounds(family, config.x1,
                          lambda gap, reports: _plan(family.n, constants, config, gap),
                          config.epsilon, config.epsilon, progress, iterate_observer)
    return report


def run_online(
    family: ComponentFamily,
    constants_provider: Callable[[float], DomainConstants],
    epsilon_0: float,
    rounds: int,
    config: OptimizerConfig,
    progress: ProgressCallback | None = None,
) -> list[SolveReport]:
    """Epsilon-halving restarts: round k targets epsilon_0 / 2^k under
    ``constants_provider(epsilon_0 / 2^k)``, and ``config`` gives the rest
    (its ``epsilon`` is not read).  One ``run_rounds`` loop from
    ``config.x1``: each round restarts the momentum at the best point so
    far, the previous round's ``x_final``; the caller's distance bound is
    kept, which remains valid under warm starts.  Returns the report of
    each round; ``progress`` sees one step counter across the rounds.
    """
    if not epsilon_0 > 0 or rounds < 1:
        raise ContractViolationError("need epsilon_0 > 0 and rounds >= 1")
    return run_rounds(family, config.x1,
                      lambda gap, reports: _plan(family.n, constants_provider(gap), config, gap),
                      epsilon_0, math.ldexp(epsilon_0, 1 - rounds), progress)

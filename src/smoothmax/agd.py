"""Accelerated gradient descent on the smoothed max objective.

Implements the update pair

    x_{t+1} = y_t - (1/U_s) grad f_s(y_t)
    y_{t+1} = x_{t+1} + (1 - 2/(sqrt(kappa_s) + 1)) (x_{t+1} - x_t)

together with the smoother selection s = 2 log(n) / epsilon, the
closed-form sufficient iteration count (the cap of each solve), the lower
bound on the optimum that stops a solve once it certifies the gap, and the
online epsilon-halving scheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (  # smooth_gradient and smooth_value stay importable from here
    component_values,
    condition_number,
    hessian_eig_bounds,
    smooth_gradient,
    smooth_pass,
    smooth_value,
)
from .errors import ConfigurationError, ContractViolationError, DivergenceError
from .families import ComponentFamily, DomainConstants, SmoothingParams

MAX_PLANNED_ITERATIONS = 2 ** 31
# A solve is certified once f_best - lb_best <= epsilon - CERTIFY_MARGIN |f_best|;
# the margin keeps roundoff in the bound from certifying a gap just above eps.
CERTIFY_MARGIN = 1e-12

# Observers, called after each step t-1 -> t, progress first: the cheap trace
# hook ``progress(t, f_s(y_t), ||grad f_s(y_{t-1})||)``, and
# ``iterate_observer(state, grad f_s(y_{t-1}))``, which sees the iterate pair.
ProgressCallback = Callable[[int, float, float], None]
IterateObserver = Callable[["OptimizerState", np.ndarray], None]


@dataclass(frozen=True)
class OptimizerConfig:
    epsilon: float
    x1: np.ndarray
    initial_distance_bound: float
    max_iterations_override: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if not self.epsilon > 0:
            raise ContractViolationError(f"epsilon must be positive, got {self.epsilon}")
        if not self.initial_distance_bound > 0:
            raise ContractViolationError("initial_distance_bound must be positive")
        if self.max_iterations_override is not None and self.max_iterations_override < 1:
            raise ContractViolationError("max_iterations_override must be >= 1")


@dataclass(frozen=True)
class OptimizerState:
    """Iterate pair (x_t, y_t) and the counter t."""

    x_current: np.ndarray
    y_current: np.ndarray
    t: int


def initial_state(x1: np.ndarray) -> OptimizerState:
    x1 = np.asarray(x1, dtype=float)
    return OptimizerState(x_current=x1, y_current=x1, t=1)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve.

    ``x_final`` is the evaluated point with the lowest true max ``f_final``;
    ``lower_bound`` is the best certified lower bound on f*, and
    ``gap_certificate`` bounds ``f_final - f*``.  ``stop_reason`` is
    ``"certified"`` (the bound proved the gap), ``"planned"`` (the a-priori
    count ran out) or ``"override"`` (``max_iterations_override`` ran out
    below the a-priori count).
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
    """s = 2 log(n) / epsilon; 0 for n = 1 (degenerate, already smooth)."""
    if not epsilon > 0 or n < 1:
        raise ContractViolationError("need epsilon > 0 and n >= 1")
    return 2.0 * math.log(n) / epsilon


def agd_step(
    state: OptimizerState, grad: np.ndarray, U_s: float, kappa_s: float
) -> OptimizerState:
    """One accelerated step from grad f_s(y_t), which must be finite (else
    DivergenceError).  run_to_gap checks U_s > 0 and kappa_s >= 1 once."""
    if not np.isfinite(grad).all():
        raise DivergenceError(
            f"non-finite gradient at iteration {state.t}", iterate=state.y_current
        )
    x_next = state.y_current - grad / U_s
    momentum = 1.0 - 2.0 / (math.sqrt(kappa_s) + 1.0)
    y_next = x_next + momentum * (x_next - state.x_current)
    return OptimizerState(x_current=x_next, y_current=y_next, t=state.t + 1)


def lower_bound(mean_value: float, grad: np.ndarray, L_s: float) -> float:
    """f* >= sum_i p_i f_i(y) - ||grad f_s(y)||^2 / (2 L_s) for any p in the
    simplex: the p-weighted sum is L_s-strongly convex, its gradient at y is
    grad f_s(y), and it never exceeds the max."""
    return mean_value - float(grad.dot(grad)) / (2.0 * L_s)


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


def run_to_gap(
    family: ComponentFamily,
    constants: DomainConstants,
    config: OptimizerConfig,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> SolveReport:
    """Full smoothed solve: pick s, derive constants, step until the gap
    is certified.

    The epsilon budget is split evenly between smoothing regret and
    optimization gap; both halves are baked into the a-priori iteration
    count, which caps the run (as does a smaller ``max_iterations_override``).
    Each step makes one pass at the new y.  It gives the next gradient, the
    ``progress`` value, the true max at y and the lower bound on f* of
    ``lower_bound``.  After each step, the solve stops once the lowest max
    minus the highest bound, over x1 and every y so far, is at most epsilon
    (less CERTIFY_MARGIN).  At the cap, one values pass at x_T adds it as a
    candidate, and the certificate is the smaller of the proven gap and the
    a-priori bound.
    """
    n = family.n
    distance = config.initial_distance_bound
    G_s = constants.gradient_norm_bound

    if n == 1:
        # Already smooth: s = 0, zero regret.  A pass over one component is
        # exact at any smoother (e = [1], S = 1), so params only drives it.
        s, regret, params = 0.0, 0.0, SmoothingParams(1.0)
        L_s, U_s = constants.min_strong_convexity, constants.max_smoothness
    else:
        s = smoother_for_gap(config.epsilon, n)
        params = SmoothingParams(s)
        L_s, U_s = hessian_eig_bounds(constants, params)
        regret = math.log(n) / s  # == epsilon / 2 by choice of s
    kappa_s = condition_number(L_s, U_s)

    planned = required_iterations_general(
        config.epsilon, n, G_s, L_s, constants.max_smoothness, distance
    )
    if planned > MAX_PLANNED_ITERATIONS:
        raise ConfigurationError(
            f"planned iteration count {planned} exceeds {MAX_PLANNED_ITERATIONS}; "
            "relax epsilon or supply tighter constants"
        )
    iterations = planned
    if config.max_iterations_override is not None:
        iterations = min(iterations, config.max_iterations_override)

    state = initial_state(config.x1)
    weights = np.empty(n)  # the exp buffer of every pass
    _, grad, _, _, _, f_best, mean_value = smooth_pass(
        family, params, state.y_current, out=weights
    )
    x_best, lb_best = state.y_current, lower_bound(mean_value, grad, L_s)
    for _ in range(iterations):
        grad_at_y = grad
        state = agd_step(state, grad_at_y, U_s, kappa_s)
        value, grad, _, _, _, max_value, mean_value = smooth_pass(
            family, params, state.y_current, out=weights
        )
        if progress is not None:
            progress(state.t, value, float(np.linalg.norm(grad_at_y)))
        if iterate_observer is not None:
            iterate_observer(state, grad_at_y)
        lb_best = max(lb_best, lower_bound(mean_value, grad, L_s))
        if max_value < f_best:
            x_best, f_best = state.y_current, max_value
        if f_best - lb_best <= config.epsilon - CERTIFY_MARGIN * abs(f_best):
            stop_reason, a_priori = "certified", math.inf
            break
    else:
        stop_reason = "planned" if iterations == planned else "override"
        # x_T is a candidate, so the a-priori bound covers x_final too.
        # Finite: component_values raises on nan or +inf.
        values, top = component_values(family, state.x_current)
        if values[top] < f_best:
            x_best, f_best = state.x_current, float(values[top])
        a_priori = gap_bound(iterations, L_s, kappa_s, distance, G_s * distance) + regret
    certificate = min(max(0.0, f_best - lb_best), a_priori)
    return SolveReport(
        x_final=x_best,
        iterations_run=state.t - 1,
        planned_iterations=planned,
        s=s,
        L_s=L_s,
        U_s=U_s,
        kappa_s=kappa_s,
        g_s=G_s,
        f_final=f_best,
        gap_certificate=certificate,
        lower_bound=lb_best,
        stop_reason=stop_reason,
    )


def run_online(
    family: ComponentFamily,
    constants_provider: Callable[[float], DomainConstants],
    epsilon_0: float,
    rounds: int,
    config: OptimizerConfig,
    progress: ProgressCallback | None = None,
    iterate_observer: IterateObserver | None = None,
) -> list[SolveReport]:
    """Epsilon-halving restarts: round k targets epsilon_0 / 2^k.

    Each round warm-starts from the previous round's final iterate; the
    caller's distance bound is kept, which remains valid under warm starts.
    """
    if not epsilon_0 > 0 or rounds < 1:
        raise ContractViolationError("need epsilon_0 > 0 and rounds >= 1")
    reports: list[SolveReport] = []
    x_start = config.x1
    for k in range(rounds):
        eps_k = epsilon_0 / 2 ** k
        round_config = replace(config, epsilon=eps_k, x1=x_start)
        report = run_to_gap(
            family,
            constants_provider(eps_k),
            round_config,
            progress=progress,
            iterate_observer=iterate_observer,
        )
        reports.append(report)
        x_start = report.x_final
    return reports

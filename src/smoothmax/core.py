"""Numerically stable LogSumExp smooth maximum and its derivatives.

All exponentials are taken after subtracting the running maximum of the
component values; exp(s * f_i(x)) is never formed directly, so no
exponential overflows.  The shifted values s (f_i(x) - m) themselves
overflow to -inf, with NumPy's overflow warning, once s times the spread of
the values passes the largest double (~1.8e308).  The weights floor at
``EXP_FLOOR``, so the value and the gradient hold there, but the pass's
softmax-weighted mean, a lower bound, is then -inf.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError, ContractViolationError
from .families import ComponentFamily, SmoothingParams


# Shifted exponents are floored here: exp(-700) ~ 1e-304 is a normal double
# that cannot move a sum whose largest term is 1, while underflowing and
# subnormal weights slow both exp and the gradient GEMV many times over.
EXP_FLOOR = -700.0


def component_values(family: ComponentFamily, x: np.ndarray) -> tuple[np.ndarray, int]:
    """All f_i(x) at a checked point (float, shape (dim,)) in an array the
    caller owns, and the index of the largest (lowest on ties).  Raises on
    nan or +inf, which the max propagates; only a failure scans for the index."""
    values = np.asarray(family.values_at(x), dtype=float)
    max_index = int(values.argmax())
    if not math.isfinite(values[max_index]):
        bad = int(np.argmax(~np.isfinite(values)))
        raise EvaluationError(
            f"component {bad} evaluated to a non-finite value at x={x!r}", index=bad
        )
    return values, max_index


def smooth_pass(
    family: ComponentFamily,
    params: SmoothingParams,
    x: np.ndarray,
    gradient: bool = True,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None, np.ndarray, float, float, float, np.ndarray]:
    """The one evaluation pass every smoothed quantity at x is read from.

    values -> max m -> shifted values s (f_i(x) - m) -> ``shifted_pass``.

    ``x`` must be a float array of shape (dim,), as ``family.check_point``
    returns; the public wrappers check it, and run_rounds checks x1 once.
    Returns ``(value, gradient, e, S, max_value, mean_value, shifted)``, as
    ``shifted_pass`` does.
    """
    shifted, max_index = component_values(family, x)
    max_value = float(shifted[max_index])
    shifted -= max_value
    shifted *= params.s
    return shifted_pass(family, params, x, shifted, max_value, gradient, out)


def shifted_pass(
    family: ComponentFamily,
    params: SmoothingParams,
    x: np.ndarray,
    shifted: np.ndarray,
    max_value: float,
    gradient: bool = True,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray | None, np.ndarray, float, float, float, np.ndarray]:
    """A pass from the shifted values ``shifted`` = s (f_i(x) - m), with m =
    ``max_value`` the max at x, on: no values are evaluated, so values kept
    from an earlier pass at x, rescaled to a new s, give that smoother's
    pass at x.

    e_i = exp(max(shifted_i, EXP_FLOOR)), written to ``out`` (shape (n,); a
    new array when None) -> S = sum_i e_i -> grad f_s(x) =
    combined_gradient(x, e) / S (skipped when ``gradient`` is false) ->
    f_s(x) = m + log(S) / s, and the softmax-weighted mean
    sum_i p_i f_i(x) = m + e . shifted / (s S), taken from the unfloored
    exponents.  Returns ``(value, gradient, e, S, max_value, mean_value,
    shifted)``; the softmax weights are e / S.
    """
    weights = np.maximum(shifted, EXP_FLOOR, out=out)
    np.exp(weights, out=weights)
    total = float(np.add.reduce(weights))  # weights.sum() less its Python wrapper
    grad = family.combined_gradient(x, weights) / total if gradient else None
    value = max_value + math.log(total) / params.s
    # The products e_i s (f_i - m) stay normal doubles, as a floored e_i
    # meets |s (f_i - m)| >= 700; e_i (f_i - m) can be subnormal at large s.
    mean_value = max_value + float(weights.dot(shifted)) / (params.s * total)
    return value, grad, weights, total, max_value, mean_value, shifted


def smooth_value(family: ComponentFamily, params: SmoothingParams, x: np.ndarray) -> float:
    """f_s(x) = m + (1/s) log sum_i exp(s (f_i(x) - m)), m = max_i f_i(x)."""
    return smooth_pass(family, params, family.check_point(x), gradient=False)[0]


def softmax_weights(family: ComponentFamily, params: SmoothingParams, x: np.ndarray) -> np.ndarray:
    """Probability vector p_s(x); entries in (0, 1], sum 1 (tiny entries sit
    at the exp(EXP_FLOOR) / S floor)."""
    weights, total = smooth_pass(family, params, family.check_point(x), gradient=False)[2:4]
    weights /= total
    return weights


def smooth_gradient(family: ComponentFamily, params: SmoothingParams, x: np.ndarray) -> np.ndarray:
    """sum_i p_{s,i}(x) grad f_i(x), computed in one pass over the weights."""
    return smooth_pass(family, params, family.check_point(x))[1]


def smooth_hessian(family: ComponentFamily, params: SmoothingParams, x: np.ndarray) -> np.ndarray:
    """s * Cov_p(grad f_i) + E_p[hess f_i]; verification-grade path.

    Requires the family's verification capability (``gradients_at`` and
    ``combined_hessian``, which gives E_p[hess f_i] in one call).  The
    covariance is E_p[g g^T] - E_p[g] E_p[g]^T over the softmax weights.
    """
    x = family.check_point(x)
    weights = softmax_weights(family, params, x)
    grads = family.gradients_at(x)
    mean_grad = weights @ grads
    second_moment = (grads * weights[:, None]).T @ grads
    cov = second_moment - np.outer(mean_grad, mean_grad)
    hess = params.s * cov + family.combined_hessian(x, weights)
    return 0.5 * (hess + hess.T)  # symmetrize away roundoff


def condition_number(L_s: float, U_s: float) -> float:
    """U_s / L_s, the condition number driving the accelerated rate."""
    if not (0 < L_s <= U_s):
        raise ContractViolationError(f"need 0 < L_s <= U_s, got L_s={L_s}, U_s={U_s}")
    return U_s / L_s

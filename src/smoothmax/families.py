"""Component families: the finite collections {f_i} whose max we smooth.

The solver reads a family only through two batch hooks, ``values_at`` and
``combined_gradient``; see ``ComponentFamily``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, DimensionMismatchError, UnsupportedCapabilityError


class ComponentFamily(ABC):
    """Finite family of twice-differentiable components f_1 .. f_n over R^dim.

    The abstract contract is the two batch hooks, one per side of the
    LogSumExp smoothing: every f_i(x) for the max, and the weighted gradient
    sum.  Both must be pure.  ``gradients_at`` and ``combined_hessian``, an
    optional verification capability needed only by ``core.smooth_hessian``,
    are batch hooks too; unless overridden they raise
    ``UnsupportedCapabilityError``.
    """

    n: int
    dim: int

    @abstractmethod
    def values_at(self, x: np.ndarray) -> np.ndarray:
        """All component values at x, shape (n,), entry i = f_i(x), in a new
        array the caller may overwrite."""

    @abstractmethod
    def combined_gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_i weights[i] grad f_i(x), shape (dim,), for any weights (not
        only a probability vector); linear in the weights."""

    def gradients_at(self, x: np.ndarray) -> np.ndarray:
        """All component gradients at x, stacked as rows, shape (n, dim)."""
        raise UnsupportedCapabilityError(
            f"{type(self).__name__} does not expose component gradients"
        )

    def combined_hessian(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_i weights[i] hess f_i(x), shape (dim, dim), for any weights."""
        raise UnsupportedCapabilityError(
            f"{type(self).__name__} does not expose component Hessians"
        )

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point has shape {x.shape}, family dimension is {self.dim}"
            )
        return x


@dataclass(frozen=True)
class DomainConstants:
    """Curvature and gradient bounds valid on the working set of the solve.

    ``per_component_strong_convexity[i]`` and ``per_component_smoothness[i]``
    bracket the eigenvalues of the i-th component Hessian.  The gradient
    bound G has two jobs: G^2 bounds the spread of the component gradients,
    lambda_max(Cov_p(grad f_i(x))) for every probability vector p and every
    x of the working set, which sets the smoothness U_s = s G^2 + max_i u_i;
    and G bounds ||grad f_s|| at the start point, which bounds the initial
    gap by G D.  A bound on every ||grad f_i|| over the working set does
    both.  Generic callers assert their own constants; the bounding-sphere
    module derives them analytically.

    ``min_strong_convexity``, ``max_smoothness`` and
    ``uniform_strong_convexity`` (every l_i equal) are taken once, on
    construction.
    """

    per_component_strong_convexity: np.ndarray
    per_component_smoothness: np.ndarray
    gradient_norm_bound: float
    min_strong_convexity: float = field(init=False, repr=False)
    max_smoothness: float = field(init=False, repr=False)
    uniform_strong_convexity: bool = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.asarray(self.per_component_strong_convexity, dtype=float)
        hi = np.asarray(self.per_component_smoothness, dtype=float)
        object.__setattr__(self, "per_component_strong_convexity", lo)
        object.__setattr__(self, "per_component_smoothness", hi)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DimensionMismatchError("constant vectors must be 1-D and of equal length")
        if not (np.all(lo > 0) and np.all(lo <= hi)):
            raise ContractViolationError("need 0 < strong_convexity[i] <= smoothness[i], all i")
        object.__setattr__(self, "min_strong_convexity", float(lo.min()))
        object.__setattr__(self, "max_smoothness", float(hi.max()))
        object.__setattr__(self, "uniform_strong_convexity", bool(lo.max() == lo.min()))
        if not self.gradient_norm_bound > 0:
            raise ContractViolationError("gradient_norm_bound must be positive")

    @staticmethod
    def uniform(n: int, strong_convexity: float, smoothness: float,
                gradient_norm_bound: float) -> "DomainConstants":
        return DomainConstants(
            np.full(n, float(strong_convexity)),
            np.full(n, float(smoothness)),
            float(gradient_norm_bound),
        )


@dataclass(frozen=True)
class SmoothingParams:
    """The sharpness parameter of the LogSumExp smooth maximum."""

    s: float

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise ContractViolationError(f"smoother must be positive and finite, got {self.s}")

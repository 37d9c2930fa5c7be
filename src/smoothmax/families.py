"""Component families: the finite collections {f_i} whose max we smooth.

A family exposes per-component values and gradients (Hessians optionally).
Batch hooks (``values_at``, ``gradients_at``, ``combined_gradient``) have
loop-based defaults; concrete families override them with vectorized
versions when the structure allows (see ``meb.BoundingSphereFamily``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, UnsupportedCapabilityError


class ComponentFamily(ABC):
    """Finite family of twice-differentiable components f_1 .. f_n over R^dim.

    ``value_at`` and ``gradient_at`` must be pure: identical inputs yield
    identical outputs.  ``hessian_at`` is an optional capability needed only
    by verification paths; families without it raise
    ``UnsupportedCapabilityError``.
    """

    n: int
    dim: int

    @abstractmethod
    def value_at(self, i: int, x: np.ndarray) -> float:
        ...

    @abstractmethod
    def gradient_at(self, i: int, x: np.ndarray) -> np.ndarray:
        ...

    @property
    def has_hessian(self) -> bool:
        return False

    def hessian_at(self, i: int, x: np.ndarray) -> np.ndarray:
        raise UnsupportedCapabilityError(
            f"{type(self).__name__} does not expose component Hessians"
        )

    # --- batch hooks -----------------------------------------------------

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """All component values at x, shape (n,), in a new array the caller
        may overwrite. Sequential order by index."""
        return np.array([self.value_at(i, x) for i in range(self.n)], dtype=float)

    def gradients_at(self, x: np.ndarray) -> np.ndarray:
        """All component gradients at x, stacked as rows, shape (n, dim)."""
        return np.stack([self.gradient_at(i, x) for i in range(self.n)])

    def combined_gradient(self, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Weighted sum of component gradients (any weights, not only a
        probability vector), fixed index order."""
        out = np.zeros(self.dim)
        for i in range(self.n):
            out += weights[i] * self.gradient_at(i, x)
        return out

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
    bracket the eigenvalues of the i-th component Hessian; the gradient norm
    bound is common to all components.  Generic callers assert their own
    constants; the bounding-sphere module derives them analytically.
    """

    per_component_strong_convexity: np.ndarray
    per_component_smoothness: np.ndarray
    gradient_norm_bound: float

    def __post_init__(self):
        lo = np.asarray(self.per_component_strong_convexity, dtype=float)
        hi = np.asarray(self.per_component_smoothness, dtype=float)
        object.__setattr__(self, "per_component_strong_convexity", lo)
        object.__setattr__(self, "per_component_smoothness", hi)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise DimensionMismatchError("constant vectors must be 1-D and of equal length")
        if not (np.all(lo > 0) and np.all(lo <= hi)):
            raise ValueError("need 0 < strong_convexity[i] <= smoothness[i] for every i")
        if not self.gradient_norm_bound > 0:
            raise ValueError("gradient_norm_bound must be positive")

    @property
    def min_strong_convexity(self) -> float:
        return float(np.min(self.per_component_strong_convexity))

    @property
    def max_smoothness(self) -> float:
        """The pseudo-smoothness bound: max over component smoothness."""
        return float(np.max(self.per_component_smoothness))

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
        if not self.s > 0:
            raise ValueError(f"smoother must be positive, got {self.s}")

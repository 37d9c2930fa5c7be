"""Both (1+eps) solvers on clouds whose minimal radius is known in closed
form, rotated and offset by 1e6, in dimensions the exact oracle refuses.

The core set's picks fit in its d + 1 cached columns on all three: the
simplex has n = d points, and on the cross-polytope, alone or with points
inside the ball, the core set settles on an antipodal pair (3 cached columns
and no recompute at d = 13-300).  The recompute path, where a new pick finds
the cache full, is covered on sphere clouds in test_baselines.py."""

import math

import numpy as np
import pytest

from smoothmax import MebConfig, badoiu_clarkson, solve_meb
from smoothmax.testkit import _rotated, cross_polytope, regular_simplex

ROUNDING = 1e-9  # relative slack for a 1e6 offset at d <= 300


@pytest.fixture(params=[13, 50, 300], ids=lambda d: f"d{d}")
def dim(request):
    return request.param


def ball_with_axes(dim: int):
    """The points +-e_i of R^dim and 1000 points drawn uniformly inside the
    ball of radius 0.9, rotated and offset by 1e6: the unit ball about the
    offset holds them all, and the antipodal pairs force R = 1."""
    rng = np.random.default_rng(dim)
    directions = rng.standard_normal((1000, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 0.9 * rng.random((1000, 1)) ** (1.0 / dim)
    eye = np.eye(dim)
    return _rotated(np.concatenate([eye, -eye, radii * directions]), dim, 1e6), 1.0


@pytest.fixture(params=["simplex", "cross_polytope", "ball_with_axes"])
def known(request, dim):
    if request.param == "simplex":
        return regular_simplex(dim, dim)
    if request.param == "cross_polytope":
        return cross_polytope(dim, dim)
    return ball_with_axes(dim)


def farthest(cloud, result) -> float:
    diffs = cloud.points - result.center
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.01, 0.001])
def test_core_set(known, eps):
    cloud, radius = known
    result = badoiu_clarkson(cloud, eps)
    # The core set takes its radius on these raw coordinates.
    assert farthest(cloud, result) == result.radius
    assert result.radius <= (1.0 + eps) * radius * (1.0 + ROUNDING)
    # Its dual bounds R from below, and a run that stops short of its cap
    # has proved its (1+eps).
    assert result.certified_radius_lower <= radius * (1.0 + ROUNDING)
    assert result.certified_ratio == result.radius / result.certified_radius_lower
    if result.iterations < result.planned_iterations:
        assert result.certified_ratio <= 1.0 + eps


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_smooth_solver(known, eps):
    cloud, radius = known
    result = solve_meb(cloud, MebConfig(eps))
    assert farthest(cloud, result) <= result.radius * (1.0 + ROUNDING)
    assert result.radius <= (1.0 + eps) * radius * (1.0 + ROUNDING)
    assert result.certified_radius_lower <= radius * (1.0 + ROUNDING)

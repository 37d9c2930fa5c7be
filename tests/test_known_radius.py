"""Both (1+eps) solvers on clouds whose minimal radius is known in closed
form, rotated and offset by 1e6, in dimensions the exact oracle refuses.

The core set's picks fit in its d + 1 cached columns on both: the simplex has
n = d points, and on the cross-polytope the core set settles on an antipodal
pair (3 distinct picks at d = 13-300).  The recompute path, where a new pick
finds the cache full, is covered on sphere clouds in test_baselines.py."""

import math

import numpy as np
import pytest

from smoothmax import MebConfig, badoiu_clarkson, solve_meb
from smoothmax.testkit import cross_polytope, regular_simplex

ROUNDING = 1e-9  # relative slack for a 1e6 offset at d <= 300


@pytest.fixture(params=[13, 50, 300], ids=lambda d: f"d{d}")
def dim(request):
    return request.param


@pytest.fixture(params=["simplex", "cross_polytope"])
def known(request, dim):
    if request.param == "simplex":
        return regular_simplex(dim, dim)
    return cross_polytope(dim, dim)


def farthest(cloud, result) -> float:
    diffs = cloud.points - result.center
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_core_set(known, eps):
    cloud, radius = known
    result = badoiu_clarkson(cloud, eps)
    # The core set takes its radius on these raw coordinates.
    assert farthest(cloud, result) == result.radius
    assert result.radius <= (1.0 + eps) * radius * (1.0 + ROUNDING)


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_smooth_solver(known, eps):
    cloud, radius = known
    result = solve_meb(cloud, MebConfig(eps))
    assert farthest(cloud, result) <= result.radius * (1.0 + ROUNDING)
    assert result.radius <= (1.0 + eps) * radius * (1.0 + ROUNDING)
    assert result.certified_radius_lower <= radius * (1.0 + ROUNDING)

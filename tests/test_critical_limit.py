"""The k -> infinity limit of the critical rates, measured.

The paper's second claim is that the critical error-free rate ``p_c(k)`` of
k-step descent majority tends to the Ising point ``1/r`` (Lyons, Comm. Math.
Phys. 1989).  For small ``mu/sigma`` the central-limit form of the corrected
channel gives the rate, ``p_c(k)*r = 1 + L_r/k + O(1/k**2)`` with
``L_r = log(pi*(1 + 1/r)/2) / 2``.  Over the ranges that the default support
budget reaches, ``k*(p_c(k)*r - 1)`` falls towards ``L_r`` from above (at
r=2 from 0.4876 at k=5 to 0.4548 at k=16, with ``L_2 = 0.4285``), and the
central-limit root closes in on the exact one.
"""

import math

import pytest

from treecast import critical_point_k

from oracles import gaussian_critical_point

# Periods per branching factor: from the peak of k*(p_c*r - 1) to the
# default support budget (r**k + 1 <= 65,537 points).
LIMIT_PERIODS = {2: range(5, 17), 3: range(4, 11), 4: range(1, 9)}
# Periods where the central-limit root is within 6e-5 of the exact one in p*r.
GAUSSIAN_PERIODS = {2: range(12, 17), 3: range(8, 11), 4: range(6, 9)}


@pytest.fixture(scope="module")
def scaled_critical_points():
    """``p_c(k)*r`` at every ``(r, k)`` of ``LIMIT_PERIODS``, to 1e-9 in ``p``."""
    return {
        (r, k): critical_point_k(k, r, tol=1e-9).midpoint * r
        for r, periods in LIMIT_PERIODS.items()
        for k in periods
    }


@pytest.mark.parametrize("r", sorted(LIMIT_PERIODS))
def test_scaled_excess_falls_towards_its_limit(r, scaled_critical_points):
    limit = 0.5 * math.log(math.pi * (1.0 + 1.0 / r) / 2.0)
    excess = [k * (scaled_critical_points[r, k] - 1.0) for k in LIMIT_PERIODS[r]]
    assert all(a > b for a, b in zip(excess, excess[1:])), excess
    assert excess[-1] > limit, (excess[-1], limit)


@pytest.mark.parametrize("r", sorted(GAUSSIAN_PERIODS))
def test_gaussian_critical_point_closes_in(r, scaled_critical_points):
    gaps = [
        abs(gaussian_critical_point(k, r, 1e-13) * r - scaled_critical_points[r, k])
        for k in GAUSSIAN_PERIODS[r]
    ]
    assert max(gaps) <= 6e-5, gaps
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps

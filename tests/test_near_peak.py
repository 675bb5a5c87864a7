"""Exactness against the exact split, just below the power peak and at
every segment midpoint.

Close to p_max the currents move fast with the demand, but the problem is
still well defined: both solvers must land within 1e-9 * max(1 A, largest
current) of the exact split of the float-defined network. dispatch_table's
level solve stops once its residual is within the rounding error of the
power sum, so it is held to the same bound inside every segment too. The
reference is reference.exact_split, a level bisection in rationals whose
currents are the exact ones rounded to nearest, so it shares no float
arithmetic with either solver.
"""

import math

import numpy as np
import pytest

from fcdispatch import (
    build_table,
    dispatch_table,
    exact_split,
    lambda_bisection,
    reduce_network,
)

from conftest import FLAT_PEAK, direct_power, make_random_network


@pytest.mark.parametrize("k", range(5, 13))
@pytest.mark.parametrize("network", ["bench3", "bench30"])
def test_near_peak_matches_exact_level(request, network, k):
    stacks = request.getfixturevalue(f"{network}_stacks")
    table = build_table(stacks)
    p = table.p_max * (1.0 - 10.0 ** -k)
    exact = exact_split(stacks, p).currents
    tol = 1e-9 * max(1.0, max(exact))
    for currents in (dispatch_table(table, p).currents, lambda_bisection(stacks, p).currents):
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= tol


def test_one_float_below_a_flat_power_peak_matches_exact_level():
    stacks = reduce_network(FLAT_PEAK)
    table = build_table(stacks)
    p = math.nextafter(table.p_max, -math.inf)
    exact = exact_split(stacks, p).currents
    tol = 1e-9 * max(1.0, max(exact))
    for currents in (dispatch_table(table, p).currents, lambda_bisection(stacks, p).currents):
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= tol


@pytest.mark.parametrize("network", ["bench3", "bench30", "random40"])
def test_segment_midpoints_match_exact_level(request, network):
    if network == "random40":
        stacks = reduce_network(make_random_network(np.random.default_rng(40), 40))
    else:
        stacks = request.getfixturevalue(f"{network}_stacks")
    table = build_table(stacks)
    levels = [pt.mu for pt in table.points]
    # Equal consecutive levels are one breakpoint, not a segment.
    for high, low in [(h, l) for h, l in zip(levels, levels[1:]) if h > l]:
        p = direct_power(table, 0.5 * (high + low))
        exact = exact_split(stacks, p).currents
        currents = dispatch_table(table, p).currents
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= 1e-9 * max(1.0, max(exact))

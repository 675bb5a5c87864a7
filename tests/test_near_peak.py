"""Exactness against a 60-digit level bisection, just below the power peak
and at every segment midpoint.

Close to p_max the currents move fast with the demand, but the problem is
still well defined: both solvers must land within 1e-9 * max(1 A, largest
current) of the exact split of the float-defined network. dispatch_table's
level solve stops once its residual is within the rounding error of the
power sum, so it is held to the same bound inside every segment too. The
reference is computed with the standard library's decimal module, so it
shares no float arithmetic with either solver.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fcdispatch import (
    BranchSpec,
    Network,
    SqrtStackParams,
    build_table,
    dispatch_table,
    lambda_bisection,
    reduce_network,
)

from conftest import direct_power, make_random_network


def exact_currents(stacks, p_req: float) -> tuple[float, ...]:
    """Bisect the common marginal level in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        branches = []
        for s in stacks:
            a, b = Decimal(s.a_eq), Decimal(s.b_eq)
            branches.append((a, b, Decimal(s.i_lb).sqrt(), Decimal(s.i_ub_eff).sqrt()))

        def sqrt_currents(mu):
            # Clamped inverse marginal in sqrt-current space.
            return [
                min(max((mu - a) / (Decimal(1.5) * b), x_lo), x_hi)
                for a, b, x_lo, x_hi in branches
            ]

        def power(mu):
            return sum((a + b * x) * x * x for (a, b, _, _), x in zip(branches, sqrt_currents(mu)))

        target = Decimal(p_req)
        lo = min(a + Decimal(1.5) * b * x_hi for a, b, _, x_hi in branches)
        hi = max(a + Decimal(1.5) * b * x_lo for a, b, x_lo, _ in branches)
        for _ in range(240):  # 2**-240 of the window is below 60 digits
            mu = (lo + hi) / 2
            if power(mu) > target:
                lo = mu
            else:
                hi = mu
        return tuple(float(x * x) for x in sqrt_currents((lo + hi) / 2))


@pytest.mark.parametrize("k", range(5, 13))
@pytest.mark.parametrize("network", ["bench3", "bench30"])
def test_near_peak_matches_exact_level(request, network, k):
    stacks = request.getfixturevalue(f"{network}_stacks")
    table = build_table(stacks)
    p = table.p_max * (1.0 - 10.0 ** -k)
    exact = exact_currents(stacks, p)
    tol = 1e-9 * max(1.0, max(exact))
    for currents in (dispatch_table(table, p).currents, lambda_bisection(stacks, p).currents):
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= tol


# Branch 1 has no upper bound, so it runs up to its power peak, where power is
# flat in the level: a residual within the rounding floor of the power sum
# can leave the level far from the one that meets the demand.
FLAT_PEAK = Network(
    branches=(
        BranchSpec(
            stacks=(SqrtStackParams(a=51.40777043448101, b=-0.5378216508565113),),
            i_lb=466.7123398771834,
            i_ub=4060.6771033659757,
        ),
        BranchSpec(
            stacks=(SqrtStackParams(a=0.0004059366017442842, b=-5.440239612484829e-05),),
            i_lb=5.739094974598655,
            i_ub=math.inf,
        ),
    )
)


def test_one_float_below_a_flat_power_peak_matches_exact_level():
    stacks = reduce_network(FLAT_PEAK)
    table = build_table(stacks)
    p = math.nextafter(table.p_max, -math.inf)
    exact = exact_currents(stacks, p)
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
        exact = exact_currents(stacks, p)
        currents = dispatch_table(table, p).currents
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= 1e-9 * max(1.0, max(exact))

"""reference.exact_split: the exact split of the float-defined network.

Each case here is one that no float reference solves: TINY_B's demand, whose
level rounds to a float where the branch gives no power, the ROADMAP item 4
repros and FLAT_PEAK just below its peak. On the benchmarks it must agree
with lambda_bisection, so that the two oracles keep each other honest.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fcdispatch import (
    BranchSpec,
    Network,
    SqrtStackParams,
    build_table,
    compare,
    dispatch,
    exact_split,
    lambda_bisection,
    reduce_network,
)

from conftest import FLAT_PEAK, TINY_B


def balance(stacks, currents, p_req):
    """The relative power balance of a split, with the model's power."""
    return abs(sum(s.power(i) for s, i in zip(stacks, currents)) - p_req) / max(1.0, abs(p_req))


def test_tiny_b_branch_meets_a_demand_that_the_float_level_cannot():
    got = exact_split(TINY_B, 0.5)
    assert got.converged
    assert got.currents == (0.5,)
    assert balance(reduce_network(TINY_B), got.currents, 0.5) <= 1e-9


# ROADMAP item 4's repros (a) and (b): a current steep in the level, and a
# branch whose two bound levels round to one float.
STEEP = Network((BranchSpec((SqrtStackParams(1e4, -1e-4, 0.01),), i_lb=22.222222222222214),))
NARROW = Network((BranchSpec((SqrtStackParams(1e4, -1e-4, 1.0),), i_lb=1.0, i_ub=1.0 + 1e-8),))


@pytest.mark.parametrize("network, demand", [(STEEP, "p_min(1+1e-9)"), (NARROW, 9999.99995)])
def test_narrow_branch_repros_meet_the_balance(network, demand):
    stacks = reduce_network(network)
    if demand == "p_min(1+1e-9)":
        demand = stacks[0].power(stacks[0].i_lb) * (1.0 + 1e-9)
    got = exact_split(network, demand)
    assert got.converged
    assert balance(stacks, got.currents, demand) <= 1e-9


@pytest.mark.parametrize("k", range(5, 15))
def test_flat_peak_meets_the_balance(k):
    stacks = reduce_network(FLAT_PEAK)
    p = build_table(stacks).p_max * (1.0 - 10.0 ** -k)
    got = exact_split(stacks, p)
    assert got.converged
    assert balance(stacks, got.currents, p) <= 1e-9


@pytest.mark.parametrize("network", ["bench3", "bench30"])
def test_benchmarks_agree_with_lambda_bisection(request, network):
    # 40 demands from p_min up. p_max itself is left out: on bench30 every
    # branch runs up to its power peak, where lambda_bisection's float level
    # misses the exact split by 1.8e-9 of the largest current there and
    # 1.3e-8 one float below (ROADMAP item 5).
    stacks = request.getfixturevalue(f"{network}_stacks")
    table = build_table(stacks)
    for k in range(40):
        p = table.p_min + k / 40 * (table.p_max - table.p_min)
        got = exact_split(stacks, p)
        assert got.converged
        oracle = lambda_bisection(stacks, p).currents
        tol = 1e-9 * max(1.0, max(got.currents))
        assert max(abs(i - j) for i, j in zip(got.currents, oracle)) <= tol, p
        assert balance(stacks, got.currents, p) <= 1e-9


def test_a_rational_pinned_power_takes_the_exact_equality_exit():
    # Branch 1 is pinned at i_ub = 4, a perfect square, so its power
    # 5*4 - 0.5*4*2 = 16 W is rational. At the first level halving, 3, branch
    # 2 gives x = (3 - 6)/(1.5*-2) = 1: 1 A and 4 W, so the power is 20 W
    # exactly.
    net = Network((
        BranchSpec((SqrtStackParams(5.0, -0.5),), i_ub=4.0),
        BranchSpec((SqrtStackParams(6.0, -2.0),)),
    ))
    got = exact_split(net, 20.0)
    assert (got.currents, got.halvings, got.bracket) == ((4.0, 1.0), 1, (Fraction(3), Fraction(3)))
    assert got.converged
    assert dispatch(net, 20.0).currents == pytest.approx(got.currents, rel=1e-12)


def test_a_power_residual_below_the_first_enclosure_widens_it():
    # The same network with i_ub = 2 and every coefficient scaled by 2**-40,
    # which leaves currents and levels' ratios as they are: the power at
    # the first halving is (14 - sqrt(2))*2**-40 W, irrational, and the
    # float demand lies within 2**-64 W of it, below the first enclosure's
    # resolution.
    u = 2.0 ** -40
    net = Network((
        BranchSpec((SqrtStackParams(5.0 * u, -0.5 * u),), i_ub=2.0),
        BranchSpec((SqrtStackParams(6.0 * u, -2.0 * u),)),
    ))
    p = (14.0 - math.sqrt(2.0)) * u
    got = exact_split(net, p)
    assert got.converged and got.halvings > 1
    assert got.currents == pytest.approx((2.0, 1.0), rel=1e-15)


@pytest.mark.parametrize("end, factor", [("p_min", 1 - 5e-13), ("p_max", 1 + 5e-13)])
def test_a_demand_in_the_edge_slack_gets_the_edge(bench3_stacks, end, factor):
    bound = "i_lb" if end == "p_min" else "i_ub_eff"
    p = sum(s.power(getattr(s, bound)) for s in bench3_stacks) * factor
    got = exact_split(bench3_stacks, p)
    assert got.currents == tuple(getattr(s, bound) for s in bench3_stacks)
    assert (got.halvings, got.converged) == (0, True)


@pytest.mark.parametrize("p", [300.0, 2e4, math.nan, math.inf])
def test_a_demand_beyond_the_slack_raises(bench3_stacks, p):
    with pytest.raises(ValueError, match="outside obtainable range"):
        exact_split(bench3_stacks, p)


def test_a_current_on_a_rounding_boundary_reaches_the_cap_and_says_so():
    # Branch 2's exact current is m = (2**27 - 1)**2, an odd 54-bit integer,
    # so it lies halfway between two floats and no bracket around its level
    # 1/2 rounds to one float. Its power m*2**26 is not a float either;
    # branch 1, pinned at 1 A, makes up the demand (m + 1)*2**26 exactly.
    k = 2**27 - 1
    m = k * k
    net = Network((
        BranchSpec((SqrtStackParams(2.0**26 + 1.0, -1.0),), i_lb=1.0, i_ub=1.0),
        BranchSpec((SqrtStackParams(1.5 * k + 0.5, -1.0),)),
    ))
    got = exact_split(net, float((m + 1) * 2**26))
    assert not got.converged
    assert got.halvings == 4096
    lo, hi = got.bracket
    assert lo < Fraction(1, 2) < hi
    assert got.currents == (1.0, float(m + 1))  # its lower level's current, rounded


def test_a_power_peak_beyond_the_float_range_raises_overflow_error():
    # At b = -1e-160 the peak current, i_ub_eff, overflows to inf.
    net = Network((BranchSpec((SqrtStackParams(1.0, -1e-160),)),))
    with pytest.raises(OverflowError):
        exact_split(net, 0.5)


def test_only_the_four_reduced_fields_are_read(bench30_stacks):
    bare = [SimpleNamespace(a_eq=s.a_eq, b_eq=s.b_eq, i_lb=s.i_lb, i_ub_eff=s.i_ub_eff)
            for s in bench30_stacks]
    assert exact_split(bare, 75000.0) == exact_split(bench30_stacks, 75000.0)


def test_compare_accepts_the_exact_split(bench3_network):
    report = compare(dispatch(bench3_network, 8000.0), exact_split(bench3_network, 8000.0), 1e-9)
    assert report.passed
    assert report.max_branch_delta <= 1e-12

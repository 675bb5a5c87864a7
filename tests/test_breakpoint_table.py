"""The breakpoint table's running sums, and the location that bisects them.

build_table sweeps the levels once, so its stored cumulative powers are
running sums, not the direct branch-by-branch sums at each level. These
tests pin what locate_segment relies on: the table costs O(N) branch power
evaluations, every stored power lies within _EDGE_RTOL of the direct sum,
and the bracket is the one a linear scan over direct sums picks. The table's
per-branch columns stand in for the model's methods online; the tests below
hold them to those methods bit for bit, and count the calls a solve makes.
"""

import dataclasses
import importlib
import math
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fcdispatch import (
    ActiveSets,
    BranchSpec,
    DispatchStatus,
    EquivalentStack,
    Network,
    PointKind,
    SqrtStackParams,
    build_table,
    dispatch,
    dispatch_table,
    effective_upper_bound,
    locate_segment,
    reduce_branch,
    reduce_network,
    verify_kkt,
)
from fcdispatch.dispatch import _EDGE_RTOL, _MAX_ITER, _POWER_RTOL, _locate, _solve_level

from conftest import OPEN_WINDOW_NETWORK, direct_power, make_random_network, make_wide_network

# At branch 1's lower-bound level, just below branch 0's, the terms of
# branch 0's cubic in mu are 3e13 times its power there: running sums alone
# store that point's power about 1% off.
ILL_CONDITIONED = Network(
    branches=(
        BranchSpec(stacks=(SqrtStackParams(a=1e4, b=-1e-4),), i_lb=0.0, i_ub=math.inf),
        BranchSpec(stacks=(SqrtStackParams(a=1e4, b=-1e-4, phi=0.9999999),), i_lb=0.0, i_ub=1.0),
        BranchSpec(stacks=(SqrtStackParams(a=30.0, b=-1.0),), i_lb=1.0, i_ub=10.0),
    )
)


def linear_scan(table, direct, p):
    """(mu_high, mu_low) of the first point whose direct power is >= p."""
    p = min(max(p, table.p_min), table.p_max)
    n = next(k for k, d in enumerate(direct) if d >= p)
    high = n if direct[n] == p else n - 1
    return table.points[high].mu, table.points[n].mu


def test_build_table_evaluates_each_branch_power_a_bounded_number_of_times(monkeypatch):
    stacks = reduce_network(make_random_network(np.random.default_rng(8), 200))
    calls = []
    original = EquivalentStack.power

    def counting(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(EquivalentStack, "power", counting)
    build_table(stacks)
    # A direct sum at each of the 2N points would take 2N^2 = 80,000.
    assert len(calls) <= 4 * len(stacks)


def sample_networks(name, request):
    if name == "random1000":
        return [make_random_network(np.random.default_rng(1), 1000)]
    if name == "ill_conditioned":
        return [ILL_CONDITIONED]
    if name == "open_window":
        return [OPEN_WINDOW_NETWORK]
    if name == "wide":
        r = random.Random(11)
        return [make_wide_network(r) for _ in range(300)]
    if name == "paper":
        return [
            make_random_network(np.random.default_rng(s), n) for s in range(3) for n in range(2, 31)
        ]
    return [request.getfixturevalue(f"{name}_network")]


@pytest.mark.parametrize("name", ["bench3", "bench30", "random1000", "wide", "ill_conditioned"])
def test_stored_powers_lie_within_edge_slack_of_direct_sums(name, request):
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        for pt in table.points:
            d = direct_power(table, pt.mu)
            assert abs(pt.cumulative_power - d) <= _EDGE_RTOL * max(1.0, abs(d))
        assert table.p_min == direct_power(table, table.points[0].mu)
        assert table.p_max == direct_power(table, table.points[-1].mu)


def test_locate_segment_matches_a_linear_scan_over_direct_sums():
    rng = np.random.default_rng(7)
    r = random.Random(7)
    networks = [make_random_network(rng, int(rng.integers(2, 61))) for _ in range(500)]
    networks += [make_wide_network(r) for _ in range(100)] + [ILL_CONDITIONED]
    decreasing = 0
    for network in networks:
        table = build_table(reduce_network(network))
        direct = [direct_power(table, pt.mu) for pt in table.points]
        decreasing += sum(b < a for a, b in zip(direct, direct[1:]))
        span = table.p_max - table.p_min
        demands = direct + [table.p_min + r.random() * span for _ in range(4)]
        for p in demands:
            sets = locate_segment(table, p)
            assert (sets.mu_high, sets.mu_low) == linear_scan(table, direct, p)
    # Rounding makes some adjacent direct sums decrease; the scan's choice
    # (the first point at or above the demand) must hold there too.
    assert decreasing > 0


def test_ill_conditioned_breakpoint_demands_run_at_their_level():
    table = build_table(reduce_network(ILL_CONDITIONED))
    for pt in table.points:
        p = direct_power(table, pt.mu)
        result = dispatch_table(table, p)
        assert result.status is DispatchStatus.OPTIMAL
        assert result.total_power == p


COLUMN_NETWORKS = ["bench3", "bench30", "ill_conditioned", "open_window", "random1000", "wide"]


def check_levels(table):
    """Breakpoint levels, their float neighbours and each segment's midpoint.

    At N=1000 every 10th breakpoint is taken, to keep the model loops short.
    """
    levels = [pt.mu for pt in table.points]
    stride = 10 if len(table.stacks) >= 1000 else 1
    out = []
    for k in range(0, len(levels), stride):
        mu = levels[k]
        out += [mu, math.nextafter(mu, math.inf), math.nextafter(mu, -math.inf)]
        if k + 1 < len(levels):
            out.append(0.5 * (mu + levels[k + 1]))
    return out


def model_sets(stacks, mu_high, mu_low, p_req):
    """The branch partition of a window, from marginal_power and power."""
    at_lb, interior, at_ub = [], [], []
    fixed_power = 0.0
    for j, s in enumerate(stacks):
        if s.marginal_power(s.i_lb) <= mu_low:
            at_lb.append(j)
            fixed_power += s.power(s.i_lb)
        elif s.marginal_power(s.i_ub_eff) >= mu_high:
            at_ub.append(j)
            fixed_power += s.power(s.i_ub_eff)
        else:
            interior.append(j)
    return ActiveSets(
        frozenset(at_lb), frozenset(interior), frozenset(at_ub), p_req - fixed_power, mu_high, mu_low
    )


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_currents_at_is_inverse_marginal_bit_for_bit(name, request):
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        for mu in check_levels(table):
            assert table.currents_at(mu) == tuple(s.inverse_marginal(mu) for s in stacks)
        # No bound test places a NaN level, so each branch's current is NaN.
        currents = table.currents_at(math.nan)
        assert len(currents) == len(stacks)
        assert all(math.isnan(i) for i in currents)
        assert all(math.isnan(s.inverse_marginal(math.nan)) for s in stacks)


def bits(values):
    """Floats as hex, so -0.0 and 0.0 differ and NaN equals NaN."""
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_table_levels_and_bound_powers_are_the_model_methods_bit_for_bit(name, request):
    # build_table repeats marginal_power's and power's expressions inline.
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        cols = table._columns
        bounds = ("i_lb", "i_ub_eff")
        for pt in table.points:
            s = stacks[pt.branch_index]
            i = getattr(s, bounds[pt.kind is PointKind.UPPER_BOUND])
            assert bits([pt.mu]) == bits([s.marginal_power(i)])
        assert bits(cols.i_lb) == bits(s.i_lb for s in stacks)
        assert bits(cols.i_ub) == bits(s.i_ub_eff for s in stacks)
        assert bits(cols.p_lb) == bits(s.power(s.i_lb) for s in stacks)
        assert bits(cols.p_ub) == bits(s.power(s.i_ub_eff) for s in stacks)
        # The columns that _locate reads in place of the points and p_min/p_max.
        assert bits(cols.powers) == bits(pt.cumulative_power for pt in table.points)
        assert bits(cols.feasible_range) == bits([table.p_min, table.p_max])


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_reduce_branch_builds_the_dataclass_of_the_weighted_sums(name, request):
    # reduce_branch fills its result without the dataclass __init__; the
    # result must be the EquivalentStack that __init__ builds.
    for network in sample_networks(name, request)[:20]:
        for j, branch in enumerate(network.branches):
            eq = reduce_branch(branch, j)
            a_eq = sum(s.phi * s.a for s in branch.stacks)
            b_eq = sum(s.phi * s.b for s in branch.stacks)
            i_ub_eff = effective_upper_bound(a_eq, b_eq, branch.i_ub)
            ref = EquivalentStack(a_eq, b_eq, branch.i_lb, branch.i_ub, i_ub_eff)
            assert bits(dataclasses.astuple(eq)) == bits(dataclasses.astuple(ref))
            assert eq == ref and hash(eq) == hash(ref) and repr(eq) == repr(ref)
            assert dataclasses.asdict(eq) == dataclasses.asdict(ref)
            assert pickle.loads(pickle.dumps(eq)) == ref
            assert dataclasses.replace(eq, i_lb=0.0) == dataclasses.replace(ref, i_lb=0.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                eq.a_eq = 1.0


@pytest.mark.parametrize(
    "bounds, message",
    [
        ([(-1.0, 10.0)], "current must be nonnegative, got -1.0"),
        ([(0.0, 10.0), (1.0, -2.0)], "current must be nonnegative, got -2.0"),
        # Every lower bound's level is taken before any upper bound's.
        ([(0.0, -2.0), (-1.0, 10.0)], "current must be nonnegative, got -1.0"),
    ],
)
def test_build_table_rejects_a_negative_bound_as_marginal_power_does(bounds, message):
    stacks = [EquivalentStack(40.0, -0.5, lo, 10.0, hi) for lo, hi in bounds]
    with pytest.raises(ValueError) as info:
        build_table(stacks)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_locate_segment_sets_match_a_model_loop(name, request):
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        direct = [direct_power(table, pt.mu) for pt in table.points]
        for mu in check_levels(table):
            p = direct_power(table, mu)
            sets = locate_segment(table, p)
            assert sets == model_sets(stacks, *linear_scan(table, direct, p), p)


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_direct_power_matches_the_model_sum(name, request):
    for network in sample_networks(name, request):
        table = build_table(reduce_network(network))
        for mu in check_levels(table):
            assert table._direct_power(mu) == direct_power(table, mu)


def test_online_solve_calls_no_model_method_on_a_pinned_branch(monkeypatch):
    stacks = reduce_network(make_random_network(np.random.default_rng(8), 200))
    table = build_table(stacks)
    calls = {"power": 0, "marginal_power": 0, "inverse_marginal": 0}

    def counting(name):
        original = getattr(EquivalentStack, name)

        def method(self, x):
            calls[name] += 1
            return original(self, x)

        return method

    for name in calls:
        monkeypatch.setattr(EquivalentStack, name, counting(name))
    span = table.p_max - table.p_min
    demands = [table.p_min + f * span for f in (0.05, 0.37, 0.8)]
    demands.append(direct_power(table, table.points[150].mu))
    for p in demands:
        for name in calls:
            calls[name] = 0
        result = dispatch_table(table, p)
        assert result.status is DispatchStatus.OPTIMAL
        assert calls["marginal_power"] == 0
        assert calls["inverse_marginal"] == 0
        assert calls["power"] <= len(result.sets.interior)


@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_dispatch_table_result_is_the_model_at_its_level(name, request):
    # Strictly inside an open window the level solve's last direct pass is
    # the result; elsewhere a zero-width record is. Both are the model. The
    # open window of OPEN_WINDOW_NETWORK has no interior branch, so its
    # solves land on a window end.
    inside = 0
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        for mu in check_levels(table):
            result = dispatch_table(table, direct_power(table, mu))
            assert result.currents == tuple(s.inverse_marginal(result.mu) for s in stacks)
            assert result.total_power == direct_power(table, result.mu)
            inside += result.sets.mu_low < result.mu < result.sets.mu_high
    assert (inside > 0) == (name != "open_window")


@pytest.mark.parametrize("n, capped", [(7, False), (27, True)])
def test_level_zero_window_result_is_the_model_at_its_level(n, capped):
    # The last open window of these networks ends at level 0, a branch's
    # power peak. At its midpoint demand the residual is rounding noise and
    # floor*|slope*mu| falls with mu, so the passes halve mu towards 0: 55
    # passes at n=7, and at n=27 all _MAX_ITER of them, after the last of
    # which mu moves again; one more pass at the returned mu is the result.
    table = build_table(reduce_network(make_random_network(np.random.default_rng(3), n)))
    levels = [pt.mu for pt in table.points]
    k = max(k for k in range(len(levels) - 1) if levels[k] > levels[k + 1])
    p = direct_power(table, 0.5 * (levels[k] + levels[k + 1]))
    sets, window = _locate(table, p)
    mu, passes, (currents, powers) = _solve_level(window, sets.p_req_eff)
    assert sets.mu_low == 0.0 < mu < sets.mu_high
    assert (passes == _MAX_ITER + 1) == capped
    assert currents == [s.inverse_marginal(mu) for s in table.stacks]
    assert sum(powers) == direct_power(table, mu)
    result = dispatch_table(table, p)
    assert result.mu == mu
    assert result.currents == tuple(s.inverse_marginal(mu) for s in table.stacks)
    assert result.total_power == direct_power(table, mu)


@pytest.mark.parametrize("end", ["mu_low", "mu_high"])
@pytest.mark.parametrize("name", COLUMN_NETWORKS)
def test_dispatch_table_result_at_a_window_end_is_the_model_at_its_level(
    name, end, request, monkeypatch
):
    # A level solve that lands on a window end, and returns the window's
    # pinned columns, which are not the result there (an interior branch's
    # power is 0.0). The demands are one float off a breakpoint's direct
    # power, on the side whose window ends there; the end is kept where its
    # power meets the demand.
    def at_end(window, p_req_eff):
        return getattr(window, end), 0, window.fixed

    # The package exports a function named dispatch, which shadows the module.
    monkeypatch.setattr(importlib.import_module("fcdispatch.dispatch"), "_solve_level", at_end)
    towards = -math.inf if end == "mu_low" else math.inf
    solved = 0
    for network in sample_networks(name, request):
        stacks = reduce_network(network)
        table = build_table(stacks)
        stride = 10 if len(stacks) >= 1000 else 1
        for pt in table.points[::stride]:
            p = math.nextafter(direct_power(table, pt.mu), towards)
            sets = locate_segment(table, p)
            mu = getattr(sets, end)
            if not sets.mu_low < sets.mu_high or direct_power(table, mu) != pytest.approx(
                p, rel=_POWER_RTOL, abs=_POWER_RTOL
            ):
                continue
            result = dispatch_table(table, p)
            assert result.mu == mu
            assert result.currents == tuple(s.inverse_marginal(mu) for s in stacks)
            assert result.total_power == direct_power(table, mu)
            solved += 1
    assert solved > 0


@pytest.mark.parametrize("name", ["bench3", "bench30", "paper", "random1000"])
def test_level_solve_stops_at_its_rounding_floor(name, request):
    # The seed, the summed cubic's root found by safeguarded Newton steps
    # inside the window, is almost always within the rounding error of the
    # direct sum already, so most solves take a single pass. That is
    # counted where the stop rule's bound is the power sum's rounding error,
    # min(power, |slope*mu|) = power at the returned level. Near a power
    # peak, |slope*mu| is smaller; the residual of any seed is then at the
    # floor of the power but not of slope*mu, and the passes only chase
    # rounding (tests/test_near_peak.py). At N=1000 no solve is left out.
    passes = []
    for network in sample_networks(name, request):
        table = build_table(reduce_network(network))
        cols = table._columns
        levels = [pt.mu for pt in table.points]
        stride = 10 if len(table.stacks) >= 1000 else 1
        for k in range(0, len(levels) - 1, stride):
            sets, window = _locate(table, direct_power(table, 0.5 * (levels[k] + levels[k + 1])))
            if not sets.mu_low < sets.mu_high:
                continue
            interior = sorted(sets.interior)
            mu, n, _ = _solve_level(window, sets.p_req_eff)
            power = slope = 0.0
            for _, u, a, b15, b in (cols.line[j] for j in interior):
                x = (mu - a) / b15
                i = x * x
                power += a * i + b * i * math.sqrt(i)
                slope += u * x
            if name == "random1000" or power <= abs(2.0 * mu * mu * slope):
                passes.append(n)
    assert len(passes) > {"bench3": 4, "bench30": 13, "paper": 500, "random1000": 100}[name]
    assert sum(passes) / len(passes) <= 1.5


@pytest.mark.parametrize("name", ["bench3", "bench30", "paper", "random1000"])
def test_window_cubic_from_the_sweep_matches_the_direct_interior_sum(name, request):
    # build_table's running sums after a breakpoint are the interior power's
    # cubic in mu over the window below it, which the window's record hands
    # to the level solve. The sweep adds and subtracts branches in level
    # order, so its sums differ from a fresh sum over the interior in the
    # last bits only: within the slack of the stored powers, at both window
    # ends and in the middle. No demand lands in a window whose direct end
    # powers round to one float (power is flat in the level next to a peak
    # at level 0), so such a window has no record.
    checks = 0
    for network in sample_networks(name, request):
        table = build_table(reduce_network(network))
        levels = [pt.mu for pt in table.points]
        for high, low in zip(levels, levels[1:]):
            sets, window = _locate(table, direct_power(table, 0.5 * (high + low)))
            if not low < high or (sets.mu_high, sets.mu_low) != (high, low):
                continue
            c3, c2, c1, c0 = window.cubic
            for mu in (low, 0.5 * (high + low), high):
                interior = 0.0
                for _, u, a, b15, b in window.lines:
                    x = (mu - a) / b15
                    i = x * x
                    interior += a * i + b * i * math.sqrt(i)
                cubic = ((c3 * mu + c2) * mu + c1) * mu + c0
                assert abs(cubic - interior) <= _EDGE_RTOL * max(1.0, window.pinned + interior)
                checks += 1
    assert checks > 3 * {"bench3": 4, "bench30": 14, "paper": 1900, "random1000": 1400}[name]


def test_online_solve_finds_no_cubic_roots(monkeypatch, bench3_network, bench30_network):
    # The located window brackets the interior cubic's one root there, so
    # neither dispatch_table nor dispatch asks poly_roots for all three.
    def fail(*args):
        raise AssertionError("online solve called poly_roots")

    # The package exports a function named dispatch, which shadows the module.
    module = importlib.import_module("fcdispatch.dispatch")
    monkeypatch.setattr(module, "real_roots", fail)
    monkeypatch.setattr(module, "CubicCoefficients", fail)
    rng = np.random.default_rng(11)
    networks = [bench3_network, bench30_network]
    networks += [make_random_network(rng, int(rng.integers(2, 31))) for _ in range(20)]
    for network in networks:
        stacks = reduce_network(network)
        table = build_table(stacks)
        levels = [pt.mu for pt in table.points]
        demands = [direct_power(table, mu) for mu in levels]
        demands += [direct_power(table, 0.5 * (a + b)) for a, b in zip(levels, levels[1:])]
        demands += [table.p_min, table.p_max]
        for p in demands:
            result = dispatch_table(table, p)
            assert result.status is DispatchStatus.OPTIMAL
            assert verify_kkt(result, stacks).ok
            assert abs(result.total_power - p) <= 1e-9 * max(1.0, abs(p))
        p = 0.5 * (table.p_min + table.p_max)
        assert dispatch(network, p).currents == dispatch_table(table, p).currents


# A wide-scale network (tests/test_wide_scale.py's a=1e4 example) whose
# summed cubic is negative at both ends of its one open window for demands
# a few floats below p_max: the terms are 1e17 W, so the cubic's rounding
# exceeds the few hundred watts it has left at the low end.
ONE_SIGN_CUBIC = Network(
    branches=(
        BranchSpec(
            stacks=(SqrtStackParams(a=1e4, b=-0.00035078460462560613, phi=0.599767010796046),),
            i_lb=88028738715393.44,
            i_ub=312859079203784.4,
        ),
    )
)


def test_level_solve_seed_stays_in_the_window_when_the_cubic_has_one_sign():
    table = build_table(reduce_network(ONE_SIGN_CUBIC))
    p = table.p_max
    for _ in range(3):
        p = math.nextafter(p, -math.inf)
        sets, window = _locate(table, p)
        lo, hi = sets.mu_low, sets.mu_high
        c3, c2, c1, c0 = window.cubic
        c0 -= sets.p_req_eff
        assert ((c3 * lo + c2) * lo + c1) * lo + c0 < 0.0
        assert ((c3 * hi + c2) * hi + c1) * hi + c0 < 0.0
        mu, _, _ = _solve_level(window, sets.p_req_eff)
        assert lo <= mu <= hi
        result = dispatch_table(table, p)
        assert result.status is DispatchStatus.OPTIMAL
        assert result.mu == mu
        assert abs(result.total_power - p) <= 1e-9 * abs(p)


def test_online_solve_splits_the_branches_once(monkeypatch, bench3_network, bench30_network):
    # locate_segment's split serves the result, a breakpoint's zero-width
    # window included, and the table keeps it for the next demand in the
    # same window: a solve splits the branches once when its window is not
    # the previous solve's, and not at all when it is. Only a level that
    # lands on an open window's end splits them again. The first pass fills
    # the table's cache of breakpoint powers, so the second counts the solve
    # alone.
    module = importlib.import_module("fcdispatch.dispatch")
    split = module._split
    calls = []

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(module, "_split", counting)
    rng = np.random.default_rng(5)
    networks = [bench3_network, bench30_network]
    networks += [make_random_network(rng, int(rng.integers(2, 31))) for _ in range(20)]
    solves = 0
    for network in networks:
        table = build_table(reduce_network(network))
        levels = [pt.mu for pt in table.points]
        demands = [direct_power(table, mu) for mu in levels]
        demands += [direct_power(table, 0.5 * (a + b)) for a, b in zip(levels, levels[1:])]
        for p in demands:
            previous = dispatch_table(table, p).sets
        for p in demands:
            calls.clear()
            result = dispatch_table(table, p)
            sets = result.sets
            moved = (sets.mu_high, sets.mu_low) != (previous.mu_high, previous.mu_low)
            at_end = sets.mu_low < sets.mu_high and not sets.mu_low < result.mu < sets.mu_high
            assert len(calls) == moved + at_end
            previous = sets
            solves += 1
    assert solves > 1000


def ascending_sweep(table, points):
    """The CLI's demand grid over the table's power window."""
    step = (table.p_max - table.p_min) / (points - 1)
    return [table.p_min + k * step for k in range(points - 1)] + [table.p_max]


@pytest.mark.parametrize("name", ["bench3", "bench30", "random60"])
def test_a_sweep_splits_once_per_window_and_solves_as_fresh_tables_do(
    name, request, monkeypatch
):
    # An ascending sweep walks the windows in order, several demands in
    # each. The table keeps the last window's split, so the branches are
    # split once per window the sweep enters (and once more where a level
    # lands on an open window's end), and every result is the one a fresh
    # table gives for that demand alone. An infeasible demand in the middle
    # locates no window and leaves the kept one as it was. Then breakpoint
    # demands, repeated and alternating: a zero-width record is its
    # breakpoint's result, so a repeat splits nothing, each alternation
    # splits once, and the results leave the kept record's lists unchanged.
    if name == "random60":
        network = make_random_network(np.random.default_rng(7), 60)
    else:
        network = request.getfixturevalue(f"{name}_network")
    stacks = reduce_network(network)
    table = build_table(stacks)
    demands = ascending_sweep(table, 600)
    middle = len(demands) // 2
    infeasible = [table.p_min - 1.0, table.p_max + 1.0, math.nan]
    demands[middle:middle] = infeasible
    expected = [dispatch_table(build_table(stacks), p) for p in demands]
    first, second = (direct_power(table, table.points[k * len(stacks) // 2].mu) for k in (1, 2))
    breakpoints = [first, first, first, second, first, second, second, first]
    fresh = [dispatch_table(build_table(stacks), p) for p in breakpoints]
    for pt in table.points:
        table._direct_power(pt.mu)  # fill the breakpoint cache before counting

    module = importlib.import_module("fcdispatch.dispatch")
    split = module._split
    calls = []

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(module, "_split", counting)
    windows, at_end = set(), 0
    for k, p in enumerate(demands):
        kept = table._window
        result = dispatch_table(table, p)
        if middle <= k < middle + len(infeasible):
            assert result.status is not DispatchStatus.OPTIMAL
            assert table._window is kept
            assert result.status == expected[k].status
            assert result.feasible_range == expected[k].feasible_range
            continue
        assert result == expected[k]
        sets = result.sets
        windows.add((sets.mu_high, sets.mu_low))
        at_end += sets.mu_low < sets.mu_high and not sets.mu_low < result.mu < sets.mu_high
    assert len(calls) == len(windows) + at_end
    assert len(demands) >= 3 * len(windows)

    calls.clear()
    record = None
    for p, expected_result in zip(breakpoints, fresh):
        result = dispatch_table(table, p)
        assert result.sets.mu_low == result.mu == result.sets.mu_high
        assert result == expected_result
        assert [c.hex() for c in result.currents] == [c.hex() for c in expected_result.currents]
        if record is None:
            record = table._window
            kept = [c.copy() for c in record.fixed]
    assert len(calls) == 5
    assert list(record.fixed) == kept == list(_locate(build_table(stacks), first)[1].fixed)


def test_a_table_shared_across_threads_solves_as_fresh_tables_do():
    # A table fills its cache of breakpoint powers and replaces its last
    # window's record while it solves. Four threads, two of them in reverse
    # order, start together on one table; each result must be the one a
    # fresh table gives for that demand. The breakpoints and midpoints change
    # window on every solve; the sweep after them stays several demands in
    # each window, so one thread's reuse of the record interleaves with
    # another's replacing it.
    table = build_table(reduce_network(make_random_network(np.random.default_rng(7), 60)))
    levels = [pt.mu for pt in table.points]
    demands = [direct_power(table, mu) for mu in levels]
    demands += [direct_power(table, 0.5 * (a + b)) for a, b in zip(levels, levels[1:])]
    demands += ascending_sweep(table, 600)
    expected = [dispatch_table(build_table(table.stacks), p) for p in demands]
    start = threading.Barrier(4)

    def solve_all(order):
        start.wait(timeout=60)
        return {k: dispatch_table(table, demands[k]) for k in order}

    forward = range(len(demands))
    orders = [forward, forward[::-1], forward, forward[::-1]]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            solved = list(pool.map(solve_all, orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for results in solved:
        assert [results[k] for k in forward] == expected
    fresh = build_table(table.stacks)
    assert table._direct == {mu: fresh._direct_power(mu) for mu in table._direct}
    window = table._window
    key = window.mu_high, window.mu_low
    k = next(k for k, r in enumerate(expected) if (r.sets.mu_high, r.sets.mu_low) == key)
    assert _locate(fresh, demands[k])[1] == window

import importlib
import math

import numpy as np
import pytest

from fcdispatch import (
    BranchSpec,
    DispatchStatus,
    Network,
    InfeasibleDemandError,
    NetworkValidationError,
    PointKind,
    SegmentSolveError,
    SqrtStackParams,
    build_table,
    dispatch,
    dispatch_table,
    feasible_power_range,
    grid_bruteforce,
    lambda_bisection,
    locate_segment,
    reduce_network,
    select_feasible_root,
    solve_segment_numeric,
    solve_segment_sqrt,
    verify_kkt,
)

from conftest import (
    BENCH3_SNAPSHOTS,
    OPEN_WINDOW_NETWORK,
    TINY_B,
    direct_power,
    make_random_network,
    power_range,
)

# Independently computed breakpoints of the 3-branch benchmark network
# (direct evaluation of the marginal at each bound plus power sums).
BENCH3_LEVELS = [
    44.83368958890554,
    39.895,
    31.536095403925124,
    27.54821279213969,
    24.81761135388326,
    20.064124882489864,
]
BENCH3_POWERS = [
    310.9713018399698,
    890.5773015578684,
    6183.777524429722,
    12037.033465307482,
    16200.563134475346,
    19206.708322827828,
]

# Unique equal-marginal optimum of the 15-branch benchmark at 75 kW,
# frozen from the independent level-bisection oracle.
BENCH30_CURRENTS = [
    9.578487883853686,
    0.1,
    648.7836483049152,
    3.277352401046389,
    2.6829302941183335,
    2.2855595144531837,
    2.0000639160367495,
    0.1,
    1.6997253568083688,
    1.554816937064142,
    90.1130894042653,
    1.301055991453577,
    64.21122179394484,
    1.13930389446931,
    0.1,
]
BENCH30_TOTAL = 828.9272556924294
BENCH30_MU = 76.79152947830741


def test_table_breakpoints_match_direct_evaluation(bench3_stacks):
    table = build_table(bench3_stacks)
    assert len(table.points) == 6
    for pt, mu, p, snap in zip(table.points, BENCH3_LEVELS, BENCH3_POWERS, BENCH3_SNAPSHOTS):
        assert pt.mu == pytest.approx(mu, rel=1e-12)
        assert pt.cumulative_power == pytest.approx(p, rel=1e-12)
        assert table.currents_at(pt.mu) == pytest.approx(snap, rel=1e-9, abs=1e-12)


def test_table_ordering_and_kinds(bench3_stacks):
    table = build_table(bench3_stacks)
    kinds = [(pt.branch_index, pt.kind) for pt in table.points]
    assert kinds == [
        (0, PointKind.LOWER_BOUND),
        (1, PointKind.LOWER_BOUND),
        (2, PointKind.LOWER_BOUND),
        (0, PointKind.UPPER_BOUND),
        (1, PointKind.UPPER_BOUND),
        (2, PointKind.UPPER_BOUND),
    ]
    for pt in table.points:
        s = bench3_stacks[pt.branch_index]
        at = s.i_lb if pt.kind is PointKind.LOWER_BOUND else s.i_ub_eff
        assert pt.mu == s.marginal_power(at)
        assert table.currents_at(pt.mu)[pt.branch_index] == at


def test_table_single_branch(bench3_stacks):
    table = build_table(bench3_stacks[:1])
    s = bench3_stacks[0]
    assert len(table.points) == 2
    assert table.p_min == pytest.approx(s.power(s.i_lb), rel=1e-12)
    assert table.p_max == pytest.approx(s.power(s.i_ub_eff), rel=1e-12)


def test_table_tie_break_is_deterministic():
    rng = np.random.default_rng(3)
    net = make_random_network(rng, n_branches=2)
    twin = Network(branches=(net.branches[0], net.branches[0]))
    table = build_table(reduce_network(twin))
    # Identical branches produce equal levels; lower-bound points come first,
    # then branch index breaks the tie.
    assert [(p.kind, p.branch_index) for p in table.points] == [
        (PointKind.LOWER_BOUND, 0),
        (PointKind.LOWER_BOUND, 1),
        (PointKind.UPPER_BOUND, 0),
        (PointKind.UPPER_BOUND, 1),
    ]


def test_cumulative_power_nondecreasing_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        table = build_table(reduce_network(make_random_network(rng)))
        powers = [pt.cumulative_power for pt in table.points]
        assert all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(powers, powers[1:]))


def test_feasible_power_range(bench3_stacks):
    table = build_table(bench3_stacks)
    lo, hi = feasible_power_range(table)
    assert lo == pytest.approx(310.9713018399698, rel=1e-12)
    assert hi == pytest.approx(19206.708322827828, rel=1e-12)


def test_feasible_power_range_degenerate_branch():
    from fcdispatch import BranchSpec, Network, SqrtStackParams

    net = Network(
        branches=(
            BranchSpec(stacks=(SqrtStackParams(a=40.0, b=-1.0),), i_lb=5.0, i_ub=5.0),
        )
    )
    table = build_table(reduce_network(net))
    lo, hi = feasible_power_range(table)
    assert lo == hi == pytest.approx(reduce_network(net)[0].power(5.0), rel=1e-12)


def test_feasible_power_range_unbounded_branches(bench30_stacks):
    table = build_table(bench30_stacks)
    peak_sum = sum(s.power(s.i_ub_eff) for s in bench30_stacks)
    assert table.p_max == pytest.approx(peak_sum, rel=1e-12)
    assert all(s.marginal_power(s.i_ub_eff) == pytest.approx(0.0, abs=1e-9) for s in bench30_stacks)


def test_locate_segment_all_interior(bench3_stacks):
    table = build_table(bench3_stacks)
    sets = locate_segment(table, 8000.0)
    assert sets.interior == frozenset({0, 1, 2})
    assert sets.at_lb == frozenset()
    assert sets.at_ub == frozenset()
    assert sets.p_req_eff == pytest.approx(8000.0, rel=1e-12)


def test_locate_segment_at_minimum(bench3_stacks):
    table = build_table(bench3_stacks)
    sets = locate_segment(table, table.p_min)
    assert sets.at_lb == frozenset({0, 1, 2})
    assert sets.interior == frozenset()
    assert sets.p_req_eff == pytest.approx(0.0, abs=1e-12)


def test_locate_segment_exact_breakpoint_uses_lower_segment(bench3_stacks):
    table = build_table(bench3_stacks)
    p2 = direct_power(table, table.points[1].mu)
    sets = locate_segment(table, p2)
    assert sets.interior == frozenset({0})
    assert sets.at_lb == frozenset({1, 2})
    # Both neighboring segments solve to the same point there.
    lower = solve_segment_numeric(bench3_stacks, [0], sets.p_req_eff, sets.mu_high, sets.mu_low)
    upper = solve_segment_numeric(
        bench3_stacks,
        [0, 1],
        p2 - bench3_stacks[2].power(6.646),
        table.points[1].mu,
        table.points[2].mu,
    )
    assert lower[0] == pytest.approx(upper[0], abs=1e-6)
    assert upper[1] == pytest.approx(0.0, abs=1e-6)


def test_locate_segment_rejects_out_of_range(bench3_stacks):
    table = build_table(bench3_stacks)
    with pytest.raises(InfeasibleDemandError, match="cannot be obtained") as low:
        locate_segment(table, 100.0)
    assert low.value.status is DispatchStatus.INFEASIBLE_LOW
    with pytest.raises(InfeasibleDemandError) as high:
        locate_segment(table, 25000.0)
    assert high.value.status is DispatchStatus.INFEASIBLE_HIGH
    assert high.value.feasible_range == (table.p_min, table.p_max)


def test_dispatch_table_reports_an_infeasible_demand_without_the_exception(
    bench3_stacks, bench30_stacks, monkeypatch
):
    # dispatch_table takes the status from _locate's return; only
    # locate_segment builds InfeasibleDemandError, with the same verdict.
    module = importlib.import_module("fcdispatch.dispatch")

    def never_built(*args, **kwargs):
        raise AssertionError("InfeasibleDemandError constructed")

    low, high = DispatchStatus.INFEASIBLE_LOW, DispatchStatus.INFEASIBLE_HIGH
    for stacks in (bench3_stacks, bench30_stacks):
        table = build_table(stacks)
        cases = [
            (table.p_min - 1.0, low), (table.p_max + 1.0, high),
            (math.nan, low), (math.inf, high), (-math.inf, low),
        ]
        with monkeypatch.context() as patched:
            patched.setattr(module, "InfeasibleDemandError", never_built)
            for p, status in cases:
                result = dispatch_table(table, p)
                assert result.status is status
                assert result.feasible_range is feasible_power_range(table)
                assert result.currents is None and result.sets is None

        p_low, p_high = table._columns.p_low, table._columns.p_high
        edges = [p_low, p_high, math.nextafter(p_low, -math.inf), math.nextafter(p_high, math.inf)]
        for p in edges:
            result = dispatch_table(table, p)
            if result.status is DispatchStatus.OPTIMAL:
                assert locate_segment(table, p) == result.sets
                continue
            with pytest.raises(InfeasibleDemandError) as err:
                locate_segment(table, p)
            assert err.value.status is result.status
            assert err.value.p_req == p
            assert err.value.feasible_range == (table.p_min, table.p_max)
            assert str(err.value) == (
                f"Required power cannot be obtained: p_req={p} W outside "
                f"[{table.p_min}, {table.p_max}] W"
            )
        assert [dispatch_table(table, p).status for p in edges] == [
            DispatchStatus.OPTIMAL, DispatchStatus.OPTIMAL, low, high
        ]


def test_segment_cubic_candidates(bench3_stacks):
    candidates = solve_segment_sqrt(bench3_stacks, [0, 1, 2], 8000.0)
    totals = sorted(sum(c.currents) for c in candidates)
    assert totals == pytest.approx([191.94, 234.32, 9300.17], abs=0.05)
    assert totals == pytest.approx(
        [191.94078992156383, 234.31973134168695, 9300.171616643656], rel=1e-6
    )


def test_segment_cubic_single_branch(bench3_stacks):
    # One interior branch reduces to a*I + b*I^1.5 = demand.
    s = bench3_stacks[0]
    target = s.power(50.0)
    candidates = solve_segment_sqrt(bench3_stacks, [0], target)
    best = min(candidates, key=lambda c: abs(c.currents[0] - 50.0))
    assert best.currents[0] == pytest.approx(50.0, rel=1e-9)


def test_segment_cubic_reference_invariance(bench3_stacks, bench30_stacks):
    for stacks, interior, p_eff in [
        (bench3_stacks, [0, 1, 2], 8000.0),
        (bench30_stacks, sorted(set(range(15)) - {1, 7, 14}), 74988.07),
    ]:
        picks = []
        for ref in interior:
            cands = solve_segment_sqrt(stacks, interior, p_eff, ref_branch=ref)
            picks.append(select_feasible_root(cands, stacks, interior).currents)
        for other in picks[1:]:
            assert other == pytest.approx(picks[0], rel=1e-9, abs=1e-6)


def test_select_feasible_root_unique(bench3_stacks):
    candidates = solve_segment_sqrt(bench3_stacks, [0, 1, 2], 8000.0)
    chosen = select_feasible_root(candidates, bench3_stacks, [0, 1, 2])
    assert chosen.currents == pytest.approx(
        (81.02027467268572, 136.22818602492, 17.07127064408124), rel=1e-9
    )


def test_select_rejects_negative_sqrt_current(bench3_stacks):
    # The smallest root squares into the current box but has a negative
    # sqrt-current on branch 2, so current-space screening alone would
    # wrongly accept it.
    candidates = solve_segment_sqrt(bench3_stacks, [0, 1, 2], 8000.0)
    small = min(candidates, key=lambda c: c.x_ref)
    assert small.x_values[1] == pytest.approx(-6.049787363335422, rel=1e-6)
    assert 0.0 <= small.currents[1] <= bench3_stacks[1].i_ub_eff
    chosen = select_feasible_root(candidates, bench3_stacks, [0, 1, 2])
    assert chosen.x_ref != small.x_ref


def test_select_single_candidate_in_bounds(bench3_stacks):
    candidates = solve_segment_sqrt(bench3_stacks, [0], bench3_stacks[0].power(50.0))
    feasible = select_feasible_root(candidates, bench3_stacks, [0])
    assert feasible.currents[0] == pytest.approx(50.0, rel=1e-9)


def test_select_errors_when_nothing_feasible(bench3_stacks):
    candidates = solve_segment_sqrt(bench3_stacks, [0, 1, 2], 8000.0)
    # Screen against the wrong branch bounds: nothing passes.
    with pytest.raises(SegmentSolveError, match="feasible root"):
        select_feasible_root(candidates, bench3_stacks[:1] * 3, [0, 1, 2])


def test_numeric_segment_matches_cubic(bench3_stacks):
    table = build_table(bench3_stacks)
    sets = locate_segment(table, 8000.0)
    numeric = solve_segment_numeric(
        bench3_stacks, sorted(sets.interior), sets.p_req_eff, sets.mu_high, sets.mu_low
    )
    cubic = select_feasible_root(
        solve_segment_sqrt(bench3_stacks, sorted(sets.interior), sets.p_req_eff),
        bench3_stacks,
        sorted(sets.interior),
    ).currents
    assert numeric == pytest.approx(cubic, abs=1e-6)


def test_numeric_segment_bracket_violation(bench3_stacks):
    with pytest.raises(SegmentSolveError, match="bracket"):
        solve_segment_numeric(bench3_stacks, [0], 1e9, 44.0, 39.9)


def test_segment_solvers_reject_an_empty_interior(bench3_stacks):
    with pytest.raises(SegmentSolveError, match="empty"):
        solve_segment_sqrt(bench3_stacks, [], 8000.0)
    with pytest.raises(SegmentSolveError, match="empty"):
        solve_segment_numeric(bench3_stacks, [], 8000.0, 44.0, 39.9)


def test_segment_cubic_rejects_a_reference_outside_the_interior(bench3_stacks):
    with pytest.raises(ValueError, match="ref_branch 2"):
        solve_segment_sqrt(bench3_stacks, [0, 1], 8000.0, ref_branch=2)


def test_dispatch_table_rejects_a_level_that_misses_the_demand(bench3_stacks, monkeypatch):
    # A level solve that returns the middle of its window, far from the
    # root, with every branch's current and power at that level: the power
    # balance that guards every result catches it.
    # The package exports a function named dispatch, which shadows the module.
    module = importlib.import_module("fcdispatch.dispatch")
    table = build_table(bench3_stacks)

    def mid_window(window, p_req_eff):
        mu = 0.5 * (window.mu_low + window.mu_high)
        return mu, 1, module._at_level(table._columns, mu)

    monkeypatch.setattr(module, "_solve_level", mid_window)
    levels = [pt.mu for pt in table.points]
    for high, low in zip(levels, levels[1:]):
        p = direct_power(table, low + 0.1 * (high - low))
        with pytest.raises(SegmentSolveError, match="power balance violated"):
            dispatch_table(table, p)
    # A breakpoint's zero-width window needs no level solve.
    assert dispatch_table(table, direct_power(table, levels[2])).mu == levels[2]


def test_numeric_segment_power_residual_random():
    rng = np.random.default_rng(20)
    for _ in range(20):
        net = make_random_network(rng)
        stacks = reduce_network(net)
        table = build_table(stacks)
        p_lo, p_hi = power_range(net)
        p = p_lo + float(rng.uniform(0.05, 0.95)) * (p_hi - p_lo)
        sets = locate_segment(table, p)
        if not sets.interior:
            continue
        currents = solve_segment_numeric(
            stacks, sorted(sets.interior), sets.p_req_eff, sets.mu_high, sets.mu_low
        )
        got = sum(stacks[j].power(i) for j, i in zip(sorted(sets.interior), currents))
        assert abs(got - sets.p_req_eff) <= 1e-9 * max(1.0, abs(sets.p_req_eff))


def test_dispatch_benchmark_demand(bench3_network):
    result = dispatch(bench3_network, 8000.0)
    assert result.status is DispatchStatus.OPTIMAL
    assert result.total_current == pytest.approx(234.32, abs=0.05)
    assert result.currents == pytest.approx((81.02, 136.23, 17.07), abs=0.05)
    assert result.mu == pytest.approx(30.143308782903237, rel=1e-9)
    assert result.total_power == pytest.approx(8000.0, rel=1e-9)
    assert result.sets.interior == frozenset({0, 1, 2})


def test_dispatch_at_minimum_pins_every_branch(bench3_network, bench3_stacks):
    table = build_table(bench3_stacks)
    result = dispatch(bench3_network, table.p_min)
    assert result.currents == pytest.approx((2.103, 0.0, 6.646), abs=1e-12)
    assert result.total_power == pytest.approx(table.p_min, rel=1e-12)


def test_dispatch_at_maximum_reaches_every_effective_bound(bench3_network, bench3_stacks):
    table = build_table(bench3_stacks)
    result = dispatch(bench3_network, table.p_max)
    assert result.currents == pytest.approx(
        tuple(s.i_ub_eff for s in bench3_stacks), rel=1e-9
    )


def test_dispatch_infeasible_statuses(bench3_network):
    low = dispatch(bench3_network, 100.0)
    assert low.status is DispatchStatus.INFEASIBLE_LOW
    assert low.currents is None
    assert low.feasible_range[0] == pytest.approx(310.9713018399698, rel=1e-12)
    high = dispatch(bench3_network, 1e9)
    assert high.status is DispatchStatus.INFEASIBLE_HIGH


def test_dispatch_thirty_stack_benchmark(bench30_network):
    result = dispatch(bench30_network, 75000.0)
    assert result.status is DispatchStatus.OPTIMAL
    # Published rounded total carries a 0.1 A allowance.
    assert result.total_current == pytest.approx(828.88, abs=0.1)
    assert result.total_current == pytest.approx(BENCH30_TOTAL, rel=1e-9)
    assert result.mu == pytest.approx(BENCH30_MU, rel=1e-9)
    assert result.currents == pytest.approx(BENCH30_CURRENTS, rel=1e-7, abs=1e-9)
    assert result.sets.at_lb == frozenset({1, 7, 14})
    assert result.total_power == pytest.approx(75000.0, rel=1e-9)


def test_dispatch_exactly_at_breakpoint(
    bench3_network, bench3_stacks, bench30_network, bench30_stacks
):
    for network, stacks in ((bench3_network, bench3_stacks), (bench30_network, bench30_stacks)):
        table = build_table(stacks)
        direct = [direct_power(table, pt.mu) for pt in table.points]
        for p in direct:
            result = dispatch(network, p)
            assert result.status is DispatchStatus.OPTIMAL
            # A demand runs at the level of the first point whose direct
            # power equals it; bench30's top points share one power.
            hit = table.points[direct.index(p)]
            assert result.mu == hit.mu
            assert result.currents == table.currents_at(hit.mu)
            assert result.total_power == p


def test_open_window_without_interior_branch():
    # The window between branch 0's points and branch 1's is open while no
    # branch is interior in it. The level solve then only bisects, and
    # branch 0 runs at its upper bound.
    stacks = reduce_network(OPEN_WINDOW_NETWORK)
    s = stacks[0]
    assert s.i_lb < s.i_ub_eff and s.marginal_power(s.i_lb) == s.marginal_power(s.i_ub_eff)
    table = build_table(stacks)
    p = 0.5 * (table.points[1].cumulative_power + table.points[2].cumulative_power)
    result = dispatch_table(table, p)
    assert result.status is DispatchStatus.OPTIMAL
    assert not result.sets.interior and result.sets.mu_low < result.sets.mu_high
    assert result.currents == (stacks[0].i_ub_eff, stacks[1].i_lb)
    assert abs(result.total_power - p) <= 1e-9 * p
    assert verify_kkt(result, stacks).ok


def test_empty_network_is_rejected(bench3_stacks):
    optimal = dispatch(bench3_stacks, 8000.0)
    calls = [
        lambda: build_table(()),
        lambda: dispatch((), 100.0),
        lambda: lambda_bisection((), 100.0),
        lambda: grid_bruteforce((), 100.0, 10),
        lambda: verify_kkt(optimal, ()),
    ]
    for call in calls:
        with pytest.raises(NetworkValidationError, match="network has no branches"):
            call()


def test_dispatch_reduction_commutes(bench30_network, bench30_stacks):
    direct = dispatch(bench30_network, 75000.0)
    reduced = dispatch(bench30_stacks, 75000.0)
    assert direct.currents == reduced.currents
    assert direct.total_current == reduced.total_current


def test_dispatch_reduces_each_branch_once(bench30_network, reduce_branch_calls):
    dispatch(bench30_network, 75000.0)
    assert len(reduce_branch_calls) == len(bench30_network.branches) == 15


def test_dispatch_branch_order_permutation(bench3_network):
    perm = [2, 0, 1]
    shuffled = Network(branches=tuple(bench3_network.branches[j] for j in perm))
    base = dispatch(bench3_network, 8000.0)
    other = dispatch(shuffled, 8000.0)
    for pos, j in enumerate(perm):
        assert other.currents[pos] == pytest.approx(base.currents[j], rel=1e-9)


def test_dispatch_table_is_reusable(bench3_stacks):
    table = build_table(bench3_stacks)
    totals = [dispatch_table(table, p).total_current for p in (1000.0, 8000.0, 15000.0)]
    assert totals == sorted(totals)


def test_monotone_dispatch_curve(bench3_network):
    table = build_table(reduce_network(bench3_network))
    demands = np.linspace(table.p_min, table.p_max, 200)
    prev = None
    prev_total = None
    for p in demands:
        res = dispatch_table(table, float(p))
        assert res.status is DispatchStatus.OPTIMAL
        if prev is not None:
            for a, b in zip(prev, res.currents):
                assert b >= a - 1e-9
            assert res.total_current > prev_total
        prev = res.currents
        prev_total = res.total_current


def test_only_interior_branches_move_within_segment(bench3_stacks):
    table = build_table(bench3_stacks)
    for lo_pt, hi_pt in zip(table.points, table.points[1:]):
        if hi_pt.cumulative_power - lo_pt.cumulative_power < 1e-9:
            continue
        demands = np.linspace(lo_pt.cumulative_power, hi_pt.cumulative_power, 25)[1:-1]
        sets = locate_segment(table, float(demands[0]))
        for p in demands:
            res = dispatch_table(table, float(p))
            for j in sets.at_lb:
                assert res.currents[j] == table.stacks[j].i_lb
            for j in sets.at_ub:
                assert res.currents[j] == table.stacks[j].i_ub_eff


def test_dispatch_agrees_with_oracle_on_random_networks():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        net = make_random_network(rng)
        p_lo, p_hi = power_range(net)
        for u in rng.uniform(0.0, 1.0, size=5):
            p = p_lo + float(u) * (p_hi - p_lo)
            got = dispatch(net, p)
            assert got.status is DispatchStatus.OPTIMAL
            ref = lambda_bisection(net, p)
            assert got.total_current == pytest.approx(ref.total_current, rel=1e-4)
            assert got.currents == pytest.approx(ref.currents, abs=1e-3)


def test_cross_method_agreement_on_every_segment():
    rng = np.random.default_rng(31)
    nets = [make_random_network(rng) for _ in range(10)]
    from conftest import build_bench3_network, build_bench30_network

    nets += [build_bench3_network(), build_bench30_network()]
    for net in nets:
        stacks = reduce_network(net)
        table = build_table(stacks)
        for lo_pt, hi_pt in zip(table.points, table.points[1:]):
            if hi_pt.cumulative_power - lo_pt.cumulative_power < 1e-6:
                continue
            p = 0.5 * (lo_pt.cumulative_power + hi_pt.cumulative_power)
            sets = locate_segment(table, p)
            if not sets.interior:
                continue
            order = sorted(sets.interior)
            numeric = solve_segment_numeric(
                stacks, order, sets.p_req_eff, sets.mu_high, sets.mu_low
            )
            cubic = select_feasible_root(
                solve_segment_sqrt(stacks, order, sets.p_req_eff), stacks, order
            ).currents
            assert numeric == pytest.approx(cubic, abs=1e-6)
            # The production level solve must agree with both.
            got = dispatch_table(table, p).currents
            assert [got[j] for j in order] == pytest.approx(numeric, abs=1e-6)


def test_verify_kkt_benchmark(bench3_network):
    result = dispatch(bench3_network, 8000.0)
    report = verify_kkt(result, bench3_network)
    assert report.ok
    assert report.max_equal_marginal_residual <= 1e-3
    assert report.chain_ok
    assert report.lambda_ == pytest.approx(1.0 / 30.143308782903237, rel=1e-9)
    assert all(m == 0.0 for m in report.mu_multipliers)
    assert all(g == 0.0 for g in report.gamma_multipliers)


def test_verify_kkt_all_at_lower_bound(bench3_network, bench3_stacks):
    table = build_table(bench3_stacks)
    result = dispatch(bench3_network, table.p_min)
    report = verify_kkt(result, bench3_network)
    assert report.ok
    assert report.max_equal_marginal_residual == 0.0
    assert all(m >= 0.0 for m in report.mu_multipliers)


def test_verify_kkt_multiplier_formulas(bench3_network):
    # Demand inside the segment where branch 1 is at its upper bound and
    # branch 3 still at its lower bound.
    result = dispatch(bench3_network, 13000.0)
    assert result.sets.at_ub == frozenset({0})
    report = verify_kkt(result, bench3_network)
    assert report.ok
    stacks = reduce_network(bench3_network)
    expect_gamma = stacks[0].marginal_power(stacks[0].i_ub_eff) / result.mu - 1.0
    assert report.gamma_multipliers[0] == pytest.approx(expect_gamma, rel=1e-9)
    assert report.gamma_multipliers[0] > 0.0


def test_verify_kkt_detects_perturbation(bench3_network):
    import dataclasses

    result = dispatch(bench3_network, 8000.0)
    currents = list(result.currents)
    currents[1] += 1.0
    tampered = dataclasses.replace(result, currents=tuple(currents))
    report = verify_kkt(tampered, bench3_network)
    assert report.max_equal_marginal_residual > 1e-6
    assert not report.ok
    # Power balance also breaks, as a second independent signal.
    stacks = reduce_network(bench3_network)
    total = sum(s.power(i) for s, i in zip(stacks, tampered.currents))
    assert abs(total - tampered.p_req) > 1e-9 * max(1.0, tampered.p_req)


def test_verify_kkt_detects_unpinned_bound(bench3_network):
    import dataclasses

    table = build_table(reduce_network(bench3_network))
    result = dispatch(bench3_network, table.p_min)
    currents = list(result.currents)
    currents[0] += 1.0
    tampered = dataclasses.replace(result, currents=tuple(currents))
    assert not verify_kkt(tampered, bench3_network).chain_ok


def test_verify_kkt_requires_optimal_result(bench3_network):
    bad = dispatch(bench3_network, 1.0)
    with pytest.raises(ValueError):
        verify_kkt(bad, bench3_network)


def test_verify_kkt_requires_the_results_branch_count(bench3_network, bench30_network):
    # A 15-branch result against 3 branches, and a 3-branch one against 15:
    # neither has a multiplier for every branch.
    small, large = dispatch(bench3_network, 8000.0), dispatch(bench30_network, 60000.0)
    assert small.status is large.status is DispatchStatus.OPTIMAL
    with pytest.raises(ValueError, match="the result has 15 branches, the network 3"):
        verify_kkt(large, bench3_network)
    with pytest.raises(ValueError, match="the result has 3 branches, the network 15"):
        verify_kkt(small, bench30_network)


def test_verify_kkt_at_peak_demand(bench30_network, bench30_stacks):
    table = build_table(bench30_stacks)
    result = dispatch(bench30_network, table.p_max)
    assert result.mu == pytest.approx(0.0, abs=1e-9)
    report = verify_kkt(result, bench30_network)
    assert report.chain_ok
    assert math.isinf(report.lambda_) or report.lambda_ > 1e9


@pytest.mark.xfail(strict=True, raises=SegmentSolveError, reason="the demand's level rounds to 1.0")
def test_tiny_b_branch_meets_a_demand_inside_its_table():
    result = dispatch_table(build_table(reduce_network(TINY_B)), 0.5)
    assert result.status is DispatchStatus.OPTIMAL
    assert abs(result.total_power - 0.5) <= 1e-9


def test_lambda_bisection_on_a_tiny_b_branch_meets_the_demand_or_raises():
    try:
        result = lambda_bisection(TINY_B, 0.5)
    except ValueError:
        return
    assert abs(result.total_power - 0.5) <= 1e-9


def test_lambda_bisection_raises_where_a_tiny_b_current_overflows():
    # At b = -1e-160 the power peak lies beyond the float range: the level
    # bisection ends at an infinite current, whose power is NaN.
    net = Network(branches=(BranchSpec(stacks=(SqrtStackParams(a=1.0, b=-1e-160),), i_lb=0.0),))
    with pytest.raises(ValueError) as info:
        lambda_bisection(net, 0.5)
    assert str(info.value) == "power balance missed: got nan W for demand 0.5 W"

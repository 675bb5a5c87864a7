import numpy as np
import pytest

from fcdispatch import (
    OracleMethod,
    compare,
    dispatch,
    grid_bruteforce,
    lambda_bisection,
    reduce_network,
)

from conftest import make_random_network, power_range


def test_lambda_bisection_benchmark(bench3_network):
    got = lambda_bisection(bench3_network, 8000.0)
    assert got.method is OracleMethod.LAMBDA_BISECTION
    assert got.currents == pytest.approx((81.02, 136.23, 17.07), abs=1e-2)
    assert got.total_power == pytest.approx(8000.0, rel=1e-9)


def test_lambda_bisection_at_minimum(bench3_network, bench3_stacks):
    p_min = sum(s.power(s.i_lb) for s in bench3_stacks)
    got = lambda_bisection(bench3_network, p_min)
    assert got.currents == pytest.approx(tuple(s.i_lb for s in bench3_stacks), abs=1e-9)


def test_lambda_bisection_thirty_stack_total(bench30_network):
    got = lambda_bisection(bench30_network, 75000.0)
    assert got.total_current == pytest.approx(828.88, abs=0.1)
    assert got.total_current == pytest.approx(828.9272556924294, rel=1e-6)


def test_lambda_bisection_rejects_out_of_range(bench3_network):
    with pytest.raises(ValueError, match="outside obtainable range"):
        lambda_bisection(bench3_network, 100.0)
    with pytest.raises(ValueError, match="outside obtainable range"):
        lambda_bisection(bench3_network, 1e9)


def test_lambda_bisection_level_matches_dispatch_level():
    rng = np.random.default_rng(23)
    for _ in range(20):
        net = make_random_network(rng)
        p_lo, p_hi = power_range(net)
        p = p_lo + float(rng.uniform(0.1, 0.9)) * (p_hi - p_lo)
        res = dispatch(net, p)
        if not res.sets.interior:
            continue
        stacks = reduce_network(net)
        oracle = lambda_bisection(net, p)
        j = min(res.sets.interior)
        oracle_mu = stacks[j].marginal_power(oracle.currents[j])
        assert oracle_mu == pytest.approx(res.mu, abs=1e-6)


def test_grid_benchmark_demand(bench3_network):
    got = grid_bruteforce(bench3_network, 8000.0, 200)
    assert got.method is OracleMethod.GRID_SEARCH
    assert got.total_current == pytest.approx(234.32, abs=1.0)
    # A feasible grid point can never beat the true optimum.
    best = dispatch(bench3_network, 8000.0).total_current
    assert got.total_current >= best - 1e-6
    assert got.total_power == pytest.approx(8000.0, rel=1e-9)


def test_grid_single_branch_is_exact(bench3_stacks):
    s = bench3_stacks[0]
    target = s.power(42.0)
    got = grid_bruteforce(bench3_stacks[:1], target, 50)
    assert got.currents[0] == pytest.approx(42.0, rel=1e-9)


def test_grid_rejects_too_many_branches(bench30_stacks):
    with pytest.raises(ValueError, match="at most 3"):
        grid_bruteforce(bench30_stacks, 75000.0, 50)


def test_grid_rejects_bad_resolution(bench3_stacks):
    with pytest.raises(ValueError, match="points_per_branch"):
        grid_bruteforce(bench3_stacks, 8000.0, 1)
    with pytest.raises(ValueError, match="points_per_branch"):
        grid_bruteforce(bench3_stacks, 8000.0, 10_000)


def test_grid_rejects_infeasible_demand(bench3_stacks):
    with pytest.raises(ValueError):
        grid_bruteforce(bench3_stacks[:1], 1e9, 50)


def test_grid_nested_refinement_never_worse():
    # linspace grids nest when the point count goes n -> 2n-1, so the best
    # total is nonincreasing along the refinement.
    rng = np.random.default_rng(29)
    for _ in range(5):
        net = make_random_network(rng, n_branches=2)
        p_lo, p_hi = power_range(net)
        p = p_lo + 0.4 * (p_hi - p_lo)
        totals = []
        pts = 25
        for _ in range(4):
            totals.append(grid_bruteforce(net, p, pts).total_current)
            pts = 2 * pts - 1
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_grid_brackets_dispatch_within_spacing():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        net = make_random_network(rng, n_branches=n)
        stacks = reduce_network(net)
        p_lo, p_hi = power_range(net)
        p = p_lo + float(rng.uniform(0.2, 0.8)) * (p_hi - p_lo)
        best = dispatch(net, p).total_current
        got = grid_bruteforce(net, p, 100)
        spacing = sum((s.i_ub_eff - s.i_lb) / 99.0 for s in stacks[:-1])
        assert best - 1e-6 <= got.total_current <= best + spacing + 1e-6


def test_compare_identical_inputs(bench3_network):
    res = dispatch(bench3_network, 8000.0)
    fake_oracle = lambda_bisection(bench3_network, 8000.0)
    report = compare(res, fake_oracle, 1e-3)
    assert report.passed
    assert report.max_branch_delta <= 1e-3


def test_compare_self_is_zero(bench3_network):
    from fcdispatch import OracleResult

    res = dispatch(bench3_network, 8000.0)
    clone = OracleResult(
        currents=res.currents,
        total_current=res.total_current,
        total_power=res.total_power,
        method=OracleMethod.LAMBDA_BISECTION,
    )
    report = compare(res, clone, 1e-12)
    assert report.branch_deltas == (0.0, 0.0, 0.0)
    assert report.total_delta == 0.0
    assert report.passed


def test_compare_flags_mismatch(bench3_network):
    from fcdispatch import OracleResult

    res = dispatch(bench3_network, 8000.0)
    shifted = OracleResult(
        currents=tuple(i + 0.01 for i in res.currents),
        total_current=res.total_current + 0.03,
        total_power=res.total_power,
        method=OracleMethod.GRID_SEARCH,
    )
    report = compare(res, shifted, 1e-3)
    assert not report.passed
    assert report.max_branch_delta == pytest.approx(0.01, rel=1e-9)


def test_compare_rejects_a_branch_count_mismatch(bench3_network):
    from fcdispatch import OracleResult

    res = dispatch(bench3_network, 8000.0)
    short = OracleResult(
        currents=res.currents[:2],
        total_current=sum(res.currents[:2]),
        total_power=res.total_power,
        method=OracleMethod.LAMBDA_BISECTION,
    )
    with pytest.raises(ValueError, match="different numbers of branches"):
        compare(res, short, 1e-3)


def test_compare_requires_optimal_result(bench3_network):
    bad = dispatch(bench3_network, 1.0)
    oracle = lambda_bisection(bench3_network, 8000.0)
    with pytest.raises(ValueError):
        compare(bad, oracle, 1e-3)


def test_grid_coarse_certificate_against_dispatch(bench3_network):
    res = dispatch(bench3_network, 8000.0)
    grid = grid_bruteforce(bench3_network, 8000.0, 200)
    stacks = reduce_network(bench3_network)
    spacing = sum((s.i_ub_eff - s.i_lb) / 199.0 for s in stacks[:-1])
    report = compare(res, grid, spacing)
    assert report.passed

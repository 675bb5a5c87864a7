import math
import random

import numpy as np
import pytest

from fcdispatch import (
    BranchSpec,
    Network,
    NetworkValidationError,
    SqrtStackParams,
    dispatch,
    effective_upper_bound,
    reduce_branch,
    reduce_network,
    validate_network,
)

from conftest import build_bench3_network, make_random_network


def test_power_benchmark_values(bench3_stacks):
    # Branch 1 at its lower bound and branch 3 at its lower bound; published
    # rounded values carry a 0.01 W allowance.
    assert bench3_stacks[0].power(2.103) == pytest.approx(96.27, abs=0.01)
    assert bench3_stacks[0].power(2.103) == pytest.approx(96.26298780364557, rel=1e-12)
    assert bench3_stacks[2].power(6.646) == pytest.approx(214.71, abs=0.01)
    assert bench3_stacks[2].power(6.646) == pytest.approx(214.70831403632423, rel=1e-12)


def test_power_zero_current_is_zero(bench3_stacks):
    for s in bench3_stacks:
        assert s.power(0.0) == 0.0


def test_power_rejects_negative_current(bench3_stacks):
    with pytest.raises(ValueError):
        bench3_stacks[0].power(-0.5)
    with pytest.raises(ValueError):
        bench3_stacks[0].marginal_power(-1e-9)


def test_marginal_power_benchmark_values(bench3_stacks):
    assert bench3_stacks[0].marginal_power(2.103) == pytest.approx(44.834, abs=1e-3)
    assert bench3_stacks[1].marginal_power(0.0) == 39.895
    assert bench3_stacks[0].marginal_power(106.8127) == pytest.approx(27.548, abs=1e-3)


def test_marginal_power_matches_finite_differences(bench3_stacks):
    for s in bench3_stacks:
        for i in (1.0, 10.0, 50.0, 100.0):
            h = 1e-6 * max(1.0, i)
            fd = (s.power(i + h) - s.power(i - h)) / (2.0 * h)
            assert s.marginal_power(i) == pytest.approx(fd, rel=1e-6)


def test_inverse_marginal_clamps_to_lower_bound(bench3_stacks):
    s = bench3_stacks[0]
    # The published level 44.834 sits just above the exact lb marginal, so
    # the unclamped current falls below the bound and clamps onto it.
    assert s.inverse_marginal(44.834) == s.i_lb
    # mu equal to a_eq maps to x = 0, clamped up to the lower bound.
    assert s.inverse_marginal(s.a_eq) == s.i_lb


def test_inverse_marginal_benchmark_value(bench3_stacks):
    assert bench3_stacks[0].inverse_marginal(30.143) == pytest.approx(81.02, abs=0.01)


def test_inverse_marginal_monotone_and_total(bench3_stacks):
    s = bench3_stacks[0]
    levels = np.linspace(-50.0, 100.0, 301)
    currents = [s.inverse_marginal(float(mu)) for mu in levels]
    assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(currents, currents[1:]))
    assert all(s.i_lb <= c <= s.i_ub_eff for c in currents)


def test_inverse_marginal_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        net = make_random_network(rng)
        for s in reduce_network(net):
            for u in rng.uniform(0.0, 1.0, size=5):
                i = s.i_lb + float(u) * (s.i_ub_eff - s.i_lb)
                back = s.inverse_marginal(s.marginal_power(i))
                assert back == pytest.approx(i, rel=1e-9, abs=1e-9)


def _wide_scale_stack(rng: random.Random):
    # One branch from the tests/test_wide_scale.py distribution.
    a = rng.choice([0.0, 1e-3, 30.0 + 30.0 * rng.random(), 1e4])
    b = -(10.0 ** (-4.0 + 5.0 * rng.random()))
    phi = 0.01 + 0.99 * rng.random()
    peak = effective_upper_bound(phi * a, phi * b, math.inf)
    i_lb = 0.5 * rng.random() * peak
    kind = rng.choice(["zero", "inf", "finite", "finite", "finite"])
    if kind == "zero":
        i_ub = i_lb
    elif kind == "inf":
        i_ub = math.inf
    else:
        i_ub = i_lb + 1.5 * rng.random() * peak
    stack = SqrtStackParams(a=a, b=b, phi=phi)
    return reduce_branch(BranchSpec(stacks=(stack,), i_lb=i_lb, i_ub=i_ub))


def test_inverse_marginal_is_exact_at_its_bound_levels():
    # The level of a bound maps back to that bound bit for bit, so a
    # breakpoint's level gives exactly its bound currents.
    rng = random.Random(20261018)
    for _ in range(3000):
        s = _wide_scale_stack(rng)
        assert s.inverse_marginal(s.marginal_power(s.i_lb)) == s.i_lb
        assert s.inverse_marginal(s.marginal_power(s.i_ub_eff)) == s.i_ub_eff


def test_marginal_power_strictly_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        net = make_random_network(rng)
        for s in reduce_network(net):
            i1, i2 = sorted(rng.uniform(1e-6, max(s.i_ub_eff, 1.0), size=2))
            if i1 == i2:
                continue
            assert s.marginal_power(i1) > s.marginal_power(i2)


def test_effective_upper_bound_at_power_peak():
    # Root of the marginal by bisection, independent of the closed form.
    a_eq, b_eq = 78.8416, -0.4416
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a_eq + 1.5 * b_eq * math.sqrt(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    peak = 0.5 * (lo + hi)
    assert effective_upper_bound(a_eq, b_eq, math.inf) == pytest.approx(peak, abs=1e-6)
    assert effective_upper_bound(a_eq, b_eq, math.inf) == pytest.approx(14166.749375714717, rel=1e-12)


def test_effective_upper_bound_finite_bound_wins():
    assert effective_upper_bound(78.8416, -0.4416, 10.0) == 10.0


def test_effective_upper_bound_keeps_declared_bound(bench3_stacks):
    s = bench3_stacks[0]
    assert s.i_ub_eff == 106.8127
    assert s.marginal_power(s.i_ub_eff) > 0.0


def test_power_peaks_at_effective_upper_bound():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = make_random_network(rng)
        for s in reduce_network(net):
            if not math.isfinite(s.i_ub):
                continue
            p_eff = s.power(s.i_ub_eff)
            for u in rng.uniform(0.0, 1.0, size=5):
                i = s.i_ub_eff + float(u) * (s.i_ub - s.i_ub_eff)
                assert p_eff >= s.power(i) - 1e-9 * max(1.0, abs(p_eff))


def test_reduce_branch_pair():
    branch = BranchSpec(
        stacks=(
            SqrtStackParams(a=49.25, b=-0.25, phi=0.8),
            SqrtStackParams(a=49.302, b=-0.302, phi=0.8),
        ),
        i_lb=0.1,
        i_ub=math.inf,
    )
    eq = reduce_branch(branch)
    assert eq.a_eq == pytest.approx(78.8416, abs=1e-12)
    assert eq.b_eq == pytest.approx(-0.4416, abs=1e-12)
    assert eq.i_lb == 0.1
    assert math.isinf(eq.i_ub)
    assert math.isfinite(eq.i_ub_eff)


def test_reduce_branch_triple():
    branch = BranchSpec(
        stacks=(
            SqrtStackParams(a=49.405, b=-0.405, phi=0.8),
            SqrtStackParams(a=49.457, b=-0.457, phi=0.8),
            SqrtStackParams(a=49.509, b=-0.509, phi=0.8),
        ),
        i_lb=0.1,
        i_ub=math.inf,
    )
    eq = reduce_branch(branch)
    assert eq.a_eq == pytest.approx(118.6968, abs=1e-4)
    assert eq.b_eq == pytest.approx(-1.0968, abs=1e-4)


def test_reduce_single_stack_is_identity():
    branch = BranchSpec(stacks=(SqrtStackParams(a=40.0, b=-1.0),), i_lb=0.0, i_ub=50.0)
    eq = reduce_branch(branch)
    assert eq.a_eq == 40.0
    assert eq.b_eq == -1.0


def test_reduction_preserves_power_exactly():
    rng = np.random.default_rng(17)
    for _ in range(40):
        net = make_random_network(rng)
        for branch, eq in zip(net.branches, reduce_network(net)):
            hi = eq.i_ub if math.isfinite(eq.i_ub) else 2.0 * eq.i_ub_eff
            for u in rng.uniform(0.0, 1.0, size=100):
                i = float(u) * hi
                direct = sum(
                    s.phi * (s.a + s.b * math.sqrt(i)) * i for s in branch.stacks
                )
                assert abs(eq.power(i) - direct) <= 1e-9 * max(1.0, abs(direct))


def test_validate_accepts_benchmark_networks(bench3_network, bench30_network):
    assert validate_network(bench3_network) is bench3_network
    assert validate_network(bench30_network) is bench30_network


@pytest.mark.parametrize(
    "stack, fragment",
    [
        (SqrtStackParams(a=-1.0, b=-0.5), "a must be"),
        (SqrtStackParams(a=40.0, b=0.0), "b must be"),
        (SqrtStackParams(a=40.0, b=0.3), "b must be"),
        (SqrtStackParams(a=40.0, b=-0.5, phi=0.0), "phi must be"),
        (SqrtStackParams(a=40.0, b=-0.5, phi=1.2), "phi must be"),
    ],
)
def test_validate_rejects_bad_stack(stack, fragment):
    net = Network(branches=(BranchSpec(stacks=(stack,), i_lb=0.0, i_ub=10.0),))
    with pytest.raises(NetworkValidationError, match=fragment):
        validate_network(net)


def test_validate_rejects_inverted_bounds():
    net = Network(
        branches=(
            BranchSpec(stacks=(SqrtStackParams(a=40.0, b=-0.5),), i_lb=5.0, i_ub=2.0),
        )
    )
    with pytest.raises(NetworkValidationError, match="i_lb <= i_ub"):
        validate_network(net)


def test_validate_rejects_negative_lower_bound():
    net = Network(
        branches=(
            BranchSpec(stacks=(SqrtStackParams(a=40.0, b=-0.5),), i_lb=-1.0, i_ub=2.0),
        )
    )
    with pytest.raises(NetworkValidationError):
        validate_network(net)


def test_validate_rejects_empty_inputs():
    with pytest.raises(NetworkValidationError, match="no branches"):
        validate_network(Network(branches=()))
    net = Network(branches=(BranchSpec(stacks=(), i_lb=0.0, i_ub=1.0),))
    with pytest.raises(NetworkValidationError, match="no stacks"):
        validate_network(net)


def test_validate_rejects_lower_bound_past_power_peak():
    # Power peaks at (2a/3|b|)^2 = 4 A; a lower bound beyond it leaves no
    # sensible operating range.
    net = Network(
        branches=(
            BranchSpec(stacks=(SqrtStackParams(a=3.0, b=-1.0),), i_lb=9.0, i_ub=20.0),
        )
    )
    with pytest.raises(NetworkValidationError, match="peaks"):
        validate_network(net)


def test_validation_error_names_branch_and_stack():
    net = build_bench3_network()
    bad = Network(
        branches=net.branches[:2]
        + (
            BranchSpec(
                stacks=(SqrtStackParams(a=33.847, b=-0.5976), SqrtStackParams(a=30.0, b=1.0)),
                i_lb=0.0,
                i_ub=10.0,
            ),
        )
    )
    with pytest.raises(NetworkValidationError, match=r"branches\[2\].stacks\[1\]"):
        validate_network(bad)


_OK = (40.0, -0.5, 1.0)  # (a, b, phi)


@pytest.mark.parametrize(
    "stacks, i_lb, i_ub, message",
    [
        ((), 0.0, 1.0, ": branch has no stacks"),
        (((-1.0, -0.5, 1.0),), 0.0, 1.0, ".stacks[0]: a must be finite and >= 0, got -1.0"),
        (((math.inf, -0.5, 1.0),), 0.0, 1.0, ".stacks[0]: a must be finite and >= 0, got inf"),
        (((math.nan, -0.5, 1.0),), 0.0, 1.0, ".stacks[0]: a must be finite and >= 0, got nan"),
        ((_OK, (40.0, 0.0, 1.0)), 0.0, 1.0, ".stacks[1]: b must be finite and < 0, got 0.0"),
        (((40.0, -math.inf, 1.0),), 0.0, 1.0, ".stacks[0]: b must be finite and < 0, got -inf"),
        (((40.0, math.nan, 1.0),), 0.0, 1.0, ".stacks[0]: b must be finite and < 0, got nan"),
        (((40.0, -0.5, 0.0),), 0.0, 1.0, ".stacks[0]: phi must be in (0, 1], got 0.0"),
        (((40.0, -0.5, math.nan),), 0.0, 1.0, ".stacks[0]: phi must be in (0, 1], got nan"),
        ((_OK,), -1.0, 1.0, ": i_lb must be finite and >= 0, got -1.0"),
        ((_OK,), math.inf, math.inf, ": i_lb must be finite and >= 0, got inf"),
        ((_OK,), math.nan, 1.0, ": i_lb must be finite and >= 0, got nan"),
        ((_OK,), 0.0, math.nan, ": need i_lb <= i_ub, got i_lb=0.0, i_ub=nan"),
        ((_OK,), 5.0, 2.0, ": need i_lb <= i_ub, got i_lb=5.0, i_ub=2.0"),
        (((3.0, -1.0, 1.0),), 9.0, 20.0, ": power peaks at 4 A, below i_lb=9.0"),
        # Several problems: the first in the order stacks, each stack, i_lb,
        # i_lb <= i_ub is named.
        (((-1.0, 0.5, 1.0),), -1.0, -2.0, ".stacks[0]: a must be finite and >= 0, got -1.0"),
        ((), math.nan, 1.0, ": branch has no stacks"),
        ((_OK, (40.0, -0.5, 2.0)), 0.0, -1.0, ".stacks[1]: phi must be in (0, 1], got 2.0"),
        ((_OK,), -1.0, math.nan, ": i_lb must be finite and >= 0, got -1.0"),
    ],
)
def test_validation_messages_are_exact(stacks, i_lb, i_ub, message):
    # reduce_branch checks the stacks, each stack's comparison chain, i_lb
    # and then i_lb <= i_ub, and raises at the first that fails; the whole
    # message is pinned, with and without a branch index.
    branch = BranchSpec(stacks=tuple(SqrtStackParams(*s) for s in stacks), i_lb=i_lb, i_ub=i_ub)
    for index, where in ((None, "branch"), (4, "branches[4]")):
        with pytest.raises(NetworkValidationError) as info:
            reduce_branch(branch, index)
        assert str(info.value) == where + message


@pytest.mark.parametrize("n_stacks", [1, 2])
def test_b_that_underflows_to_zero_is_rejected_by_name(bench3_network, n_stacks):
    # Each phi*b rounds to -0.0, so the branch would have no power peak;
    # effective_upper_bound divided by zero here before.
    tiny = (SqrtStackParams(a=1.0, b=-5e-324, phi=0.5),) * n_stacks
    net = Network(branches=bench3_network.branches + (BranchSpec(stacks=tiny, i_lb=0.0, i_ub=1.0),))
    with pytest.raises(NetworkValidationError) as info:
        dispatch(net, 100.0)
    assert str(info.value) == "branches[3]: sum of phi*b underflows to 0.0"

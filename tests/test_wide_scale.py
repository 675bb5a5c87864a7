"""Property test over coefficients far outside the paper's parameter ranges.

Branches are single stacks with a in {0, 1e-3, U(30, 60), 1e4},
|b| = 10**U(-4, 1), phi in U(0.01, 1) and i_lb = U(0, 0.5) * peak current;
20% have zero width, 20% no upper bound, and the rest
i_ub = i_lb + U(0, 1.5) * peak. Some networks repeat one branch exactly.
Each network is solved at every breakpoint power, at random interior
demands, and at the window edges p_max(1 - 1e-12), p_max(1 - 1e-9) and
p_min(1 + 1e-9).

Every solve must also agree with lambda_bisection to within
1e-6 * max(1 A, largest oracle current), the benchmark gate's tolerance.
Both solvers run their level to float resolution, so they agree up to the
window edges.

A second property draws coefficients up to the float range's edges and
checks only that build_table either rejects the network or returns a table
whose levels and powers are all finite. A third checks, on the same draws,
that a one-shot dispatch() raises exactly where build_table does, although
it may end its sweep early.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fcdispatch import (
    BranchSpec,
    DispatchStatus,
    Network,
    NetworkValidationError,
    SqrtStackParams,
    build_table,
    dispatch,
    dispatch_table,
    effective_upper_bound,
    lambda_bisection,
    reduce_network,
    verify_kkt,
)

from conftest import OVERFLOW_BELOW_WINDOW_ROWS, outcome

# Unit values come from drawn bytes, not st.floats(0.0, 1.0): Hypothesis mixes
# the float literals of every loaded non-test module into float draws, so adding
# or removing one anywhere would reshuffle these examples. No module defines
# bytes literals. A leading byte picks an end at the rates st.floats drew them
# here (0.0 in 16/256 draws, 1.0 in 5/256), so i_lb = 0, phi = 1, b = -10 and
# demands at p_min and p_max stay common; otherwise seven bytes scale onto [0, 1].
def _unit(raw: bytes) -> float:
    if raw[0] < 21:
        return float(raw[0] >= 16)
    return int.from_bytes(raw[1:], "big") / (2**56 - 1)


unit = st.binary(min_size=8, max_size=8).map(_unit)


@st.composite
def wide_branch(draw) -> BranchSpec:
    a = draw(st.sampled_from([0.0, 1e-3, None, 1e4]))
    if a is None:
        a = 30.0 + 30.0 * draw(unit)
    b = -(10.0 ** (-4.0 + 5.0 * draw(unit)))
    phi = 0.01 + 0.99 * draw(unit)
    peak = effective_upper_bound(phi * a, phi * b, math.inf)
    i_lb = 0.5 * draw(unit) * peak
    kind = draw(st.sampled_from(["zero", "inf", "finite", "finite", "finite"]))
    if kind == "zero":
        i_ub = i_lb
    elif kind == "inf":
        i_ub = math.inf
    else:
        i_ub = i_lb + 1.5 * draw(unit) * peak
    return BranchSpec(stacks=(SqrtStackParams(a=a, b=b, phi=phi),), i_lb=i_lb, i_ub=i_ub)


@st.composite
def wide_case(draw) -> tuple[tuple[BranchSpec, ...], tuple[float, ...]]:
    """A network's branches plus random demands inside its power window."""
    branches = draw(st.lists(wide_branch(), min_size=1, max_size=8))
    if draw(unit) < 0.3:
        twin = draw(st.sampled_from(branches))
        branches += [twin] * draw(st.integers(1, 3))
    table = build_table(reduce_network(Network(branches=tuple(branches))))
    span = table.p_max - table.p_min
    demands = tuple(table.p_min + draw(unit) * span for _ in range(draw(st.integers(0, 3))))
    return tuple(branches), demands


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=wide_case())
@example(
    case=(
        (
            BranchSpec(
                stacks=(
                    SqrtStackParams(
                        a=1e4, b=-0.00035078460462560613, phi=0.599767010796046
                    ),
                ),
                i_lb=88028738715393.44,
                i_ub=312859079203784.4,
            ),
        ),
        (6.915365471193585e17,),
    )
)
def test_wide_scale_feasible_demands_solve(case):
    branches, demands = case
    stacks = reduce_network(Network(branches=branches))
    table = build_table(stacks)
    edges = (
        table.p_max * (1.0 - 1e-12),
        table.p_max * (1.0 - 1e-9),
        table.p_min * (1.0 + 1e-9),
    )
    breakpoints = tuple(pt.cumulative_power for pt in table.points)
    for p in demands + breakpoints + edges:
        if not table.p_min <= p <= table.p_max:
            continue
        result = dispatch_table(table, p)
        assert result.status is DispatchStatus.OPTIMAL
        assert verify_kkt(result, stacks).ok
        assert abs(result.total_power - p) <= 1e-9 * max(1.0, abs(p))
        oracle = lambda_bisection(stacks, p).currents
        tol = 1e-6 * max(1.0, max(oracle))
        assert max(abs(i - j) for i, j in zip(result.currents, oracle)) <= tol


@st.composite
def extreme_branch(draw) -> BranchSpec:
    """A valid branch of one or two stacks with a = 10**U(-3, 300) and
    |b| = 10**U(-300, 2), whose powers and levels may leave the float range."""
    stacks = tuple(
        SqrtStackParams(
            a=10.0 ** (-3.0 + 303.0 * draw(unit)),
            b=-(10.0 ** (-300.0 + 302.0 * draw(unit))),
            phi=0.01 + 0.99 * draw(unit),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    peak = effective_upper_bound(
        sum(s.phi * s.a for s in stacks), sum(s.phi * s.b for s in stacks), math.inf
    )
    scale = 10.0 ** (300.0 * draw(unit)) if math.isinf(peak) else peak
    i_lb = 0.5 * draw(unit) * scale
    kind = draw(st.sampled_from(["zero", "inf", "finite"]))
    if kind == "zero":
        i_ub = i_lb
    elif kind == "inf":
        i_ub = math.inf
    else:
        i_ub = i_lb + 1.5 * draw(unit) * scale
    return BranchSpec(stacks=stacks, i_lb=i_lb, i_ub=i_ub)


def _one_stack(a: float, b: float, i_lb: float, i_ub: float) -> tuple[BranchSpec, ...]:
    return (BranchSpec(stacks=(SqrtStackParams(a=a, b=b),), i_lb=i_lb, i_ub=i_ub),)


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(branches=st.lists(extreme_branch(), min_size=1, max_size=4).map(tuple))
@example(branches=_one_stack(1.0, -1e-160, 0.0, math.inf))
@example(branches=_one_stack(1.0, -1e-150, 0.0, 1e300))
@example(branches=_one_stack(1e308, -1.0, 1.0, 1.0) * 2)
def test_extreme_coefficients_raise_or_build_a_finite_table(branches):
    # A network that passes validation either builds a table whose levels and
    # powers are all finite, or is rejected as beyond the float range; the
    # last example overflows only in the sum of two finite branch powers.
    stacks = reduce_network(Network(branches=branches))
    try:
        table = build_table(stacks)
    except NetworkValidationError as err:
        assert str(err).endswith(": power or marginal level beyond the float range")
        return
    values = [table.p_min, table.p_max]
    values += [v for pt in table.points for v in (pt.mu, pt.cumulative_power)]
    assert all(map(math.isfinite, values))


@settings(
    derandomize=True,
    database=None,
    max_examples=500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(branches=st.lists(extreme_branch(), min_size=1, max_size=4).map(tuple))
@example(branches=tuple(_one_stack(*row)[0] for row in OVERFLOW_BELOW_WINDOW_ROWS))
def test_one_shot_raises_where_build_table_raises(branches):
    # dispatch() ends its sweep early only where no value of the full sweep
    # can leave the float range, so at p_min, the midpoint and p_max it
    # raises build_table's NetworkValidationError, message and all, if and
    # only if build_table raises, and otherwise returns its table's result.
    # The example's only overflowing branch has its levels below the
    # window of every demand from 0 to 8000 W, the low end among them.
    stacks = reduce_network(Network(branches=branches))
    try:
        table = build_table(stacks)
    except NetworkValidationError as err:
        refusal = ("NetworkValidationError", str(err))
        lo = sum(s.power(s.i_lb) for s in stacks)
        hi = sum(s.power(s.i_ub_eff) for s in stacks)
        for p in (lo, 0.5 * (lo + hi), hi):
            assert outcome(lambda: dispatch(stacks, p)) == refusal, p
        return
    for p in (table.p_min, 0.5 * (table.p_min + table.p_max), table.p_max):
        assert outcome(lambda: dispatch(stacks, p)) == outcome(lambda: dispatch_table(table, p)), p

import dataclasses
import math
import random

import numpy as np
import pytest

from fcdispatch import (
    BranchSpec,
    Network,
    SqrtStackParams,
    effective_upper_bound,
    reduce_network,
)

# Three-stack benchmark network: one stack per branch, phi = 1.
BENCH3_ROWS = [
    # (a, b, i_lb, i_ub)
    (47.655, -1.297, 2.103, 106.8127),
    (39.895, -0.557, 0.0, 325.6562),
    (33.847, -0.5976, 6.646, 236.4155),
]

# Every branch's current at each of the 3-branch benchmark's six breakpoint
# levels, computed independently of the table.
BENCH3_SNAPSHOTS = [
    (2.103, 0.0, 6.646),
    (15.909662698141412, 0.0, 6.646),
    (68.64494783740078, 100.09348913117704, 6.646),
    (106.8127, 218.3810843780075, 49.37534894636393),
    (106.8127, 325.6562, 101.46423778636519),
    (106.8127, 325.6562, 236.4155),
]

# Thirty-stack benchmark network: 15 branches, phi = 0.8, 0.1 <= I <= inf.
BENCH30_ROWS = [
    [(49.25, -0.25), (49.302, -0.302)],
    [(49.353, -0.353)],
    [(49.405, -0.405), (49.457, -0.457), (49.509, -0.509)],
    [(49.56, -0.56), (49.612, -0.612)],
    [(49.664, -0.664), (49.716, -0.716)],
    [(49.767, -0.767), (49.819, -0.819)],
    [(49.871, -0.871), (49.922, -0.922)],
    [(49.974, -0.974)],
    [(50.026, -1.026), (50.078, -1.078)],
    [(50.129, -1.129), (50.181, -1.181)],
    [(50.233, -1.233), (50.284, -1.284), (50.336, -1.336)],
    [(50.388, -1.388), (50.44, -1.44)],
    [(50.491, -1.491), (50.543, -1.543), (50.595, -1.595)],
    [(50.647, -1.647), (50.698, -1.698)],
    [(50.75, -1.75)],
]


def build_bench3_network() -> Network:
    return Network(
        branches=tuple(
            BranchSpec(stacks=(SqrtStackParams(a=a, b=b),), i_lb=lb, i_ub=ub)
            for a, b, lb, ub in BENCH3_ROWS
        )
    )


def build_bench30_network() -> Network:
    return Network(
        branches=tuple(
            BranchSpec(
                stacks=tuple(SqrtStackParams(a=a, b=b, phi=0.8) for a, b in row),
                i_lb=0.1,
                i_ub=math.inf,
            )
            for row in BENCH30_ROWS
        )
    )


# Branch 0's two bound levels round to one float although its bounds differ,
# so the window between its points and branch 1's is open with no branch
# interior in it.
OPEN_WINDOW_NETWORK = Network(
    branches=(
        BranchSpec(stacks=(SqrtStackParams(a=1e4, b=-1e-4),), i_lb=1e12, i_ub=1e12 + 2**-11),
        BranchSpec(stacks=(SqrtStackParams(a=30.0, b=-1e-4),), i_lb=1e10, i_ub=1e10),
    )
)


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


# One branch with a tiny |b|: its table is finite (levels 1.0 and 0.0), but a
# 0.5 W demand needs the level 1 - 1.06e-100, which rounds to 1.0, and one
# ulp below 1.0 already gives 5.5e167 W (ROADMAP item 4, cause (c)).
TINY_B = Network(branches=(BranchSpec(stacks=(SqrtStackParams(a=1.0, b=-1e-100),), i_lb=0.0),))


# (a, b, i_lb, i_ub) rows of single-stack branches. Branch 1's power as a
# cubic in the level overflows a float (|b| = 1e-150), but its bound levels,
# 1.0 and about 0.0, lie below both of branch 0's, 40 and 10: a demand in
# branch 0's range, [0, 8000] W, has its window above them.
OVERFLOW_BELOW_WINDOW_ROWS = [(40.0, -1.0, 0.0, 400.0), (1.0, -1e-150, 0.0, 1e300)]


def make_random_network(rng: np.random.Generator, n_branches: int | None = None) -> Network:
    """Random concave network in the property-test parameter ranges."""
    n = int(n_branches) if n_branches is not None else int(rng.integers(2, 11))
    branches = []
    for _ in range(n):
        stacks = tuple(
            SqrtStackParams(
                a=float(rng.uniform(30.0, 60.0)),
                b=float(rng.uniform(-2.0, -0.1)),
                phi=float(1.0 - rng.uniform(0.0, 0.5)),
            )
            for _ in range(int(rng.integers(1, 4)))
        )
        a_eq = sum(s.phi * s.a for s in stacks)
        b_eq = sum(s.phi * s.b for s in stacks)
        i_peak = effective_upper_bound(a_eq, b_eq, math.inf)
        i_lb = float(rng.uniform(0.0, 0.4) * i_peak)
        if rng.random() < 0.3:
            i_ub = math.inf
        else:
            i_ub = i_lb + float(rng.uniform(0.1, 1.2)) * i_peak
        branches.append(BranchSpec(stacks=stacks, i_lb=i_lb, i_ub=i_ub))
    return Network(branches=tuple(branches))


def make_wide_network(r: random.Random) -> Network:
    """Random network far outside the paper's ranges (tests/test_wide_scale.py).

    Single stacks with a in {0, 1e-3, U(30, 60), 1e4}, |b| = 10**U(-4, 1),
    phi in U(0.01, 1) and i_lb = U(0, 0.5) * peak current; 20% have zero
    width, 20% no upper bound, the rest i_ub = i_lb + U(0, 1.5) * peak; 30%
    of the networks repeat one branch exactly.
    """
    branches = []
    for _ in range(r.randint(1, 8)):
        a = r.choice([0.0, 1e-3, None, 1e4])
        if a is None:
            a = 30.0 + 30.0 * r.random()
        b = -(10.0 ** (-4.0 + 5.0 * r.random()))
        phi = 0.01 + 0.99 * r.random()
        peak = effective_upper_bound(phi * a, phi * b, math.inf)
        i_lb = 0.5 * r.random() * peak
        kind = r.choice(["zero", "inf", "finite", "finite", "finite"])
        if kind == "zero":
            i_ub = i_lb
        elif kind == "inf":
            i_ub = math.inf
        else:
            i_ub = i_lb + 1.5 * r.random() * peak
        branches.append(
            BranchSpec(stacks=(SqrtStackParams(a=a, b=b, phi=phi),), i_lb=i_lb, i_ub=i_ub)
        )
    if r.random() < 0.3:
        branches += [r.choice(branches)] * r.randint(1, 3)
    return Network(branches=tuple(branches))


def power_range(network: Network) -> tuple[float, float]:
    """Feasible window computed by direct summation, bypassing the table."""
    stacks = reduce_network(network)
    return (
        sum(s.power(s.i_lb) for s in stacks),
        sum(s.power(s.i_ub_eff) for s in stacks),
    )


def direct_power(table, mu: float) -> float:
    """Network power at level mu from the model's methods, summed branch by
    branch in index order; it does not read the table's columns."""
    return sum(s.power(s.inverse_marginal(mu)) for s in table.stacks)


def result_bits(result) -> tuple:
    """A DispatchResult's fields for comparison bit for bit: floats as
    float.hex (NaN equal to NaN, 0.0 unequal to -0.0), the sets' frozensets
    sorted."""

    def bits(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, frozenset):
            return tuple(sorted(v))
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        if dataclasses.is_dataclass(v):
            return tuple(bits(getattr(v, f.name)) for f in dataclasses.fields(v))
        return v

    return bits(result)


def outcome(call) -> tuple:
    """call()'s result as result_bits, or its exception's type name and message."""
    try:
        return result_bits(call())
    except Exception as err:  # a raise is an outcome, compared like any other
        return type(err).__name__, str(err)


@pytest.fixture()
def reduce_branch_calls(monkeypatch) -> list:
    """Branch indices passed to stack_model.reduce_branch during the test."""
    from fcdispatch import stack_model

    calls = []
    original = stack_model.reduce_branch

    def counting(branch, index=None):
        calls.append(index)
        return original(branch, index)

    monkeypatch.setattr(stack_model, "reduce_branch", counting)
    return calls


@pytest.fixture(scope="session")
def bench3_network() -> Network:
    return build_bench3_network()


@pytest.fixture(scope="session")
def bench3_stacks(bench3_network):
    return reduce_network(bench3_network)


@pytest.fixture(scope="session")
def bench30_network() -> Network:
    return build_bench30_network()


@pytest.fixture(scope="session")
def bench30_stacks(bench30_network):
    return reduce_network(bench30_network)


def config_text(rows) -> str:
    """A config of single-stack, phi = 1 branches given as (a, b, i_lb, i_ub) rows."""
    import json

    return json.dumps(
        {
            "version": "1",
            "branches": [
                {
                    "stacks": [{"a": a, "b": b, "phi": 1.0}],
                    "i_lb": lb,
                    "i_ub": ub,
                }
                for a, b, lb, ub in rows
            ],
        }
    )


@pytest.fixture(scope="session")
def bench3_config_text() -> str:
    return config_text(BENCH3_ROWS)


@pytest.fixture(scope="session")
def bench30_config_text() -> str:
    import json

    return json.dumps(
        {
            "version": "1",
            "branches": [
                {
                    "stacks": [{"a": a, "b": b, "phi": 0.8} for a, b in row],
                    "i_lb": 0.1,
                    "i_ub": "inf",
                }
                for row in BENCH30_ROWS
            ],
        }
    )

"""Seeded inputs for the benchmark: networks, demand streams and degradations.

A network spec is a tuple of branches, each ``(stacks, i_lb, i_ub)`` with
``stacks`` a tuple of ``(a, b, phi)``. Window and breakpoint powers are
computed here from the square-root model itself, so the program under test
receives only the generated config text or ``Network`` objects and never
helps to choose its own inputs. Nothing here imports numpy.
"""

from __future__ import annotations

import json
import math
import random

# Paper benchmark networks: (a, b, i_lb, i_ub) per single-stack branch ...
BENCH3_ROWS = (
    (47.655, -1.297, 2.103, 106.8127),
    (39.895, -0.557, 0.0, 325.6562),
    (33.847, -0.5976, 6.646, 236.4155),
)
# ... and (a, b) per stack of the 15 series branches, phi = 0.8, 0.1 <= I <= inf.
BENCH30_ROWS = (
    ((49.25, -0.25), (49.302, -0.302)),
    ((49.353, -0.353),),
    ((49.405, -0.405), (49.457, -0.457), (49.509, -0.509)),
    ((49.56, -0.56), (49.612, -0.612)),
    ((49.664, -0.664), (49.716, -0.716)),
    ((49.767, -0.767), (49.819, -0.819)),
    ((49.871, -0.871), (49.922, -0.922)),
    ((49.974, -0.974),),
    ((50.026, -1.026), (50.078, -1.078)),
    ((50.129, -1.129), (50.181, -1.181)),
    ((50.233, -1.233), (50.284, -1.284), (50.336, -1.336)),
    ((50.388, -1.388), (50.44, -1.44)),
    ((50.491, -1.491), (50.543, -1.543), (50.595, -1.595)),
    ((50.647, -1.647), (50.698, -1.698)),
    ((50.75, -1.75),),
)

OPTIMAL = "optimal"
INFEASIBLE_LOW = "infeasible_low"
INFEASIBLE_HIGH = "infeasible_high"

# Share of the window below p_max that no workload demand comes from.
NEAR_PEAK = 1e-5


def rng_for(seed: int, purpose: str) -> random.Random:
    """Independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def bench3() -> tuple:
    return tuple((((a, b, 1.0),), lb, ub) for a, b, lb, ub in BENCH3_ROWS)


def bench30() -> tuple:
    return tuple((tuple((a, b, 0.8) for a, b in row), 0.1, math.inf) for row in BENCH30_ROWS)


def _peak(a_eq: float, b_eq: float) -> float:
    x = 2.0 * a_eq / (3.0 * -b_eq)
    return x * x


def paper_range(rng: random.Random, n_branches: int | None = None) -> tuple:
    """Random network in the property-test ranges of the repository's tests."""
    n = n_branches if n_branches is not None else rng.randint(2, 30)
    branches = []
    for _ in range(n):
        stacks = tuple(
            (rng.uniform(30.0, 60.0), rng.uniform(-2.0, -0.1), 1.0 - rng.uniform(0.0, 0.5))
            for _ in range(rng.randint(1, 3))
        )
        peak = _peak(*_equivalent(stacks))
        lb = rng.uniform(0.0, 0.4) * peak
        ub = math.inf if rng.random() < 0.3 else lb + rng.uniform(0.1, 1.2) * peak
        branches.append((stacks, lb, ub))
    return tuple(branches)


def degrade(rng: random.Random, spec: tuple) -> tuple:
    """Copy of spec with one branch aged: lower a, larger |b| on each stack.

    The factors keep the power-peak current above 0.56 of its old value,
    which stays above every generated lower bound (at most 0.4 of the peak).
    """
    k = rng.randrange(len(spec))
    stacks, lb, ub = spec[k]
    aged = tuple((a * rng.uniform(0.9, 0.97), b * rng.uniform(1.03, 1.2), phi) for a, b, phi in stacks)
    return spec[:k] + ((aged, lb, ub),) + spec[k + 1:]


# --- the square-root model, evaluated independently of the program -------


def _equivalent(stacks) -> tuple[float, float]:
    return sum(phi * a for a, _, phi in stacks), sum(phi * b for _, b, phi in stacks)


def _reduced(spec):
    out = []
    for stacks, lb, ub in spec:
        a_eq, b_eq = _equivalent(stacks)
        out.append((a_eq, b_eq, lb, min(ub, _peak(a_eq, b_eq))))
    return out


def _power(a_eq: float, b_eq: float, i: float) -> float:
    return a_eq * i + b_eq * i * math.sqrt(i)


def _marginal(a_eq: float, b_eq: float, i: float) -> float:
    return a_eq + 1.5 * b_eq * math.sqrt(i)


def _current_at(a_eq, b_eq, lb, ub_eff, mu) -> float:
    x = (mu - a_eq) / (1.5 * b_eq)
    if x <= math.sqrt(lb):
        return lb
    if x >= math.sqrt(ub_eff):
        return ub_eff
    return x * x


def window(spec) -> tuple[float, float]:
    """Obtainable power range: every branch at i_lb, every branch at its peak-capped bound."""
    red = _reduced(spec)
    return sum(_power(a, b, lb) for a, b, lb, _ in red), sum(_power(a, b, ub) for a, b, _, ub in red)


def breakpoint_levels(spec) -> list[float]:
    """The 2N marginal levels dP/dI at each branch's bounds, descending."""
    levels = []
    for a, b, lb, ub in _reduced(spec):
        levels += [_marginal(a, b, lb), _marginal(a, b, ub)]
    return sorted(levels, reverse=True)


def power_at_level(spec, mu: float) -> float:
    return sum(_power(a, b, _current_at(a, b, lb, ub, mu)) for a, b, lb, ub in _reduced(spec))


def demand_range(spec) -> tuple[float, float]:
    """The part of the window that workload demands come from.

    The top NEAR_PEAK of the window is left out. There the currents are so
    ill-conditioned in the power that neither lambda_bisection (which stops
    at a 1e-9 power residual) nor the program pins them to the gate's 1e-6
    current tolerance, so such solves fail the gate. The benchmark's
    workloads must run without failures; that regime is a correctness
    question for the tests, not a performance workload.
    """
    p_min, p_max = window(spec)
    return p_min, p_max * (1.0 - NEAR_PEAK)


def demands(rng: random.Random, spec, n_uniform: int, n_breakpoints: int | None = None) -> list:
    """(demand, expected status) pairs for one network.

    Breakpoint powers inside demand_range (all of them when n_breakpoints is
    None), uniform demands in demand_range, the near-edge demand
    p_min(1+1e-9), and one demand just outside each end of the window.
    """
    p_min, p_max = window(spec)
    _, p_top = demand_range(spec)
    # The levels descend, so their powers ascend: cut them at p_top by bisection.
    levels = breakpoint_levels(spec)
    lo, hi = 0, len(levels)
    while lo < hi:
        mid = (lo + hi) // 2
        if power_at_level(spec, levels[mid]) <= p_top:
            lo = mid + 1
        else:
            hi = mid
    levels = levels[:lo]
    if n_breakpoints is not None:
        levels = rng.sample(levels, min(n_breakpoints, len(levels)))
    out = [(power_at_level(spec, mu), OPTIMAL) for mu in levels]
    out += [(rng.uniform(p_min, p_top), OPTIMAL) for _ in range(n_uniform)]
    out += [
        (p_min * (1 + 1e-9), OPTIMAL),
        (p_min - max(1.0, 1e-3 * p_min), INFEASIBLE_LOW),
        (p_max + max(1.0, 1e-3 * p_max), INFEASIBLE_HIGH),
    ]
    return out


def config_text(spec) -> str:
    """Config document in the program's JSON format; floats round-trip exactly."""
    doc = {
        "version": "1",
        "branches": [
            {
                "stacks": [{"a": a, "b": b, "phi": phi} for a, b, phi in stacks],
                "i_lb": lb,
                "i_ub": "inf" if math.isinf(ub) else ub,
            }
            for stacks, lb, ub in spec
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def to_network(spec, model):
    """Build a Network with the program's own types (model = fcdispatch.stack_model)."""
    return model.Network(
        branches=tuple(
            model.BranchSpec(
                stacks=tuple(model.SqrtStackParams(a=a, b=b, phi=phi) for a, b, phi in stacks),
                i_lb=lb,
                i_ub=ub,
            )
            for stacks, lb, ub in spec
        )
    )

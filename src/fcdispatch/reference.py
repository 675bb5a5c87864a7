"""Independent reference solvers used to validate dispatch results.

Both oracles deliberately avoid the observable-point table, segment location
and cubic algebra of the main path: lambda_bisection searches the global
marginal level directly, and grid_bruteforce enumerates currents for tiny
networks. They share only the per-branch inverse-marginal primitive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .dispatch import _EDGE_RTOL, _MAX_ITER, _POWER_RTOL, DispatchResult, DispatchStatus
from .stack_model import EquivalentStack, Network, as_equivalent_stacks

if TYPE_CHECKING:
    import numpy as np


class OracleMethod(enum.Enum):
    LAMBDA_BISECTION = "lambda_bisection"
    GRID_SEARCH = "grid_search"


@dataclass(frozen=True)
class OracleResult:
    currents: tuple[float, ...]
    total_current: float
    total_power: float
    method: OracleMethod


@dataclass(frozen=True)
class ComparisonReport:
    """Per-branch and total current deltas between two solutions."""

    branch_deltas: tuple[float, ...]
    max_branch_delta: float
    total_delta: float
    tol_current: float
    passed: bool


def lambda_bisection(
    network: Network | Sequence[EquivalentStack], p_req: float
) -> OracleResult:
    """Bisect the network-wide marginal level until power meets the demand.

    Every branch follows the level through its clamped inverse marginal, so
    total power is continuous and nonincreasing in the level; the bracket
    spans from the flattest upper-bound marginal to the steepest lower-bound
    marginal, and is halved down to float resolution. The obtainable range is
    summed directly from the bound powers. Raises ValueError for demands
    outside it, and for a split whose power misses the demand by more than
    the 1e-9 relative balance (a NaN total included): where the level
    cannot resolve the demand, the oracle says so instead of returning it.
    """
    stacks = as_equivalent_stacks(network)
    lo = min(s.marginal_power(s.i_ub_eff) for s in stacks)
    hi = max(s.marginal_power(s.i_lb) for s in stacks)
    # Direct sums: the window's edges are the bound powers themselves. Going
    # through the levels would put a branch whose two bound levels round to
    # one float at its lower bound at both edges.
    p_min = sum(s.power(s.i_lb) for s in stacks)
    p_max = sum(s.power(s.i_ub_eff) for s in stacks)
    if (
        math.isnan(p_req)
        or p_req < p_min - _EDGE_RTOL * max(1.0, abs(p_min))
        or p_req > p_max + _EDGE_RTOL * max(1.0, abs(p_max))
    ):
        raise ValueError(
            f"demand {p_req} W outside obtainable range [{p_min}, {p_max}] W"
        )

    for _ in range(_MAX_ITER):  # power at lo >= p_req >= power at hi
        mu = 0.5 * (lo + hi)
        if mu == lo or mu == hi:
            break
        if sum(s.power(s.inverse_marginal(mu)) for s in stacks) > p_req:
            lo = mu
        else:
            hi = mu

    currents = tuple(s.inverse_marginal(mu) for s in stacks)
    total_power = sum(s.power(i) for s, i in zip(stacks, currents))
    if not abs(total_power - p_req) <= _POWER_RTOL * max(1.0, abs(p_req)):
        raise ValueError(f"power balance missed: got {total_power} W for demand {p_req} W")
    return OracleResult(
        currents=currents,
        total_current=sum(currents),
        total_power=total_power,
        method=OracleMethod.LAMBDA_BISECTION,
    )


def _solve_last_branch(s: EquivalentStack, targets: np.ndarray) -> np.ndarray:
    # Vectorized bisection for P(i) = target on [i_lb, i_ub_eff], where P is
    # strictly increasing below the power peak.
    import numpy as np

    lo = np.full_like(targets, s.i_lb)
    hi = np.full_like(targets, s.i_ub_eff)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = s.a_eq * mid + s.b_eq * mid * np.sqrt(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def grid_bruteforce(
    network: Network | Sequence[EquivalentStack], p_req: float, points_per_branch: int
) -> OracleResult:
    """Exhaustive search over a current grid, for networks of 1 to 3 branches.

    All but the last branch are gridded (one branch has no grid axis); the last
    branch's current is solved for the residual demand, so the returned point
    meets the demand and its optimality gap is bounded by the grid spacing. A
    grid point is feasible when its residual lies in the last branch's power
    range up to a 1e-9 relative slack; the residual is clipped to that range
    before the solve. Raises ValueError when no grid point is feasible.
    """
    import numpy as np

    stacks = as_equivalent_stacks(network)
    n = len(stacks)
    if n > 3:
        raise ValueError(f"grid search supports at most 3 branches, got {n}")
    if not (2 <= points_per_branch <= 400):
        raise ValueError(f"points_per_branch must be in [2, 400], got {points_per_branch}")

    last = stacks[-1]
    p_last_lo = last.power(last.i_lb)
    p_last_hi = last.power(last.i_ub_eff)

    axes = [np.linspace(s.i_lb, s.i_ub_eff, points_per_branch) for s in stacks[:-1]]
    grids = np.meshgrid(*axes, indexing="ij")
    # The zero-dimensional start keeps one branch (no grid axis) an array.
    outer_power = sum(
        (s.a_eq * g + s.b_eq * g * np.sqrt(g) for s, g in zip(stacks[:-1], grids)),
        np.zeros(()),
    )
    residual = p_req - outer_power
    eps = 1e-9 * max(1.0, abs(p_last_lo), abs(p_last_hi))
    feasible = (residual >= p_last_lo - eps) & (residual <= p_last_hi + eps)
    if not feasible.any():
        raise ValueError(f"no feasible grid point for demand {p_req} W")

    last_current = _solve_last_branch(last, np.clip(residual, p_last_lo, p_last_hi))
    totals = sum(g for g in grids) + last_current
    totals = np.where(feasible, totals, np.inf)
    flat = int(np.argmin(totals))
    idx = np.unravel_index(flat, totals.shape)

    currents = tuple(float(g[idx]) for g in grids) + (float(last_current[idx]),)
    return OracleResult(
        currents=currents,
        total_current=float(sum(currents)),
        total_power=float(sum(s.power(i) for s, i in zip(stacks, currents))),
        method=OracleMethod.GRID_SEARCH,
    )


def compare(
    result: DispatchResult, oracle: OracleResult, tol_current: float
) -> ComparisonReport:
    """Report current deltas (dispatch minus oracle) against a tolerance."""
    if result.status is not DispatchStatus.OPTIMAL or result.currents is None:
        raise ValueError("compare requires an optimal dispatch result")
    if len(result.currents) != len(oracle.currents):
        raise ValueError("results cover different numbers of branches")
    deltas = tuple(a - b for a, b in zip(result.currents, oracle.currents))
    max_delta = max(abs(d) for d in deltas)
    return ComparisonReport(
        branch_deltas=deltas,
        max_branch_delta=max_delta,
        total_delta=result.total_current - oracle.total_current,
        tol_current=tol_current,
        passed=max_delta <= tol_current,
    )

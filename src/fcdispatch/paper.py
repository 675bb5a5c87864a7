"""The paper's segment solves, kept as cross-checks of the online dispatch.

The paper solves a located segment in closed form: with x_j = sqrt(I_j),
equal marginals tie every interior branch to a reference branch along a
line, and the power balance becomes a cubic in the reference branch's
sqrt-current. solve_segment_sqrt returns each real root of that cubic as a
SegmentCandidate, and select_feasible_root keeps the one inside the current
bounds that meets the demand. solve_segment_numeric bisects the common
marginal level with the model's own methods, with no cubic at all. This is
the only module that imports poly_roots.

dispatch_table calls none of these: it solves for the level inside the
located window (dispatch.py), so plan, solve and sweep never load this
module. The tests and the acceptance checks compare its results with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dispatch import _MAX_ITER, _POWER_RTOL, SegmentSolveError
from .poly_roots import CubicCoefficients, real_roots
from .stack_model import EquivalentStack

# Slack when testing a cubic candidate against its sqrt-current box, relative
# to the box scale: a root at a tangency of the cubic (a demand at a power
# peak) is computable only to ~sqrt(machine eps) of the scale.
_X_FEAS_RTOL = 1e-6


@dataclass(frozen=True)
class SegmentCandidate:
    """One root of the segment cubic, mapped to interior branch currents.

    Feasibility must be judged on x_values (sqrt-currents): squaring can move
    a negative, infeasible x inside the current bounds. power_residual is the
    directly summed interior power minus the effective demand; the expanded
    cubic can cancel badly and report "roots" whose direct residual is far
    from zero, so meets_demand (residual within tolerance) is part of
    candidate screening, not just the bounds.
    """

    x_ref: float
    x_values: tuple[float, ...]
    currents: tuple[float, ...]
    power_residual: float
    meets_demand: bool

def solve_segment_sqrt(
    stacks: Sequence[EquivalentStack],
    interior: Sequence[int],
    p_req_eff: float,
    ref_branch: int | None = None,
) -> list[SegmentCandidate]:
    """Analytic equal-marginal solve for the interior branches.

    With x_j = sqrt(I_j), equal marginals tie every interior branch to the
    reference branch along x_j = g_j*x + h_j, and the power balance becomes
    a cubic in x. All real roots are returned as candidates; exactly one is
    feasible for a correctly located segment. The cubic's constant term
    (sum of b*h^3 + a*h^2) is nonzero whenever the branches' a-coefficients
    differ and must be kept.

    The solution does not depend on which interior branch is the reference;
    ref_branch (a branch index inside the interior set) overrides the
    default pick, the interior branch with the largest |b_eq|.
    """
    order = sorted(interior)
    if not order:
        raise SegmentSolveError("interior set is empty")
    sub = [stacks[j] for j in order]

    if ref_branch is None:
        ref = max(range(len(sub)), key=lambda k: abs(sub[k].b_eq))
    else:
        if ref_branch not in order:
            raise ValueError(f"ref_branch {ref_branch} is not in the interior set")
        ref = order.index(ref_branch)
    ar, br = sub[ref].a_eq, sub[ref].b_eq

    g = [br / s.b_eq for s in sub]
    h = [(ar - s.a_eq) / (1.5 * s.b_eq) for s in sub]

    c3 = sum(s.b_eq * gj ** 3 for s, gj in zip(sub, g))
    c2 = sum(3.0 * s.b_eq * gj ** 2 * hj + s.a_eq * gj ** 2 for s, gj, hj in zip(sub, g, h))
    c1 = sum(3.0 * s.b_eq * gj * hj ** 2 + 2.0 * s.a_eq * gj * hj for s, gj, hj in zip(sub, g, h))
    c0 = sum(s.b_eq * hj ** 3 + s.a_eq * hj ** 2 for s, gj, hj in zip(sub, g, h)) - p_req_eff

    roots = real_roots(CubicCoefficients(c3, c2, c1, c0))
    if not roots:
        raise SegmentSolveError("segment cubic has no real root")

    residual_tol = _POWER_RTOL * max(1.0, abs(p_req_eff))
    candidates = []
    for x, _mult in roots:
        xs = tuple(gj * x + hj for gj, hj in zip(g, h))
        gap = sum((s.a_eq + s.b_eq * xj) * xj * xj for s, xj in zip(sub, xs)) - p_req_eff
        candidates.append(
            SegmentCandidate(
                x_ref=x,
                x_values=xs,
                currents=tuple(v * v for v in xs),
                power_residual=gap,
                meets_demand=abs(gap) <= residual_tol,
            )
        )
    return candidates


def select_feasible_root(
    candidates: Sequence[SegmentCandidate],
    stacks: Sequence[EquivalentStack],
    interior: Sequence[int],
) -> SegmentCandidate:
    """Pick the candidate that respects the bounds and meets the demand.

    Raises SegmentSolveError when no candidate qualifies, which means the
    segment was located incorrectly (a bug, not a user error). Several
    qualifying candidates can appear when the demand grazes a power peak (a
    tangency split by rounding); the objective breaks the tie, so the
    smallest total current wins.
    """
    order = sorted(interior)
    qualified: list[SegmentCandidate] = []
    for cand in candidates:
        violation = 0.0
        for x, j in zip(cand.x_values, order):
            x_lo = math.sqrt(stacks[j].i_lb)
            x_hi = math.sqrt(stacks[j].i_ub_eff)
            scale = max(1.0, x_hi)
            violation = max(violation, (x_lo - x) / scale, (x - x_hi) / scale)
        if violation <= _X_FEAS_RTOL and cand.meets_demand:
            qualified.append(cand)
    if not qualified:
        raise SegmentSolveError(
            f"no feasible root meeting the demand among {len(candidates)} candidates"
        )
    return min(qualified, key=lambda c: sum(c.currents))


def solve_segment_numeric(
    stacks: Sequence[EquivalentStack],
    interior: Sequence[int],
    p_req_eff: float,
    mu_high: float,
    mu_low: float,
) -> tuple[float, ...]:
    """Bisection on the common marginal level; model-agnostic fallback.

    Interior power is continuous and nonincreasing in the level, so the
    segment's level window brackets the demand. Returns currents for the
    interior branches in ascending branch order.
    """
    order = sorted(interior)
    if not order:
        raise SegmentSolveError("interior set is empty")
    sub = [stacks[j] for j in order]

    def interior_power(mu: float) -> float:
        return sum(s.power(s.inverse_marginal(mu)) for s in sub)

    tol = _POWER_RTOL * max(1.0, abs(p_req_eff))
    lo, hi = mu_low, mu_high  # power(lo) >= p_req_eff >= power(hi)
    if interior_power(hi) - p_req_eff > tol or p_req_eff - interior_power(lo) > tol:
        raise SegmentSolveError("demand is not bracketed by the segment's level window")

    # Run the bracket down to float resolution; stopping at the power
    # tolerance alone would leave level errors that show up as more than
    # 1e-6 A on large branches.
    mu = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        mu = 0.5 * (lo + hi)
        if mu == lo or mu == hi:
            break
        if interior_power(mu) - p_req_eff > 0.0:
            lo = mu
        else:
            hi = mu
    currents = tuple(s.inverse_marginal(mu) for s in sub)
    if abs(sum(s.power(i) for s, i in zip(sub, currents)) - p_req_eff) > tol:
        raise SegmentSolveError("segment bisection failed to meet the demand")
    return currents

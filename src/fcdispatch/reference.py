"""Independent reference solvers used to validate dispatch results.

The oracles deliberately avoid the observable-point table, segment location
and level solve of the main path:
- lambda_bisection bisects the global marginal level in floats, through
  the model's clamped inverse marginal;
- exact_split bisects it in rationals (fractions and math.isqrt only), so
  it shares no float arithmetic with the solvers and returns the exact
  split of the float-defined network, each current rounded to one float;
- grid_bruteforce enumerates currents for networks of 1 to 3 branches. It
  is the package's one use of numpy, which only the test extra installs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
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
    _check_demand(p_req, p_min, p_max)

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


def _check_demand(p_req: float, p_min: float, p_max: float) -> None:
    # The oracles' feasible demands: the window [p_min, p_max] widened by
    # the _EDGE_RTOL slack that the table's window has.
    if (
        math.isnan(p_req)
        or p_req < p_min - _EDGE_RTOL * max(1.0, abs(p_min))
        or p_req > p_max + _EDGE_RTOL * max(1.0, abs(p_max))
    ):
        raise ValueError(
            f"demand {p_req} W outside obtainable range [{p_min}, {p_max}] W"
        )


# The cap on exact_split's halvings. Far fewer resolve every current to one
# float: about 60 in the paper's ranges, 387 for a b of -1e-100. Only an
# exact current on a rounding boundary between two floats never resolves.
_EXACT_MAX_HALVINGS = 4096
# Bits of the first enclosure of a pinned power's irrational part; doubled
# until the sign of P(mu) - p is certain.
_EXACT_START_BITS = 64


@dataclass(frozen=True)
class ExactSplit:
    """exact_split's answer: each current of the exact split rounded to the
    nearest float, the float sum of those, the halvings taken and the final
    rational level bracket. converged is False where the halving cap came
    first; the currents are then those at the bracket's lower level, each
    within its branch's enclosure."""

    currents: tuple[float, ...]
    total_current: float
    halvings: int
    bracket: tuple[Fraction, Fraction]
    converged: bool


def _pinned_power(a: Fraction, b: Fraction, i: Fraction) -> tuple[Fraction, Fraction | None]:
    # a*i + b*i*sqrt(i) as its rational part and the square q = (b*i)**2*i
    # of its irrational part -sqrt(q). A rational sqrt(i) makes the whole
    # power rational, and q None: the exact-equality exit.
    n, d = i.numerator, i.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return a * i + b * i * Fraction(rn, rd), None
    return a * i, b * b * i * i * i


def _enclose(q: Fraction, bits: int) -> tuple[int, int]:
    # Integers lo, hi = lo + 1 with lo < -sqrt(q) * 2**bits <= hi.
    s = math.isqrt((q.numerator << 2 * bits) // q.denominator)
    return -s - 1, -s


class _ExactBranch:
    """One branch in rationals. With x = (mu - a)/(1.5*b), an interior
    branch's current x**2 is inv*(a - mu)**2 with inv = 4/(9*b**2), and its
    power x**2*(a + b*x) is that times (a + 2*mu)/3."""

    __slots__ = ("a", "inv", "bounds")

    def __init__(self, s: EquivalentStack):
        a, b = Fraction(s.a_eq), Fraction(s.b_eq)
        self.a, self.inv = a, 4 / (9 * b * b)
        # Per bound: its float current, the (a - mu)**2 at which x**2
        # reaches it, and its power as _pinned_power splits it.
        self.bounds = tuple(
            (i, Fraction(i) / self.inv, *_pinned_power(a, b, Fraction(i)))
            for i in (s.i_lb, s.i_ub_eff)
        )

    def kind(self, mu: Fraction) -> int:
        # inverse_marginal's order: 0 at the lower bound (x <= 0 or
        # x**2 <= i_lb), then 2 at the upper (x**2 >= i_ub_eff), else 1.
        d = self.a - mu
        if d <= 0 or d * d <= self.bounds[0][1]:
            return 0
        return 2 if d * d >= self.bounds[1][1] else 1

    def current(self, kind: int, mu: Fraction) -> float:
        if kind == 1:
            return float(self.inv * (self.a - mu) ** 2)  # correctly rounded
        return self.bounds[kind // 2][0]


class _ExactLevel:
    """The sign of P(mu) - p over a shrinking level bracket [lo, hi].

    P is nonincreasing in mu, and a branch's kind changes at most twice
    along it, so a branch of one kind at both ends keeps it in between.
    Those settled branches join running sums: interior powers as one cubic
    c3*mu**3 + c2*mu**2 + c0, pinned powers as a rational part and
    irrational parts enclosed at `bits`. Only the open branches, of
    different kinds at the two ends, are classified at each level.
    """

    def __init__(self, branches: list[_ExactBranch], p: Fraction, lo: Fraction, hi: Fraction):
        self.branches = branches
        self.c3 = self.c2 = self.c0 = Fraction(0)
        self.rational = -p
        self.roots: list[Fraction] = []
        self.bits, self.lo_sum, self.hi_sum = _EXACT_START_BITS, 0, 0
        self.interior: list[_ExactBranch] = []
        self.resolved = 0  # interior[:resolved] round to one float over the bracket
        self.open: dict[int, list[int]] = {}  # branch -> its kinds at lo and hi
        for j, br in enumerate(branches):
            k_lo, k_hi = br.kind(lo), br.kind(hi)
            if k_lo == k_hi:
                self.settle(br, k_lo)
            else:
                self.open[j] = [k_lo, k_hi]

    def settle(self, br: _ExactBranch, kind: int) -> None:
        if kind == 1:
            w = br.inv / 3  # power = w*(2*mu**3 - 3*a*mu**2 + a**3)
            self.c3 += 2 * w
            self.c2 -= 3 * br.a * w
            self.c0 += br.a ** 3 * w
            self.interior.append(br)
            return
        _, _, rational, q = br.bounds[kind // 2]
        self.rational += rational
        if q is not None:
            self.roots.append(q)
            lo, hi = _enclose(q, self.bits)
            self.lo_sum, self.hi_sum = self.lo_sum + lo, self.hi_sum + hi

    def sign(self, mu: Fraction) -> tuple[int, dict[int, int]]:
        """The sign of P(mu) - p, and the open branches' kinds at mu."""
        kinds = {j: self.branches[j].kind(mu) for j in self.open}
        r = (self.c3 * mu + self.c2) * mu * mu + self.c0 + self.rational
        roots = []
        for j, kind in kinds.items():
            br = self.branches[j]
            if kind == 1:
                r += br.inv * (br.a - mu) ** 2 * (br.a + 2 * mu) / 3
            else:
                _, _, rational, q = br.bounds[kind // 2]
                r += rational
                if q is not None:
                    roots.append(q)
        n, d = r.numerator, r.denominator
        while True:
            lo, hi = self.lo_sum, self.hi_sum
            for q in roots:
                q_lo, q_hi = _enclose(q, self.bits)
                lo, hi = lo + q_lo, hi + q_hi
            if (n << self.bits) + lo * d > 0:
                return 1, kinds
            if (n << self.bits) + hi * d < 0:
                return -1, kinds
            if lo == hi:  # no irrational part: r is exactly 0
                return 0, kinds
            # A sum of square roots of non-square rationals is irrational,
            # so widening ends.
            self.bits *= 2
            ends = [_enclose(q, self.bits) for q in self.roots]
            self.lo_sum, self.hi_sum = sum(e[0] for e in ends), sum(e[1] for e in ends)

    def move(self, end: int, kinds: dict[int, int]) -> None:
        """Move the bracket's lower (end 0) or upper end (1) to the level at
        which sign found the open branches' kinds, settling those whose
        kinds at the two ends now agree."""
        for j, kind in kinds.items():
            ends = self.open[j]
            ends[end] = kind
            if ends[0] == ends[1]:
                del self.open[j]
                self.settle(self.branches[j], kind)

    def collapsed(self, lo: Fraction, hi: Fraction) -> bool:
        """Whether every current's enclosure over [lo, hi] rounds to one float."""
        for j, (k_lo, k_hi) in self.open.items():
            br = self.branches[j]
            if br.current(k_lo, lo) != br.current(k_hi, hi):
                return False
        # The bracket only shrinks, so a resolved branch stays resolved.
        while self.resolved < len(self.interior):
            br = self.interior[self.resolved]
            if br.current(1, lo) != br.current(1, hi):
                return False
            self.resolved += 1
        return True


def _exact_result(branches, lo: Fraction, hi: Fraction, halvings: int, converged: bool):
    currents = tuple(br.current(br.kind(lo), lo) for br in branches)
    return ExactSplit(currents, math.fsum(currents), halvings, (lo, hi), converged)


def exact_split(network: Network | Sequence[EquivalentStack], p_req: float) -> ExactSplit:
    """The exact minimum-current split of the float-defined network.

    At a rational level mu, every branch's bound side, current and interior
    power is an exact rational (see _ExactBranch); only a pinned power
    a*i + b*i*sqrt(i) carries an irrational part, which math.isqrt encloses,
    widening until the sign of P(mu) - p is certain. So the level is
    bisected over [0, max a] in fractions.Fraction, with no float
    arithmetic, and stops once every branch's current enclosure rounds to
    one float (float of a Fraction is correctly rounded): each returned
    current is then the exact current rounded to nearest. A level whose
    power is exactly the demand ends the search at once. It reads only
    the stacks' a_eq, b_eq, i_lb and i_ub_eff.

    Demands are those of lambda_bisection: beyond the float window's
    _EDGE_RTOL slack, NaN included, ValueError is raised. A demand within
    the slack outside the exact window gets that edge's split: every
    branch at i_lb, or every branch at level 0 (at i_ub_eff, or at its
    exact power peak where the float i_ub_eff rounds above it). After
    _EXACT_MAX_HALVINGS without converging, the result says so (see
    ExactSplit). A branch whose i_ub_eff is infinite raises OverflowError.
    """
    stacks = as_equivalent_stacks(network)
    # The model's power expression, so the window is lambda_bisection's.
    p_min = sum(s.a_eq * s.i_lb + s.b_eq * s.i_lb * math.sqrt(s.i_lb) for s in stacks)
    p_max = sum(s.a_eq * s.i_ub_eff + s.b_eq * s.i_ub_eff * math.sqrt(s.i_ub_eff) for s in stacks)
    _check_demand(p_req, p_min, p_max)

    branches = [_ExactBranch(s) for s in stacks]
    lo, hi = Fraction(0), max(br.a for br in branches)
    level = _ExactLevel(branches, Fraction(p_req), lo, hi)
    # Every branch is at i_lb at max a, and at its most power at 0.
    if level.sign(hi)[0] >= 0:
        return _exact_result(branches, hi, hi, 0, True)
    if level.sign(lo)[0] <= 0:
        return _exact_result(branches, lo, lo, 0, True)

    for halvings in range(1, _EXACT_MAX_HALVINGS + 1):  # P(lo) > p > P(hi)
        mid = (lo + hi) / 2
        s, kinds = level.sign(mid)
        if s == 0:
            return _exact_result(branches, mid, mid, halvings, True)
        if s > 0:
            lo = mid
        else:
            hi = mid
        level.move(0 if s > 0 else 1, kinds)
        if level.collapsed(lo, hi):
            return _exact_result(branches, lo, hi, halvings, True)
    return _exact_result(branches, lo, hi, _EXACT_MAX_HALVINGS, False)


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
    before the solve. Raises ValueError when no grid point is feasible, and
    ImportError without numpy, which only the test extra installs.
    """
    try:
        import numpy as np
    except ImportError as err:
        raise ImportError("grid_bruteforce needs numpy: install fcdispatch[test]") from err

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
    result: DispatchResult, oracle: OracleResult | ExactSplit, tol_current: float
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

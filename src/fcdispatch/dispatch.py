"""Minimum-current dispatch via an observable-point table and KKT active sets.

Offline, the 2N marginal-power values of the branches at their bounds are
sorted into a breakpoint table of levels and cumulative power. Every branch
current is a function of the level alone, EquivalentStack.inverse_marginal,
which is exact at the bound levels. One sweep down the levels carries the
network power as running sums, so the table costs O(N log N) and its
cumulative powers lie within _EDGE_RTOL of the direct branch-by-branch sums.
The table also keeps columns from that sweep: each branch's bound currents
and its power at both bounds, for a branch that can be interior its
sqrt-current as a line in the level, per bound kind the branch indices in
level order, and after each breakpoint the sweep's running sums, which are
the interior power's cubic in the level over the window below that point.
inverse_marginal stays the model's definition of the current at a level;
the online path repeats its clamp and power's expression on the columns,
float op for float op, so it calls no model method and its results are
those of the methods bit for bit. Online, a demand is bracketed between two
consecutive breakpoints by bisecting those powers and confirming the few
within _EDGE_RTOL of it by their direct sums; a demand equal to a
breakpoint's direct power gets the zero-width window at that point's level.
_split alone builds a window's one record (_Window): its active sets, found
by bisecting the level-ordered indices, the pinned currents and power, for
an open window the interior's lines and the sweep's cubic, and for a
zero-width window every branch's current and power at its level. None of it
depends on the demand, so the table keeps the last window's record, and
consecutive demands in one window, as a sweep or a slowly moving control
loop makes them, reuse it. In an open window the interior branches are
solved for the common marginal level mu by one safeguarded Newton-bisection
loop inside the record's levels, run first on its cubic and then, from its
root, on the direct per-branch sum until the residual is within the
rounding error of the power sum. That sum takes each interior branch's
current and power with one expression, inverse_marginal's and power's at
mu, and writes both into the result as it adds the power: the residual and
the result share it, and the pass that stops the loop is the result. Every
other result is a zero-width record: a breakpoint's, or for a mu on an open
window's end the one _split builds at mu. The paper's three-candidate cubic
in the reference branch's sqrt-current and a model-agnostic bisection on the
level are cross-checks of this solve and live in paper.py, which this module
does not import: the online path needs neither them nor poly_roots.

At the optimum every interior branch runs at the same dP/dI (the marginal
level mu); branches at their lower bound have a steeper affordable marginal
and branches at their upper bound a flatter one, which is exactly the KKT
multiplier sign condition certified by verify_kkt.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .stack_model import (
    EquivalentStack,
    Network,
    NetworkValidationError,
    as_equivalent_stacks,
    reduce_network,
    validate_network,  # unused here; perfbench/spans.py wraps every name it traces
)

# Relative power-balance tolerance for accepting a solve.
_POWER_RTOL = 1e-9
# Relative slack at the power window's edges: equally valid summation orders
# of the same endpoint powers differ in the last ulp.
_EDGE_RTOL = 1e-12
# Unit roundoff scale of the running sums in build_table.
_EPS = sys.float_info.epsilon
# Iteration cap for the level searches.
_MAX_ITER = 200
# The exception, the JSON result and the CLI all say this of an infeasible demand.
_INFEASIBLE_MESSAGE = "Required power cannot be obtained"


class PointKind(enum.Enum):
    LOWER_BOUND = "lb"
    UPPER_BOUND = "ub"


_KINDS = (PointKind.LOWER_BOUND, PointKind.UPPER_BOUND)


class DispatchStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE_LOW = "infeasible_low"
    INFEASIBLE_HIGH = "infeasible_high"


class InfeasibleDemandError(ValueError):
    """Demand outside the obtainable power range, raised by locate_segment."""

    def __init__(self, status: DispatchStatus, p_req: float, p_min: float, p_max: float):
        self.status = status
        self.p_req = p_req
        self.feasible_range = (p_min, p_max)
        super().__init__(f"{_INFEASIBLE_MESSAGE}: p_req={p_req} W outside [{p_min}, {p_max}] W")


class SegmentSolveError(RuntimeError):
    """Internal inconsistency: a located segment failed to solve cleanly."""


class ObservablePoint(NamedTuple):
    """Breakpoint where one branch enters or leaves a bound.

    mu is that branch's dP/dI at the bound; cumulative_power is the network
    power when every branch runs at this level (DispatchTable.currents_at),
    taken from the running sums of build_table: it lies within _EDGE_RTOL
    of the direct branch-by-branch sum, not bit for bit on it.
    """

    mu: float
    branch_index: int
    kind: PointKind
    cumulative_power: float


class _Columns(NamedTuple):
    # Per-branch values, in branch order, that build_table computes once and
    # the online path reads in place of EquivalentStack methods. i_lb and
    # i_ub are the bound currents (i_ub_eff), p_lb and p_ub the power at
    # them. line is what the level solve reads of an interior branch,
    # (j, u, a, 1.5*b, b): its index, the slope u = 1/(1.5*b) of its
    # sqrt-current in the level, and inverse_marginal's and power's
    # coefficients. None for a branch whose two bound levels are one float,
    # which no window between consecutive levels has interior.
    i_lb: list[float]
    i_ub: list[float]
    p_lb: list[float]
    p_ub: list[float]
    line: list
    # Per bound kind, the branch indices in the table's order (level
    # descending, index ascending) and their negated bound levels, which
    # ascend: marginal_power at i_lb or i_ub_eff, the very floats
    # inverse_marginal compares a level with. The branches at a bound at
    # any level are then a slice found by bisection.
    lb_order: list[int]
    lb_key: list[float]
    ub_order: list[int]
    ub_key: list[float]
    # Flat, 4 per breakpoint: the sweep's running c3, c2, c1, c0 just after
    # it, so the open window [points[n].mu, points[n-1].mu] has its
    # interior's cubic in mu at sums[4n-4:4n].
    sums: list[float]
    # p_min and p_max widened by the _EDGE_RTOL slack: the feasible demands.
    p_low: float
    p_high: float
    # Each breakpoint's cumulative_power, in the table's order, which
    # _locate bisects without a key function.
    powers: list[float]
    # (p_min, p_max): the one feasible_range of every result of the table.
    feasible_range: tuple[float, float]


class _Window(NamedTuple):
    # A level window's one record, built by _split and never written to:
    # the levels, the split, every branch's current and power in branch
    # order (in an open window 0.0 as an interior branch's power, at a
    # zero-width window's level the result) and the pinned ones' sum, and
    # for an open window's level solve the interior's lines in ascending
    # order and its cubic (c3, c2, c1, c0) in mu from build_table's sweep.
    mu_high: float
    mu_low: float
    at_lb: frozenset[int]
    interior: frozenset[int]
    at_ub: frozenset[int]
    fixed: tuple[list[float], list[float]]
    pinned: float
    lines: list
    cubic: list[float]


@dataclass(frozen=True)
class DispatchTable:
    """Offline product: breakpoints sorted by decreasing marginal level.

    The table also carries per-branch columns (_Columns), filled by
    build_table from its sweep. They derive from stacks alone, so they are
    left out of equality and repr. The online path reads them in place of
    the branches' methods; EquivalentStack.inverse_marginal and power stay
    the model's definitions, which the columns reproduce bit for bit. A
    result is the level solve's last pass strictly inside an open window,
    and otherwise a zero-width window record (_Window, built by _split):
    a breakpoint's, or the one at a level on an open window's end.

    Solving fills two private states, also left out of equality and repr:
    a cache of the direct power at each breakpoint level, and the record of
    the last located window. Each is written with one assignment
    of a value that any caller would compute, so a table can be shared
    across threads.
    """

    stacks: tuple[EquivalentStack, ...]
    points: tuple[ObservablePoint, ...]
    p_min: float
    p_max: float
    _columns: _Columns = field(repr=False, compare=False)
    # Direct network power per breakpoint level, filled by locate_segment.
    _direct: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # The last located window's record, replaced by locate_segment with one
    # assignment when a demand lands in another window.
    _window: _Window | None = field(default=None, init=False, repr=False, compare=False)

    def currents_at(self, mu: float) -> tuple[float, ...]:
        """Every branch's current when the network runs at marginal level mu.

        Each is the branch's inverse_marginal(mu), evaluated on the table's
        per-branch columns with that method's own float operations, so the
        level of a breakpoint gives that branch's bound current exactly.
        A NaN level, which no bound test places, gives NaN for each.
        """
        if math.isnan(mu):
            return (math.nan,) * len(self.stacks)
        return tuple(_at_level(self._columns, mu)[0])

    def _direct_power(self, mu: float) -> float:
        p = self._direct.get(mu)
        if p is None:
            p = self._direct[mu] = sum(_at_level(self._columns, mu)[1])
        return p


def _split(cols: _Columns, mu_high: float, mu_low: float, cubic: list[float]) -> _Window:
    # The record of the window [mu_low, mu_high], with the cubic given.
    # inverse_marginal's clamp in two bisections: the branches at their
    # lower bound (lb_level <= mu_low) are a slice of the level order, those
    # of the rest at their upper bound (ub_level >= mu_high) an intersection
    # with another. The pinned columns, with 0.0 as an interior branch's
    # power, add up in branch order to the pinned power. A zero-width window
    # then fills its interior with inverse_marginal's and power's expressions,
    # float op for float op, so its columns are the result at its level.
    k = bisect_left(cols.lb_key, -mu_low)
    above = frozenset(cols.lb_order[:k])
    at_ub = above.intersection(cols.ub_order[: bisect_right(cols.ub_key, -mu_high)])
    at_lb, interior = frozenset(cols.lb_order[k:]), above - at_ub
    currents, powers = cols.i_ub.copy(), cols.p_ub.copy()
    i_lb, p_lb, line = cols.i_lb, cols.p_lb, cols.line
    for j in at_lb:
        currents[j] = i_lb[j]
        powers[j] = p_lb[j]
    for j in interior:
        powers[j] = 0.0
    pinned = sum(powers)
    if mu_low < mu_high:
        lines = [line[j] for j in sorted(interior)]
    else:
        lines = []
        for j in interior:
            _, _, a, b15, b = line[j]
            x = (mu_low - a) / b15
            i = x * x
            currents[j] = i
            powers[j] = a * i + b * i * math.sqrt(i)
    # tuple.__new__ skips the NamedTuple's generated __new__, whose Python
    # frame would double the cost of every miss's record.
    return tuple.__new__(
        _Window, (mu_high, mu_low, at_lb, interior, at_ub, (currents, powers), pinned, lines, cubic)
    )


def _at_level(cols: _Columns, mu: float) -> tuple[list[float], list[float]]:
    # Every branch's current at level mu and its power, in branch order.
    return _split(cols, mu, mu, []).fixed


@dataclass(frozen=True)
class ActiveSets:
    """Partition of branches for one demand segment (0-based indices).

    mu_high/mu_low are the marginal levels at the segment's low-power and
    high-power ends; p_req_eff is the demand left for the interior branches
    after subtracting the power of branches pinned at a bound.
    """

    at_lb: frozenset[int]
    interior: frozenset[int]
    at_ub: frozenset[int]
    p_req_eff: float
    mu_high: float
    mu_low: float


@dataclass(frozen=True)
class DispatchResult:
    status: DispatchStatus
    p_req: float
    feasible_range: tuple[float, float]
    currents: tuple[float, ...] | None = None
    total_current: float | None = None
    total_power: float | None = None
    mu: float | None = None
    sets: ActiveSets | None = None


def _frozen(cls, *values):
    # cls(*values) for ActiveSets or DispatchResult without the generated
    # __init__, whose call costs about as much as the level solve: one
    # object.__new__, then object.__setattr__ once per field in field order,
    # as __init__ sets them, so the values stay in the instance's inline
    # storage (CPython 3.11+) and vars() lists them in field order. The
    # setter is bound to the instance and driven by map, so the per-field
    # loop runs in C; it returns None, so any() runs it to the end. Never
    # assign or update __dict__ here: that gives each result a dict of its
    # own, one more GC-tracked object, and with two per solve the gen-0
    # threshold falls inside a batch of solves, whose first collection then
    # walks every fresh result, N-long tuples and all. Neither class may
    # define __post_init__, which this skips.
    obj = object.__new__(cls)
    any(map(object.__setattr__.__get__(obj), cls.__dataclass_fields__, values))
    return obj



@dataclass(frozen=True)
class KktReport:
    """First-order optimality certificate for an optimal dispatch.

    lambda_ is the power-constraint multiplier 1/mu; mu_multipliers and
    gamma_multipliers are the lower/upper bound multipliers (zero for
    branches where the bound is inactive, so complementary slackness holds
    by construction). Values within 1e-9 of zero are snapped to zero, since
    breakpoint demands make the exact multiplier zero up to rounding.
    """

    lambda_: float
    mu_multipliers: tuple[float, ...]
    gamma_multipliers: tuple[float, ...]
    max_equal_marginal_residual: float
    chain_ok: bool

    @property
    def ok(self) -> bool:
        """Pass flag: chain holds, residual <= 1e-6 W/A, multipliers >= 0."""
        return (
            self.chain_ok
            and self.max_equal_marginal_residual <= 1e-6
            and all(m >= 0.0 for m in self.mu_multipliers)
            and all(g >= 0.0 for g in self.gamma_multipliers)
        )


def build_table(stacks: Sequence[EquivalentStack]) -> DispatchTable:
    """Construct the 2N-point observable table for pre-reduced branches.

    Points are sorted by (mu descending, lower-bound kind first, branch
    index ascending) so equal-level ties are deterministic. One pass over
    the branches takes their bound levels and powers with marginal_power's
    and power's expressions, float op for float op (a negative bound raises
    the methods' ValueError). One sweep down the levels then keeps the
    pinned power and the interior power's cubic in mu as running sums; each
    breakpoint moves one branch, so the table costs O(N log N). At a level,
    a branch whose lower-bound level equals it is still at i_lb
    (inverse_marginal tests that bound first), and one whose two bound
    levels are the same float goes to i_ub_eff only below it. p_min and
    p_max are the direct sums at the highest and lowest level; so p_max is
    not always the power at every i_ub_eff (ROADMAP item 4(b)). The
    per-branch values, the sweep's cubic sums after each point and the
    feasibility thresholds are kept as the table's columns for the online
    path. A network whose levels or powers leave the float range raises
    NetworkValidationError.
    """
    stacks = tuple(stacks)
    n = len(stacks)
    if not n:
        raise NetworkValidationError("network has no branches")
    i_lb, i_ub, p_lb, p_ub, lb_level, ub_level = [], [], [], [], [], []
    try:
        for s in stacks:
            a, b, lo, hi = s.a_eq, s.b_eq, s.i_lb, s.i_ub_eff
            b15, r_lo, r_hi = 1.5 * b, math.sqrt(lo), math.sqrt(hi)
            i_lb.append(lo)
            i_ub.append(hi)
            lb_level.append(a + b15 * r_lo)
            ub_level.append(a + b15 * r_hi)
            p_lb.append(a * lo + b * lo * r_lo)
            p_ub.append(a * hi + b * hi * r_hi)
    except ValueError:
        # sqrt of a negative bound: marginal_power names the first one.
        for bound in ("i_lb", "i_ub_eff"):
            for s in stacks:
                s.marginal_power(getattr(s, bound))
        raise
    # Point k < n is branch k's lower bound, point n + j branch j's upper
    # bound. A stable sort by level, descending, keeps equal levels in that
    # order: lower bounds first, then by branch index.
    levels = lb_level + ub_level
    order = sorted(range(2 * n), key=levels.__getitem__, reverse=True)
    lb_order = [k for k in order if k < n]
    ub_order = [k - n for k in order if k >= n]
    line = [None] * n
    sums, powers, points = [], [], []
    # The direct sums at the end levels. At the top every branch is at i_lb;
    # at the bottom at i_ub_eff, unless its lower-bound level is the bottom.
    lowest = levels[order[-1]]
    p_min = sum(p_lb)
    p_max = sum([lo if m <= lowest else hi for m, lo, hi in zip(lb_level, p_lb, p_ub)])
    lb_key, ub_key = [-lb_level[j] for j in lb_order], [-ub_level[j] for j in ub_order]
    columns = _Columns(
        i_lb, i_ub, p_lb, p_ub, line, lb_order, lb_key, ub_order, ub_key, sums,
        p_min - _EDGE_RTOL * max(1.0, abs(p_min)), p_max + _EDGE_RTOL * max(1.0, abs(p_max)),
        powers, (p_min, p_max),
    )

    pinned = p_min
    c3 = c2 = c1 = c0 = 0.0  # interior power as a cubic in mu
    # Magnitudes of every term the two sums have taken in, the pinned
    # powers' with c0's in h0: the scale of their rounding error.
    h3 = h2 = h1 = 0.0
    h0 = p_min
    cubic = [None] * n  # an interior branch's terms
    level = None
    for k in order:
        mu, upper = levels[k], k >= n
        j = k - n if upper else k
        if mu != level:
            # A branch's power is continuous in the level, so the network
            # power at a level does not depend on which of the branches
            # changing there the sums have moved yet.
            level = mu
            if mu == lowest:
                power = p_max
            else:
                power = pinned + (((c3 * mu + c2) * mu + c1) * mu + c0)
                m = abs(mu)
                if _EPS * (((h3 * m + h2) * m + h1) * m + h0) > _EDGE_RTOL * max(1.0, abs(power)):
                    # The running sums cannot place this power within the
                    # slack locate_segment relies on, as when a branch with
                    # a large cubic runs just below its lower-bound level.
                    power = sum(_at_level(columns, mu)[1])
        powers.append(power)
        if upper:
            if cubic[j] is not None:
                # An interior branch reaches its upper bound.
                t3, t2, t1, t0 = cubic[j]
                c3, c2, c1, c0 = c3 - t3, c2 - t2, c1 - t1, c0 - t0
                pinned += p_ub[j]
                h0 += p_ub[j]
        else:
            # The branch leaves its lower bound just below this level; with
            # both bound levels here, it goes straight to its upper bound.
            pinned -= p_lb[j]
            h0 += p_lb[j]
            if ub_level[j] == mu:
                pinned += p_ub[j]
                h0 += p_ub[j]
            else:
                # Its line, kept as (j, u, a, 1.5*b, b) for _solve_level,
                # and the terms of its power P = (a + b*x)*x*x, with
                # x = sqrt(I) = u*mu + v, as a cubic in the level mu.
                a, b = stacks[j].a_eq, stacks[j].b_eq
                b15 = 1.5 * b
                u = 1.0 / b15
                v = -a * u
                line[j] = j, u, a, b15, b
                try:
                    t3 = b * u**3
                except OverflowError:
                    raise _beyond_float_range(j) from None
                t2 = u * u * (a + 3.0 * b * v)
                t1 = u * v * (2.0 * a + 3.0 * b * v)
                t0 = v * v * (a + b * v)
                cubic[j] = t3, t2, t1, t0
                c3, c2, c1, c0 = c3 + t3, c2 + t2, c1 + t1, c0 + t0
                h3, h2, h1, h0 = h3 + t3, h2 + abs(t2), h1 + abs(t1), h0 + t0
        sums += c3, c2, c1, c0
        # tuple.__new__ skips the NamedTuple's generated __new__ frame.
        points.append(tuple.__new__(ObservablePoint, (mu, j, _KINDS[upper], power)))
    if not all(map(math.isfinite, powers)):
        # Name the first branch with a level, bound power or cubic term of its
        # own beyond the float range; with none, sums of finite values overflowed.
        own = zip(lb_level, ub_level, p_lb, p_ub, cubic)
        bad = (j for j, (*v, t) in enumerate(own) if not all(map(math.isfinite, v + list(t or ()))))
        raise _beyond_float_range(next(bad, None))
    return DispatchTable(
        stacks=stacks, points=tuple(points), p_min=p_min, p_max=p_max, _columns=columns
    )


def _beyond_float_range(j: int | None) -> NetworkValidationError:
    where = "network" if j is None else f"branches[{j}]"
    return NetworkValidationError(f"{where}: power or marginal level beyond the float range")


def feasible_power_range(table: DispatchTable) -> tuple[float, float]:
    """Obtainable power window: the direct sums at the end levels (build_table)."""
    return table._columns.feasible_range


def locate_segment(table: DispatchTable, p_req: float) -> ActiveSets:
    """Bracket the demand between consecutive breakpoints and split branches.

    The bracket ends at the first breakpoint whose direct power (the sum of
    every branch's power at that level) is at least the demand. A demand
    equal to that power runs at that point's level: the segment is the
    zero-width window [mu, mu]. Demands within the _EDGE_RTOL slack outside
    [p_min, p_max] are clamped to the edge; beyond it, NaN included,
    InfeasibleDemandError is raised, the one place that builds it.

    The search bisects the stored cumulative powers, which lie within the
    slack of the direct ones. So every point stored below the demand's
    window has a direct power below the demand, and every point stored above
    it one above the demand; only the points stored inside the window are
    resolved by their direct power, computed once per table. That is the
    linear scan over direct powers, even where two adjacent direct powers
    decrease by rounding.

    The split depends on the window alone, so the table keeps the last
    window's record, replaced by one _split when a demand lands in another
    window. A demand in the same window as the one before it takes the
    split and the pinned power from that record, and its sets share the
    record's frozensets; the bracket is still found and confirmed as above.
    """
    sets, window = _locate(table, p_req)
    if window is None:
        raise InfeasibleDemandError(sets, p_req, table.p_min, table.p_max)
    return sets


def _locate(
    table: DispatchTable, p_req: float
) -> tuple[ActiveSets, _Window] | tuple[DispatchStatus, None]:
    # locate_segment, plus the window's record that its sets come from. A
    # caller solves with this record, never with a second read of the slot,
    # which another thread may have replaced in between. An infeasible
    # demand, NaN included, returns its status and None, and raises nothing.
    cols = table._columns
    if not p_req >= cols.p_low:  # also a NaN demand
        return DispatchStatus.INFEASIBLE_LOW, None
    if p_req > cols.p_high:
        return DispatchStatus.INFEASIBLE_HIGH, None

    # min(max(p_req, p_min), p_max) and max(1.0, |p_scan|), without the calls.
    p_min, p_max = cols.feasible_range
    p_scan = p_req
    if p_min > p_scan:
        p_scan = p_min
    if p_max < p_scan:
        p_scan = p_max
    scale = abs(p_scan)
    slack = _EDGE_RTOL * (scale if scale > 1.0 else 1.0)
    points, powers, top = table.points, cols.powers, p_scan + slack
    n = bisect_left(powers, p_scan - slack)
    hit = False
    while powers[n] <= top:
        direct = table._direct_power(points[n].mu)
        if direct >= p_scan:
            hit = direct == p_scan
            break
        n += 1
    mu_high, mu_low = points[n if hit else n - 1].mu, points[n].mu
    window = table._window
    if window is None or window.mu_high != mu_high or window.mu_low != mu_low:
        cubic = [] if hit else cols.sums[4 * n - 4 : 4 * n]
        window = _split(cols, mu_high, mu_low, cubic)
        object.__setattr__(table, "_window", window)
    sets = _frozen(
        ActiveSets, window.at_lb, window.interior, window.at_ub, p_req - window.pinned,
        mu_high, mu_low,
    )
    return sets, window


def _solve_level(window: _Window, p_req_eff: float) -> tuple[float, int, tuple]:
    # Common marginal level of the window's interior branches, inside its
    # levels [mu_low, mu_high], the number of direct passes it took, and
    # every branch's current and power at that level in branch order.
    # With x_j = sqrt(I_j) = u_j*mu + v_j the interior power is a cubic in
    # mu, window.cubic, which build_table's sweep summed. The window
    # brackets its one root there, so Newton steps on the cubic's Horner
    # form find it, and seed the same steps on the per-branch sum, whose
    # slope is 2*mu*sum(u_j*x_j). A direct pass evaluates each interior
    # branch (window.lines) with the expressions of the result, which are
    # inverse_marginal's and power's: x = (mu - a)/(1.5*b), I = x*x and
    # P = a*I + b*I*sqrt(I). It writes I and P into copies of the pinned
    # columns as it sums P, so the pass that stops the loop has assembled
    # the result; after _MAX_ITER passes one more, at the mu the last one
    # moved to, stops the loop. Power falls as mu rises, so every residual
    # sign narrows the bracket, and a step that would leave it (or a zero
    # slope) bisects instead. The direct stage stops once its residual f
    # says nothing more about mu. Every term is positive below the power
    # peak, so f + p_req_eff is their sum, and floor times it estimates the
    # sum's rounding error: n additions plus 6 for the roundings of each
    # term (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    # ed., ch. 4). The residual must also be within floor of slope*mu, so
    # that the Newton step it implies is within floor of mu: near a power
    # peak the power is flat in mu, and a residual at the floor can still
    # leave mu far off.
    lo, hi, lines = window.mu_low, window.mu_high, window.lines
    c3, c2, c1, c0 = window.cubic
    c0 -= p_req_eff
    floor = _EPS * (len(lines) + 6)
    currents, powers = window.fixed[0].copy(), window.fixed[1].copy()
    sqrt = math.sqrt

    # Each stage starts from the whole window: rounding can give the cubic
    # one sign over it, and the seed then bisects to a window end.
    mu = 0.5 * (lo + hi)
    for direct in (False, True):
        left, right = lo, hi
        for passes in range(1, _MAX_ITER + 1 + direct):
            if direct:
                f, df = -p_req_eff, 0.0
                for j, u, a, b15, b in lines:
                    x = (mu - a) / b15
                    i = x * x
                    p = a * i + b * i * sqrt(i)
                    currents[j] = i
                    powers[j] = p
                    f += p
                    df += u * x
                df *= 2.0 * mu
                if passes > _MAX_ITER or abs(f) <= floor * min(f + p_req_eff, abs(df * mu)):
                    break
            else:
                f = ((c3 * mu + c2) * mu + c1) * mu + c0
                df = (3.0 * c3 * mu + 2.0 * c2) * mu + c1
            if f > 0.0:
                left = mu
            else:
                right = mu
            nxt = mu - f / df if df else math.nan
            if nxt == mu:
                break
            if not left < nxt < right:
                nxt = 0.5 * (left + right)
                if nxt == left or nxt == right:
                    break
            mu = nxt
    return mu, passes, (currents, powers)


def dispatch_table(table: DispatchTable, p_req: float) -> DispatchResult:
    """Online solve on a shareable table; an infeasible or NaN demand returns its status."""
    sets, window = _locate(table, p_req)
    if window is None:  # sets is the infeasible status
        return _frozen(
            DispatchResult, sets, p_req, table._columns.feasible_range, None, None, None, None, None
        )

    # A breakpoint's zero-width record is its result: its level is exact.
    mu, (currents, powers) = window.mu_low, window.fixed
    if mu < window.mu_high:
        # Power is a function of the level, so some branch changes across
        # an open window. It is interior unless its two bound levels round
        # to one float; the solve then only bisects towards a window end.
        # Strictly inside, no bound level lies in the window, so the
        # branches split at mu as over the window, and the solve's last
        # pass is the result.
        mu, _, (currents, powers) = _solve_level(window, sets.p_req_eff)
        if not window.mu_low < mu < window.mu_high:
            # At a window end, a branch whose bound level is that end sits
            # at the bound, so the result is the zero-width record at mu.
            currents, powers = _at_level(table._columns, mu)
    total_power, scale = sum(powers), abs(p_req)  # max(1.0, scale) below, without the call
    if abs(total_power - p_req) > _POWER_RTOL * (scale if scale > 1.0 else 1.0):
        raise SegmentSolveError(
            f"power balance violated: got {total_power} W for demand {p_req} W"
        )
    return _frozen(
        DispatchResult, DispatchStatus.OPTIMAL, p_req, table._columns.feasible_range,
        tuple(currents), sum(currents), total_power, mu, sets,
    )


def dispatch(network: Network | Sequence[EquivalentStack], p_req: float) -> DispatchResult:
    """Validate and reduce (in one pass), build the table, and solve one demand."""
    if isinstance(network, Network):
        network = reduce_network(network)
    return dispatch_table(build_table(network), p_req)


def _level_ratio(m: float, mu: float) -> float:
    if mu > 0.0:
        return m / mu
    return 1.0 if m == 0.0 else math.inf


def _snap_zero(v: float) -> float:
    return 0.0 if abs(v) < 1e-9 else v


def verify_kkt(
    result: DispatchResult, network: Network | Sequence[EquivalentStack]
) -> KktReport:
    """Certify first-order optimality of an optimal dispatch result.

    Checks that interior marginals agree with the reported level, that
    lower-bound marginals sit at or below it and upper-bound marginals at or
    above it (the multiplier nonnegativity chain), and that branches
    reported at a bound actually carry the bound current (complementary
    slackness). chain_ok covers all three. A result with another branch
    count than the network raises ValueError.
    """
    if result.status is not DispatchStatus.OPTIMAL or result.sets is None:
        raise ValueError("verify_kkt requires an optimal dispatch result")
    stacks = as_equivalent_stacks(network)
    if len(result.currents) != len(stacks):
        raise ValueError(
            f"verify_kkt: the result has {len(result.currents)} branches, "
            f"the network {len(stacks)}"
        )
    sets = result.sets
    mu = result.mu
    currents = result.currents

    residual = 0.0
    for j in sets.interior:
        residual = max(residual, abs(stacks[j].marginal_power(currents[j]) - mu))

    mu_mult = [0.0] * len(stacks)
    gamma_mult = [0.0] * len(stacks)
    chain_tol = 1e-9 * max(1.0, abs(mu))
    chain_ok = True
    for j in sets.at_lb:
        m = stacks[j].marginal_power(stacks[j].i_lb)
        mu_mult[j] = _snap_zero(1.0 - _level_ratio(m, mu))
        pinned = abs(currents[j] - stacks[j].i_lb) <= 1e-9 * max(1.0, stacks[j].i_lb)
        chain_ok = chain_ok and pinned and m <= mu + chain_tol
    for j in sets.at_ub:
        m = stacks[j].marginal_power(stacks[j].i_ub_eff)
        gamma_mult[j] = _snap_zero(_level_ratio(m, mu) - 1.0)
        pinned = abs(currents[j] - stacks[j].i_ub_eff) <= 1e-9 * max(1.0, stacks[j].i_ub_eff)
        chain_ok = chain_ok and pinned and m >= mu - chain_tol

    return KktReport(
        lambda_=1.0 / mu if mu > 0.0 else math.inf,
        mu_multipliers=tuple(mu_mult),
        gamma_multipliers=tuple(gamma_mult),
        max_equal_marginal_residual=residual,
        chain_ok=chain_ok,
    )


# Names that perfbench/spans.py's WRAPPED still rebinds on this module for
# the traced run, though they moved to paper.py (real_roots to poly_roots.py,
# which paper.py imports). Resolving them on access keeps that run working
# without loading paper.py on the online path. Delete this shim when ROADMAP
# item 1 revises WRAPPED.
_PAPER_NAMES = frozenset({"solve_segment_sqrt", "select_feasible_root", "real_roots"})


def __getattr__(name: str):
    if name in _PAPER_NAMES:
        from . import paper

        return getattr(paper, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

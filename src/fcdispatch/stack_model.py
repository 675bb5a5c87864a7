"""Square-root polarization model for fuel-cell branches.

A stack's voltage is modeled as V(I) = a + b*sqrt(I) with a >= 0 and b < 0,
so branch power P(I) = phi*V(I)*I is strictly concave in I. Branches with
several stacks in series (equal current) reduce exactly to a single
equivalent stack by summing the phi-weighted coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


class NetworkValidationError(ValueError):
    """A network definition violates a model invariant."""


@dataclass(frozen=True)
class SqrtStackParams:
    """V-I fit coefficients of one stack: V = a + b*sqrt(I).

    a is in volts, b in volts per sqrt(ampere) (b < 0 required), phi is the
    stack's electrical efficiency in (0, 1].
    """

    a: float
    b: float
    phi: float = 1.0


@dataclass(frozen=True)
class BranchSpec:
    """One parallel branch: stacks in series plus current bounds in amperes.

    All stacks in a branch carry the same current, so bounds live on the
    branch. i_ub may be math.inf.
    """

    stacks: tuple[SqrtStackParams, ...]
    i_lb: float = 0.0
    i_ub: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "stacks", tuple(self.stacks))


@dataclass(frozen=True)
class Network:
    """Parallel network of branches sharing a power bus."""

    branches: tuple[BranchSpec, ...]

    # Not a field, so out of ==, hash, repr and asdict: netconfig.parse_network
    # sets it on the instance to the reduction its validation computed.
    _reduced = None

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def n_branches(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class EquivalentStack:
    """Single-stack surrogate for a branch, efficiency folded into a_eq/b_eq.

    i_ub_eff caps the declared bound at the current where branch power peaks
    (dP/dI = 0); currents beyond that point deliver less power for more
    current and are never part of a minimum-current operating point.
    """

    a_eq: float
    b_eq: float
    i_lb: float
    i_ub: float
    i_ub_eff: float

    def power(self, i: float) -> float:
        """Branch power in watts at current i: a_eq*i + b_eq*i**1.5."""
        if i < 0.0:
            raise ValueError(f"current must be nonnegative, got {i}")
        return self.a_eq * i + self.b_eq * i * math.sqrt(i)

    def marginal_power(self, i: float) -> float:
        """dP/dI in watts per ampere at current i: a_eq + 1.5*b_eq*sqrt(i)."""
        if i < 0.0:
            raise ValueError(f"current must be nonnegative, got {i}")
        return self.a_eq + 1.5 * self.b_eq * math.sqrt(i)

    def inverse_marginal(self, mu: float) -> float:
        """Current at which dP/dI equals mu, clamped to [i_lb, i_ub_eff].

        Total in mu, and nonincreasing up to rounding. The bounds are tested
        in level space with marginal_power's expression, bit for bit, so a
        bound's level maps back to that bound exactly: a level at or above
        the lower bound's marginal gives i_lb, one at or below the upper
        bound's gives i_ub_eff.
        """
        a, b15 = self.a_eq, 1.5 * self.b_eq
        if a + b15 * math.sqrt(self.i_lb) <= mu:
            return self.i_lb
        if a + b15 * math.sqrt(self.i_ub_eff) >= mu:
            return self.i_ub_eff
        x = (mu - a) / b15
        return x * x


def effective_upper_bound(a_eq: float, b_eq: float, i_ub: float) -> float:
    """Smaller of the declared bound and the power-peak current (2a/3|b|)^2."""
    x_peak = 2.0 * a_eq / (3.0 * -b_eq)
    return min(i_ub, x_peak * x_peak)


def _stack_problem(stack: SqrtStackParams) -> str | None:
    # Names the first of reduce_branch's stack tests that fails; the tests
    # are its comparison chain's, term by term.
    if not 0.0 <= stack.a < math.inf:
        return f"a must be finite and >= 0, got {stack.a}"
    if not -math.inf < stack.b < 0.0:
        return f"b must be finite and < 0, got {stack.b}"
    if not 0.0 < stack.phi <= 1.0:
        return f"phi must be in (0, 1], got {stack.phi}"
    return None


def _where(index: int | None) -> str:
    # A branch's location in messages, formatted only for one that raises.
    return "branch" if index is None else f"branches[{index}]"


def reduce_branch(branch: BranchSpec, index: int | None = None) -> EquivalentStack:
    """Collapse a series branch to its exact single-stack equivalent.

    a_eq and b_eq are the phi-weighted coefficient sums, which preserves
    branch power identically for every current; a b_eq that underflows to
    zero has no power peak and is rejected. The first check to fail, in the
    order stacks, each stack, i_lb, i_lb <= i_ub, raises and is named.
    """
    stacks, i_lb, i_ub = branch.stacks, branch.i_lb, branch.i_ub
    inf = math.inf
    if not stacks:
        raise NetworkValidationError(f"{_where(index)}: branch has no stacks")
    a_terms, b_terms = [], []
    for s in stacks:
        a, b, phi = s.a, s.b, s.phi
        if not (0.0 <= a < inf and -inf < b < 0.0 and 0.0 < phi <= 1.0):
            k = [id(t) for t in stacks].index(id(s))  # an earlier s would have failed
            raise NetworkValidationError(f"{_where(index)}.stacks[{k}]: {_stack_problem(s)}")
        a_terms.append(phi * a)
        b_terms.append(phi * b)
    if not 0.0 <= i_lb < inf:
        raise NetworkValidationError(f"{_where(index)}: i_lb must be finite and >= 0, got {i_lb}")
    if not i_lb <= i_ub:
        raise NetworkValidationError(
            f"{_where(index)}: need i_lb <= i_ub, got i_lb={i_lb}, i_ub={i_ub}"
        )
    a_eq, b_eq = sum(a_terms), sum(b_terms)
    if not b_eq < 0.0:
        raise NetworkValidationError(f"{_where(index)}: sum of phi*b underflows to {b_eq}")
    i_ub_eff = effective_upper_bound(a_eq, b_eq, i_ub)
    if i_ub_eff < i_lb:
        # Power would be decreasing over the whole allowed range.
        raise NetworkValidationError(
            f"{_where(index)}: power peaks at {i_ub_eff:.6g} A, below i_lb={i_lb}"
        )
    # Without the dataclass __init__ and its five object.__setattr__ calls.
    eq = object.__new__(EquivalentStack)
    d = eq.__dict__
    d["a_eq"], d["b_eq"], d["i_lb"], d["i_ub"], d["i_ub_eff"] = a_eq, b_eq, i_lb, i_ub, i_ub_eff
    return eq


def validate_network(network: Network) -> Network:
    """Check every invariant, naming the offending branch/stack on failure."""
    reduce_network(network)
    return network


def reduce_network(network: Network) -> tuple[EquivalentStack, ...]:
    """Validate and reduce every branch, preserving branch order.

    A network from netconfig.parse_network was reduced by its validation,
    and that reduction is returned; any other network is reduced afresh.
    """
    if network._reduced is not None:
        return network._reduced
    if not network.branches:
        raise NetworkValidationError("network has no branches")
    return tuple(reduce_branch(b, index=j) for j, b in enumerate(network.branches))


def as_equivalent_stacks(
    network: Network | Sequence[EquivalentStack],
) -> tuple[EquivalentStack, ...]:
    """Accept either a Network or pre-reduced stacks and return stacks.

    An empty network raises NetworkValidationError, as reduce_network does.
    """
    if isinstance(network, Network):
        return reduce_network(network)
    stacks = tuple(network)
    if not stacks:
        raise NetworkValidationError("network has no branches")
    return stacks

"""Exactness just below the power peak, against a 60-digit level bisection.

Close to p_max the currents move fast with the demand, but the problem is
still well defined: both solvers must land within 1e-9 * max(1 A, largest
current) of the exact split of the float-defined network. The reference is
computed with the standard library's decimal module, so it shares no
float arithmetic with either solver.
"""

from decimal import Decimal, localcontext

import pytest

from fcdispatch import build_table, dispatch_table, lambda_bisection


def exact_currents(stacks, p_req: float) -> tuple[float, ...]:
    """Bisect the common marginal level in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        branches = []
        for s in stacks:
            a, b = Decimal(s.a_eq), Decimal(s.b_eq)
            branches.append((a, b, Decimal(s.i_lb).sqrt(), Decimal(s.i_ub_eff).sqrt()))

        def sqrt_currents(mu):
            # Clamped inverse marginal in sqrt-current space.
            return [
                min(max((mu - a) / (Decimal(1.5) * b), x_lo), x_hi)
                for a, b, x_lo, x_hi in branches
            ]

        def power(mu):
            return sum((a + b * x) * x * x for (a, b, _, _), x in zip(branches, sqrt_currents(mu)))

        target = Decimal(p_req)
        lo = min(a + Decimal(1.5) * b * x_hi for a, b, _, x_hi in branches)
        hi = max(a + Decimal(1.5) * b * x_lo for a, b, x_lo, _ in branches)
        for _ in range(240):  # 2**-240 of the window is below 60 digits
            mu = (lo + hi) / 2
            if power(mu) > target:
                lo = mu
            else:
                hi = mu
        return tuple(float(x * x) for x in sqrt_currents((lo + hi) / 2))


@pytest.mark.parametrize("k", range(5, 13))
@pytest.mark.parametrize("network", ["bench3", "bench30"])
def test_near_peak_matches_exact_level(request, network, k):
    stacks = request.getfixturevalue(f"{network}_stacks")
    table = build_table(stacks)
    p = table.p_max * (1.0 - 10.0 ** -k)
    exact = exact_currents(stacks, p)
    tol = 1e-9 * max(1.0, max(exact))
    for currents in (dispatch_table(table, p).currents, lambda_bisection(stacks, p).currents):
        assert max(abs(i - j) for i, j in zip(currents, exact)) <= tol

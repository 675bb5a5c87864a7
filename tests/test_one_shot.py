"""The one-shot dispatch() against a table built for every demand.

dispatch() ends build_table's sweep just after its demand's window when
every branch lies in dispatch._in_box's magnitude box. Its result must be
dispatch_table(build_table(stacks), p)'s bit for bit, at each class of
demand that tools/records.py draws: the window edges and their float
neighbours, breakpoint powers and their neighbours, the midpoints between
them, uniform draws, infeasible demands, NaN and both infinities.
"""

import importlib
import math
import random

import numpy as np
import pytest

from fcdispatch import (
    BranchSpec,
    DispatchStatus,
    Network,
    SqrtStackParams,
    build_table,
    dispatch,
    dispatch_table,
    reduce_network,
)

from conftest import (
    build_bench3_network,
    build_bench30_network,
    make_random_network,
    make_wide_network,
    outcome,
)

dispatch_module = importlib.import_module("fcdispatch.dispatch")
N_SAMPLED_POINTS = 16


def demand_classes(stacks, table, r: random.Random) -> list[float]:
    # tools/records.py's demands(), plus the inner neighbours of the window
    # edges. It is written out here because loading that tool would add its
    # float literals to the constants Hypothesis draws from.
    lo, hi = table.p_min, table.p_max
    out = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    out += [math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    out += [lo * (1.0 + 1e-9), hi * (1.0 - 1e-9)]
    step = max(1, len(table.points) // N_SAMPLED_POINTS)
    direct = [
        sum(s.power(s.inverse_marginal(pt.mu)) for s in stacks) for pt in table.points[::step]
    ]
    for p in direct:
        out += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    out += [0.5 * (p + q) for p, q in zip(direct, direct[1:])]
    out += [lo + r.random() * (hi - lo) for _ in range(8)]
    out += [lo - max(1.0, 1e-3 * abs(lo)), hi + max(1.0, 1e-3 * abs(hi))]
    out += [math.nan, math.inf, -math.inf]
    return out


def networks():
    yield "bench3", build_bench3_network()
    yield "bench30", build_bench30_network()
    rng = np.random.default_rng(0)
    for n in range(2, 13):
        yield f"random-n{n}", make_random_network(rng, n)
    yield "random-n300", make_random_network(np.random.default_rng(1), 300)
    r = random.Random(5)
    for k in range(40):
        yield f"wide-{k}", make_wide_network(r)


NETWORKS = dict(networks())


@pytest.mark.parametrize("name", list(NETWORKS))
def test_one_shot_is_the_full_tables_result_bit_for_bit(name):
    network = NETWORKS[name]
    stacks = reduce_network(network)
    table = build_table(stacks)
    for p in demand_classes(stacks, table, random.Random(name)):
        want = outcome(lambda: dispatch_table(table, p))
        assert outcome(lambda: dispatch(stacks, p)) == want, p
        assert outcome(lambda: dispatch(network, p)) == want, p


@pytest.fixture()
def one_shot_tables(monkeypatch) -> list:
    """The tables that dispatch() hands to dispatch_table during the test."""
    tables, original = [], dispatch_module.dispatch_table

    def keeping(table, p_req):
        tables.append(table)
        return original(table, p_req)

    monkeypatch.setattr(dispatch_module, "dispatch_table", keeping)
    return tables


def test_one_shot_sweeps_to_just_after_its_window(one_shot_tables):
    stacks = reduce_network(make_random_network(np.random.default_rng(1), 100))
    full = build_table(stacks)
    lo, hi = full.p_min, full.p_max
    for p in (lo, lo + 0.1 * (hi - lo), lo + 0.5 * (hi - lo)):
        assert dispatch(stacks, p).status is DispatchStatus.OPTIMAL
        table = one_shot_tables.pop()
        m = len(table.points)
        assert m < len(full.points)
        # A prefix of the full table's sweep, which ends at the first point
        # stored above the demand's slack; the points not swept stand in as
        # inf in the stored powers.
        cols, whole = table._columns, full._columns
        assert table.points == full.points[:m]
        assert cols.sums == whole.sums[: 4 * m]
        assert cols.powers == whole.powers[:m] + [math.inf] * (len(full.points) - m)
        assert all(x is None or x == y for x, y in zip(cols.line, whole.line))
        for f in set(cols._fields) - {"sums", "powers", "line"}:
            assert getattr(cols, f) == getattr(whole, f), f
        top = p + 1e-12 * max(1.0, abs(p))
        assert [pt.cumulative_power > top for pt in table.points] == [False] * (m - 1) + [True]
    # At p_max no stored power exceeds the demand's slack: the whole sweep.
    dispatch(stacks, hi)
    assert one_shot_tables.pop().points == full.points
    # An infeasible demand, NaN included, is settled by the window alone.
    for p in (lo - 1.0, hi + 1.0, math.nan, math.inf):
        assert dispatch(stacks, p).status is not DispatchStatus.OPTIMAL
        assert len(one_shot_tables.pop().points) == 1


def test_a_branch_outside_the_box_keeps_the_whole_sweep(one_shot_tables):
    # A zero-width branch with |b| = 1e-60 < 1e-50 puts the network outside
    # the box, so a demand near p_min still sweeps every point.
    odd = BranchSpec(stacks=(SqrtStackParams(a=1.0, b=-1e-60),), i_lb=0.5, i_ub=0.5)
    network = make_random_network(np.random.default_rng(1), 100)
    stacks = reduce_network(Network(branches=network.branches + (odd,)))
    full = build_table(stacks)
    for p in (full.p_min, full.p_min + 0.1 * (full.p_max - full.p_min), math.nan):
        assert outcome(lambda: dispatch(stacks, p)) == outcome(lambda: dispatch_table(full, p))
        assert one_shot_tables.pop().points == full.points

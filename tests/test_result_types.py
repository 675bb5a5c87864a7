"""The public result types as dispatch builds them.

dispatch_table builds ActiveSets and DispatchResult without their generated
__init__. Every result must still behave exactly as the same values passed
through the dataclass constructors, and must hold no more GC-tracked
objects than those.
"""

import copy
import dataclasses
import gc
import pickle

import numpy as np
import pytest

from fcdispatch import (
    ActiveSets,
    DispatchResult,
    DispatchStatus,
    build_table,
    dispatch,
    dispatch_table,
    reduce_network,
)

from conftest import build_bench3_network, build_bench30_network, make_random_network

NETWORKS = {
    "bench3": build_bench3_network,
    "bench30": build_bench30_network,
    "random-n12": lambda: make_random_network(np.random.default_rng(5), 12),
}


def through_constructors(result: DispatchResult) -> DispatchResult:
    # The same values through the generated __init__, by keyword, with a
    # fresh currents tuple, so it holds as many objects as a solve makes.
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(DispatchResult)}
    if result.currents is not None:
        values["currents"] = tuple(list(result.currents))
    if result.sets is not None:
        values["sets"] = ActiveSets(
            **{f.name: getattr(result.sets, f.name) for f in dataclasses.fields(ActiveSets)}
        )
    return DispatchResult(**values)


def solved(network):
    """Results from dispatch_table and dispatch: an open window's, a
    breakpoint's, both ends' and both infeasible statuses."""
    table = build_table(reduce_network(network))
    pts = table.points
    k = len(pts) // 2
    demands = [
        0.5 * (pts[k - 1].cumulative_power + pts[k].cumulative_power),
        sum(s.power(s.inverse_marginal(pts[k].mu)) for s in table.stacks),
        table.p_min,
        table.p_max,
        table.p_min - 1.0 - abs(table.p_min),
        table.p_max + 1.0 + abs(table.p_max),
    ]
    results = [dispatch_table(table, p) for p in demands]
    results += [dispatch(network, p) for p in demands]
    return results


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_results_behave_as_the_constructors_build_them(name):
    results = solved(NETWORKS[name]())
    statuses = {r.status for r in results}
    assert statuses == {
        DispatchStatus.OPTIMAL, DispatchStatus.INFEASIBLE_LOW, DispatchStatus.INFEASIBLE_HIGH
    }
    pairs = [(r, through_constructors(r)) for r in results]
    pairs += [(r.sets, ref.sets) for r, ref in pairs if r.sets is not None]
    for built, ref in pairs:
        cls = type(ref)
        assert type(built) is cls
        assert built == ref and ref == built and not built != ref
        assert hash(built) == hash(ref)
        assert repr(built) == repr(ref)
        assert pickle.dumps(built) == pickle.dumps(ref)
        loaded = pickle.loads(pickle.dumps(built))
        assert type(loaded) is cls and loaded == ref and repr(loaded) == repr(ref)
        deep = copy.deepcopy(built)
        assert type(deep) is cls and deep == ref and repr(deep) == repr(ref)
        assert dataclasses.asdict(built) == dataclasses.asdict(ref)
        assert dataclasses.fields(built) == dataclasses.fields(ref)
        names = [f.name for f in dataclasses.fields(cls)]
        assert dataclasses.replace(built) == ref
        last = {names[-1]: None}
        assert dataclasses.replace(built, **last) == dataclasses.replace(ref, **last)
        assert list(vars(built)) == list(vars(ref)) == names
        for n in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, n, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, n)
        assert built == ref


def test_results_of_one_table_share_its_feasible_range(bench30_stacks):
    table = build_table(bench30_stacks)
    low, high = table.p_min - 1.0, table.p_max + 1.0
    mid = 0.5 * (table.p_min + table.p_max)
    results = [dispatch_table(table, p) for p in (low, mid, high, mid)]
    assert results[0].feasible_range == (table.p_min, table.p_max)
    assert all(r.feasible_range is results[0].feasible_range for r in results)


def test_results_hold_no_more_tracked_objects_than_constructed_ones(bench30_stacks):
    # 100 results from one open window on a kept table, so no solve adds a
    # record or a cached direct power. Each holds a result, its sets and its
    # currents tuple, as many fresh tracked objects as the constructors
    # make from the same values; a per-instance __dict__ would add two.
    table = build_table(bench30_stacks)
    pts = table.points
    k = len(pts) // 2
    lo, hi = pts[k - 1].cumulative_power, pts[k].cumulative_power
    demands = [lo + (hi - lo) * (0.25 + 0.5 * j / 99) for j in range(100)]
    dispatch_table(table, demands[0])
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = [dispatch_table(table, p) for p in demands]
        added = len(gc.get_objects()) - before
        before = len(gc.get_objects())
        rebuilt = [through_constructors(r) for r in kept]
        added_by_constructors = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len({(r.sets.mu_high, r.sets.mu_low) for r in kept}) == 1
    assert rebuilt == kept
    assert added <= added_by_constructors

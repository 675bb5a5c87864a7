"""Tests of the benchmark itself: generators, gate, tracer and output names.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import generators as gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

fd = importlib.import_module("fcdispatch.dispatch")
ref = importlib.import_module("fcdispatch.reference")
sm = importlib.import_module("fcdispatch.stack_model")
nc = importlib.import_module("fcdispatch.netconfig")


def _inputs(seed):
    rng = gen.rng_for(seed, "test")
    specs = [gen.paper_range(rng), gen.bench30(), gen.paper_range(rng, 50)]
    specs.append(gen.degrade(rng, specs[0]))
    return [(gen.config_text(s), gen.demands(rng, s, 5)) for s in specs]


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)
    assert gen.config_text(gen.bench30()) == gen.config_text(gen.bench30())


def test_generated_configs_parse_and_windows_match_the_program():
    for text, demands in _inputs(3):
        table = fd.build_table(sm.reduce_network(nc.parse_network(text)))
        spec_window = (min(p for p, s in demands if s == gen.OPTIMAL), max(p for p, s in demands if s == gen.OPTIMAL))
        assert table.p_min <= spec_window[0] * (1 + 1e-12) + 1e-12
        assert spec_window[1] <= table.p_max * (1 + 1e-12)


def test_demands_stay_out_of_the_top_of_the_window():
    rng = gen.rng_for(5, "top")
    for spec in (gen.bench3(), gen.bench30(), gen.paper_range(rng, 40)):
        _, p_top = gen.demand_range(spec)
        optimal = [p for p, s in gen.demands(rng, spec, 50) if s == gen.OPTIMAL]
        assert optimal and max(optimal) <= p_top


def test_degrade_changes_one_branch_and_keeps_it_valid():
    rng = gen.rng_for(1, "degrade")
    for spec in (gen.bench3(), gen.bench30(), gen.paper_range(rng)):
        aged = gen.degrade(rng, spec)
        changed = [j for j, (old, new) in enumerate(zip(spec, aged)) if old != new]
        assert len(changed) == 1
        sm.reduce_network(gen.to_network(aged, sm))


@pytest.fixture(scope="module")
def bench3_case():
    network = gen.to_network(gen.bench3(), sm)
    stacks = sm.reduce_network(network)
    p = 8000.0
    return stacks, p, fd.dispatch_table(fd.build_table(stacks), p)


def test_gate_accepts_a_correct_result(bench3_case):
    stacks, p, result = bench3_case
    assert gate.Gate(fd, ref).check_solve(stacks, p, gen.OPTIMAL, gate.Outcome(result=result)) is None


def test_gate_flags_a_perturbed_current(bench3_case):
    stacks, p, result = bench3_case
    currents = list(result.currents)
    currents[1] += 1e-3
    tampered = dataclasses.replace(result, currents=tuple(currents))
    reason = gate.Gate(fd, ref).check_solve(stacks, p, gen.OPTIMAL, gate.Outcome(result=tampered))
    assert reason is not None


def test_gate_flags_a_flipped_status(bench3_case):
    stacks, p, result = bench3_case
    flipped = dataclasses.replace(result, status=fd.DispatchStatus.INFEASIBLE_HIGH)
    reason = gate.Gate(fd, ref).check_solve(stacks, p, gen.OPTIMAL, gate.Outcome(result=flipped))
    assert reason is not None and reason.startswith("status")
    inside_as_outside = gate.Gate(fd, ref).check_solve(stacks, p, gen.INFEASIBLE_HIGH, gate.Outcome(result=result))
    assert inside_as_outside is not None


def test_gate_counts_a_raised_error_as_a_refusal(bench3_case):
    stacks, p, _ = bench3_case
    reason = gate.Gate(fd, ref).check_solve(stacks, p, gen.OPTIMAL, gate.Outcome(error=fd.SegmentSolveError("x")))
    assert reason.startswith(gate.REFUSED)


def test_gate_flags_one_changed_byte_of_cli_output(bench3_case):
    _, _, result = bench3_case
    good = nc.serialize_result(result).encode()
    assert gate.Gate.check_cli(0, good, 0, good) is None
    for k in (0, len(good) // 2, len(good) - 1):
        bad = good[:k] + bytes([good[k] ^ 1]) + good[k + 1:]
        assert gate.Gate.check_cli(0, bad, 0, good) is not None
    assert gate.Gate.check_cli(3, good, 0, good) is not None


def test_ledger_gives_every_operation_a_verdict():
    ledger = gate.Ledger()
    ok, bad = gate.Outcome(result=1), gate.Outcome(result=2)
    for outcome in (ok, ok, bad, ok):
        ledger.record("k", outcome)
    ledger.record("j", bad)
    failed, reasons = ledger.settle(lambda key, o: None if o.result == 1 else "wrong")
    assert ledger.attempted == 5
    assert failed == 2 and reasons == {"wrong": 2}


def test_timings_are_scaled_by_the_probe_around_them():
    speed = hostspeed.HostSpeed()
    speed.at, speed.took = [0.0, 10.0], [hostspeed.PROBE_REF_S, 2 * hostspeed.PROBE_REF_S]
    timings = hostspeed.Timings()
    timings.add([1.0, 3.0], 0.1, 0.2)
    timings.add([4.0], 9.5, 9.9)
    assert timings.scaled(speed) == [1.0, 3.0, 2.0]
    timings.add([1.0], 5.0, 5.1)
    with pytest.raises(ValueError):
        timings.scaled(speed)


def test_self_times_add_up_to_the_root():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.001)

    def middle():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    tracer.call("root", lambda: (tracer.call("middle", middle), tracer.call("leaf", leaf)))
    own = spans.self_times(tracer.spans)
    root = next(s for s in tracer.spans if s[spans.PARENT] is None)
    assert len(tracer.spans) == 5
    assert abs(sum(own.values()) - (root[spans.END] - root[spans.START])) < 1e-12
    assert all(v >= 0 for v in own.values())


def test_tracer_install_is_undone(bench3_case):
    original = fd.build_table
    tracer = spans.Tracer()
    tracer.install(fd)
    try:
        assert fd.build_table is not original
        fd.dispatch(gen.to_network(gen.bench3(), sm), 8000.0)
    finally:
        tracer.uninstall(fd)
    assert fd.build_table is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"dispatch.dispatch", "dispatch.build_table", "dispatch.solve_segment_sqrt"} <= names


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "online-small", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name in expected:
        assert f"  {name} " in proc.stdout

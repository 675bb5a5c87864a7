"""Seeded benchmark of fcdispatch: online solves, one-shot replans and the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload online-small --seed 1 --seconds 30 --trace 0

Every workload runs the same activities in one process, with no threads,
interleaved over the ``--seconds`` window by the workload's shares:

- set-up, repeated and timed: parse config text, reduce, build every table;
- a closed loop with one caller: 100 online ``dispatch_table`` solves
  against the prebuilt tables, then one one-shot ``dispatch`` on a
  just-degraded copy of a network (a replan);
- CLI runs, one subprocess at a time: ``python -m fcdispatch.cli solve`` on
  the bench3 and bench30 configs and a ``sweep`` over bench30's demand range.

After the window, the correctness gate (gate.py) judges every operation.
The end-to-end times are scaled to a reference host speed (hostspeed.py).
``--trace 1`` reruns the same activities with timing wrappers around the
layers (spans.py) and prints the per-layer metrics instead of the
end-to-end ones. The last line of stdout is one JSON object; the lines
above it repeat each metric with its unit and sample count. The spans of
a traced run go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gate
import generators as gen
import hostspeed as hs
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BATCH = 100  # online solves between two replan events
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 200
CLI_TIMEOUT_S = 120
ORACLE_SAMPLES = 8  # replans re-timed through the oracle in the traced run
TRACE_MAX_SOLVES = 10_000  # traced loop solves kept as spans


@dataclass(frozen=True)
class Workload:
    """Networks of one workload and how its window is shared.

    shares gives the part of the window for each activity: "loop" (100
    online solves and one replan), "setup" (one set-up repetition) and
    "cli" (one CLI subprocess). The activities are interleaved, so each
    metric samples the whole window and not one stretch of it. A CLI cycle
    is cli_solves solve runs and one sweep, which take about equal time.
    """

    build: object  # (seed) -> list of network specs for the online tables
    n_uniform: int
    n_breakpoints: int | None
    replan_pool: int
    shares: dict
    cli_solves: int
    cli_min_cycles: int
    sweep_points: int


def _spread_sizes(count: int, low: int = 2, high: int = 30) -> list:
    # Fixed sizes, so that a seed changes the parameters and not the amount
    # of work; a seeded size mix moved solve and set-up times by 20% alone.
    return [round(low + (high - low) * k / (count - 1)) for k in range(count)]


def _online_small(seed):
    paper = gen.rng_for(seed, "paper")
    return [gen.bench3(), gen.bench30()] + [gen.paper_range(paper, n) for n in _spread_sizes(38)]


def _large_replan(seed):
    return [gen.paper_range(gen.rng_for(seed, "large"), 1000)]


def _cli(seed):
    # bench30 alone: with bench3 beside it, replan times fell into two
    # clusters and their median jumped between them from run to run.
    return [gen.bench30()]


WORKLOADS = {
    "online-small": Workload(
        build=_online_small, n_uniform=16, n_breakpoints=None, replan_pool=64,
        shares={"loop": 0.75, "setup": 0.05, "cli": 0.2}, cli_solves=2, cli_min_cycles=2, sweep_points=1_000,
    ),
    "large-replan": Workload(
        build=_large_replan, n_uniform=560, n_breakpoints=40, replan_pool=16,
        shares={"loop": 0.75, "setup": 0.15, "cli": 0.1}, cli_solves=2, cli_min_cycles=2, sweep_points=1_000,
    ),
    "cli": Workload(
        build=_cli, n_uniform=400, n_breakpoints=None, replan_pool=16,
        shares={"loop": 0.2, "setup": 0.02, "cli": 0.78}, cli_solves=8, cli_min_cycles=3, sweep_points=10_000,
    ),
}


def metric_units() -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def load_program():
    """Import fcdispatch from this checkout's src/, never from elsewhere."""
    if not (SRC / "fcdispatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fcdispatch package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"fcdispatch.{name}") for name in
            ("dispatch", "stack_model", "netconfig", "reference")}
    if Path(mods["dispatch"].__file__).resolve().parent != SRC / "fcdispatch":
        sys.exit("perfbench: fcdispatch was imported from outside this checkout")
    return mods


def child_env() -> dict:
    """Environment for subprocesses: this checkout's src/ on the import path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "git_sha": sha}


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


@dataclass
class Inputs:
    texts: list                       # config text per online network
    specs: list
    demands: list                     # per network: [(p, expected status)]
    order: list                       # (network, demand) keys, shuffled
    replans: list                     # [(Network, p, expected status)]
    cli_files: dict = field(default_factory=dict)   # "bench3"/"bench30" -> path
    solve_jobs: list = field(default_factory=list)  # [(config name, p, expected status)]
    sweep: tuple = ()                                 # (config name, p_from, p_to)


def make_inputs(workload: Workload, seed: int, model, workdir: Path) -> Inputs:
    specs = workload.build(seed)
    demands = [
        gen.demands(gen.rng_for(seed, f"demands{i}"), spec, workload.n_uniform, workload.n_breakpoints)
        for i, spec in enumerate(specs)
    ]
    order = [(i, d) for i, ds in enumerate(demands) for d in range(len(ds))]
    gen.rng_for(seed, "order").shuffle(order)

    rng = gen.rng_for(seed, "replan")
    replans = []
    for r in range(workload.replan_pool):
        aged = gen.degrade(rng, specs[r % len(specs)])
        replans.append((gen.to_network(aged, model), rng.uniform(*gen.demand_range(aged)), gen.OPTIMAL))

    inputs = Inputs([gen.config_text(s) for s in specs], specs, demands, order, replans)
    rng = gen.rng_for(seed, "cli")
    ranges = {}
    for name, spec in (("bench3", gen.bench3()), ("bench30", gen.bench30())):
        path = workdir / f"{name}.json"
        path.write_text(gen.config_text(spec), encoding="utf-8")
        inputs.cli_files[name] = path
        ranges[name] = gen.demand_range(spec)
    inputs.solve_jobs = [(name, rng.uniform(*ranges[name]), gen.OPTIMAL) for name in ("bench3", "bench30", "bench3")]
    inputs.solve_jobs.append(("bench30", gen.window(gen.bench30())[1] * (1 + 1e-3), gen.INFEASIBLE_HIGH))
    inputs.sweep = ("bench30", *ranges["bench30"])
    return inputs


class Runner:
    def __init__(self, mods, workload: Workload, inputs: Inputs, checker, tracer=None):
        self.fd = mods["dispatch"]
        self.sm = mods["stack_model"]
        self.nc = mods["netconfig"]
        self.ref = mods["reference"]
        self.w = workload
        self.inp = inputs
        self.checker = checker
        self.tracer = tracer
        self.ledger = gate.Ledger()
        self.errors = 0
        self.traced_ops = []     # (req, network index, outcome) of traced online solves
        self.speed = hs.HostSpeed()
        self.untraced_lat = hs.Timings()   # solve latencies; the end-to-end run has only these
        self.traced_lat = hs.Timings()
        self.batch_s = hs.Timings()        # wall time of each batch of loop solves
        self.replan_lat = hs.Timings()
        self.setup_s = hs.Timings()
        self.cli_solve_s = hs.Timings()
        self.cli_sweep_s = hs.Timings()
        self._pos = self._rep = self._cli_jobs = 0

    def _span(self, name, fn, *args):
        return self.tracer.call(name, fn, *args) if self.tracer else fn(*args)

    def run_window(self, seconds: float):
        """Interleave the activities over the window by their shares.

        The first set-up comes first, since the loop needs its tables. Each
        next step goes to the activity furthest behind its share; after the
        window, only activities short of their minimum count go on. The
        host-speed probe runs before each step, outside its timers, and once
        more at the end.
        """
        spent = dict.fromkeys(self.w.shares, 0.0)
        steps = {"loop": self.loop_step, "setup": self.setup_step, "cli": self.cli_step}
        self.speed.sample(force=True)
        t0 = time.perf_counter()
        self.setup_step()
        spent["setup"] += time.perf_counter() - t0
        end = t0 + seconds
        last_full = t0
        while True:
            short = [a for a, n in (("setup", len(self.setup_s) < SETUP_MIN_REPEATS),
                                    ("cli", self._cli_jobs < (self.w.cli_solves + 1) * self.w.cli_min_cycles),
                                    ("loop", not self.replan_lat)) if n]
            if time.perf_counter() >= end:
                if not short:
                    self.speed.sample(force=True)
                    break
                options = short
            else:
                options = [a for a in spent if a != "setup" or len(self.setup_s) < SETUP_MAX_REPEATS]
            act = min(options, key=lambda a: spent[a] / self.w.shares[a])
            # Collect the benchmark's own garbage between steps, outside
            # every timer: the young generations each step, everything once
            # a second (a full pass costs about one online-small step). The
            # collections left inside a timed call are then mostly those the
            # program's own allocations trigger.
            if time.perf_counter() - last_full >= 1.0:
                gc.collect()
                last_full = time.perf_counter()
            else:
                gc.collect(1)
            self.speed.sample()
            t0 = time.perf_counter()
            steps[act]()
            spent[act] += time.perf_counter() - t0

    def setup_step(self):
        """Parse, reduce and build every table; the new tables replace the old."""
        fd = self.fd
        if self.tracer:
            self.tracer.install(fd)
            self.tracer.req = "setup"
        self.tables = self.stacks = None
        gc.collect()  # frees the old tables before the new ones are built
        t0 = time.perf_counter()
        nets = [self._span("netconfig.parse_network", self.nc.parse_network, t) for t in self.inp.texts]
        stacks = [fd.reduce_network(n) for n in nets]
        tables = [fd.build_table(s) for s in stacks]
        t1 = time.perf_counter()
        self.setup_s.add([t1 - t0], t0, t1)
        self.stacks, self.tables = stacks, tables
        if self.tracer:
            self.tracer.uninstall(fd)

    def loop_step(self):
        """BATCH online solves, closed loop, then one replan."""
        fd, inp = self.fd, self.inp
        order = inp.order
        keys = [order[(self._pos + k) % len(order)] for k in range(BATCH)]
        calls = [(self.tables[i], inp.demands[i][d][0]) for i, d in keys]
        req0 = self._pos
        self._pos += BATCH
        outs = [None] * BATCH
        # The traced run alternates traced and untraced batches, for
        # trace.overhead_frac, until TRACE_MAX_SOLVES keeps the spans small;
        # later batches run untraced and out of that comparison.
        sampling = self.tracer is not None and len(self.traced_ops) < TRACE_MAX_SOLVES
        traced = sampling and (self._pos // BATCH) % 2 == 0
        sink = self.traced_lat if traced else self.untraced_lat if sampling or not self.tracer else None
        lat = []
        if traced:
            self.tracer.install(fd)
        tb0 = time.perf_counter()
        for k, (table, p) in enumerate(calls):
            if traced:
                self.tracer.req = req0 + k
            t0 = time.perf_counter()
            try:
                out = (fd.dispatch_table(table, p), None)
            except Exception as err:  # counted as a failed operation by the gate
                out = (None, err)
            lat.append(time.perf_counter() - t0)
            outs[k] = out
        tb1 = time.perf_counter()
        self.batch_s.add([tb1 - tb0], tb0, tb1)
        if sink is not None:
            sink.add(lat, tb0, tb1)
        self._record(keys, outs, req0, traced)
        self.speed.sample()

        r = self._rep % len(inp.replans)
        network, p, _ = inp.replans[r]
        if self.tracer:
            if not traced:
                self.tracer.install(fd)
            self.tracer.req = ("replan", self._rep)
        t0 = time.perf_counter()
        try:
            out = (fd.dispatch(network, p), None)
        except Exception as err:  # counted as a failed operation by the gate
            out = (None, err)
        t1 = time.perf_counter()
        self.replan_lat.add([t1 - t0], t0, t1)
        if self.tracer:
            self.tracer.uninstall(fd)
        self._record([("replan", r)], [out], None, False)
        self._rep += 1

    def _record(self, keys, outs, req0, traced):
        seg_error = self.fd.SegmentSolveError
        for k, (key, (res, err)) in enumerate(zip(keys, outs)):
            outcome = gate.Outcome(result=res, error=err)
            self.ledger.record(key, outcome)
            if isinstance(err, seg_error):
                self.errors += 1
            if traced:
                self.traced_ops.append((req0 + k, key[0], outcome))

    def cli_step(self):
        """One CLI subprocess: the sweep ends each cycle, solves come before it."""
        inp = self.inp
        py = [sys.executable, "-m", "fcdispatch.cli"]
        n = self.w.cli_solves
        cycle, slot = divmod(self._cli_jobs, n + 1)
        if slot == n:
            name, p_from, p_to = inp.sweep
            key, sink = ("cli-sweep",), self.cli_sweep_s
            cmd = py + ["sweep", str(inp.cli_files[name]), "--from", repr(p_from),
                        "--to", repr(p_to), "--points", str(self.w.sweep_points)]
        else:
            j = (n * cycle + slot) % len(inp.solve_jobs)
            name, p, _ = inp.solve_jobs[j]
            key, sink = ("cli-solve", j), self.cli_solve_s
            cmd = py + ["solve", str(inp.cli_files[name]), "--power", repr(p)]
        env = child_env()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S)
        t1 = time.perf_counter()
        sink.add([t1 - t0], t0, t1)
        self.ledger.record(key, gate.Outcome(result=(proc.returncode, proc.stdout)))
        self._cli_jobs += 1

    # -- after the window ------------------------------------------------
    def expected_cli(self):
        """In-process outcome and bytes for every CLI job (the reference).

        A reference that raises leaves its bytes None; the CLI runs of that
        job then fail with the same refusal.
        """
        fd, nc, inp = self.fd, self.nc, self.inp
        nets = {name: nc.parse_network(path.read_text(encoding="utf-8")) for name, path in inp.cli_files.items()}
        self.cli_stacks = {name: self.sm.reduce_network(net) for name, net in nets.items()}
        self.cli_solve_ref = []
        for name, p, status in inp.solve_jobs:
            try:
                result = fd.dispatch(nets[name], p)
            except Exception as err:  # judged by the gate like any refusal
                self.cli_solve_ref.append((name, p, status, gate.Outcome(error=err), None, None))
                continue
            text = self._span("netconfig.serialize_result", nc.serialize_result, result)
            code = 0 if result.status.value == "optimal" else 3
            self.cli_solve_ref.append((name, p, status, gate.Outcome(result=result), code, text.encode("utf-8")))
        name, p_from, p_to = inp.sweep
        step = (p_to - p_from) / (self.w.sweep_points - 1)
        grid = [p_from + k * step for k in range(self.w.sweep_points - 1)] + [p_to]
        try:
            table = fd.build_table(self.cli_stacks[name])
            results = [gate.Outcome(result=fd.dispatch_table(table, p)) for p in grid]
        except Exception as err:  # judged by the gate like any refusal
            self.cli_sweep_ref = (name, grid, [gate.Outcome(error=err)], None)
            return
        text = self._span("netconfig.sweep_to_csv", nc.sweep_to_csv, [o.result for o in results], len(table.stacks))
        self.cli_sweep_ref = (name, grid, results, text.encode("utf-8"))

    def settle(self):
        """Verdict for every operation: (failed count, count per reason)."""
        checker, inp = self.checker, self.inp
        replan_stacks = {}
        sweep_verdict = None

        def check(key, outcome):
            nonlocal sweep_verdict
            if key[0] == "replan":
                network, p, status = inp.replans[key[1]]
                if key[1] not in replan_stacks:
                    replan_stacks[key[1]] = self.sm.reduce_network(network)
                return checker.check_solve(replan_stacks[key[1]], p, status, outcome)
            if key[0] == "cli-solve":
                name, p, status, reference, code, text = self.cli_solve_ref[key[1]]
                verdict = checker.check_solve(self.cli_stacks[name], p, status, reference)
                return verdict or checker.check_cli(*outcome.result, code, text)
            if key[0] == "cli-sweep":
                name, grid, references, text = self.cli_sweep_ref
                if sweep_verdict is None:
                    verdicts = (checker.check_solve(self.cli_stacks[name], p, "optimal", ref)
                                for p, ref in zip(grid, references))
                    sweep_verdict = next((r for r in verdicts if r is not None), "")
                return sweep_verdict or checker.check_cli(*outcome.result, 0, text)
            i, d = key
            p, status = inp.demands[i][d]
            return checker.check_solve(self.stacks[i], p, status, outcome)

        return self.ledger.settle(check)


def end_to_end(run: Runner, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics; every time is scaled to the reference host speed."""
    speed = run.speed
    lat = run.untraced_lat.scaled(speed)
    values = {
        "solve_us.p50": statistics.median(lat) * 1e6,
        "solve_us.p99": quantile(lat, 0.99) * 1e6,
        "solves_per_s": len(lat) / sum(run.batch_s.scaled(speed)),
        "replan_ms.p50": statistics.median(run.replan_lat.scaled(speed)) * 1e3,
        "setup_s": statistics.median(run.setup_s.scaled(speed)),
        "peak_rss_mb": rss_mb,
        "cli_solve_s.p50": statistics.median(run.cli_solve_s.scaled(speed)),
        "cli_sweep_s.p50": statistics.median(run.cli_sweep_s.scaled(speed)),
    }
    counts = {
        "solve_us.p50": len(lat), "solve_us.p99": len(lat), "solves_per_s": len(lat),
        "replan_ms.p50": len(run.replan_lat), "setup_s": len(run.setup_s), "peak_rss_mb": 1,
        "cli_solve_s.p50": len(run.cli_solve_s), "cli_sweep_s.p50": len(run.cli_sweep_s),
    }
    return values, counts


def per_layer(run: Runner, failed: int, attempted: int) -> tuple[dict, dict]:
    spans = run.tracer.spans
    own = sp.self_times(spans)
    root = sp.roots_of(spans)
    by_id = {s[sp.SID]: s for s in spans}
    online_reqs = {req for req, _, _ in run.traced_ops}

    def is_online(s):
        r = by_id[root[s[sp.SID]]]
        return r[sp.NAME] == "dispatch.dispatch_table" and r[sp.REQ] in online_reqs

    def pick(name, online=None):
        return [s for s in spans if s[sp.NAME] == name and (online is None or is_online(s) == online)]

    def mean(xs, scale=1.0):
        return statistics.fmean(xs) * scale if xs else 0.0

    def dur(xs):
        return [s[sp.END] - s[sp.START] for s in xs]

    # Self time of each root equals its duration minus its children, so the
    # self times of a whole tree must add up to the root's duration.
    tree_self = {}
    for s in spans:
        tree_self[root[s[sp.SID]]] = tree_self.get(root[s[sp.SID]], 0.0) + own[s[sp.SID]]
    worst = max((abs(tree_self[r] - (by_id[r][sp.END] - by_id[r][sp.START])) for r in tree_self), default=0.0)
    if worst > 1e-9:
        sys.exit(f"perfbench: span self times miss their root by {worst} s")

    builds = pick("dispatch.build_table")
    replan_roots = [s for s in spans if s[sp.PARENT] is None and s[sp.NAME] == "dispatch.dispatch"]
    n_replan = len(replan_roots)
    replan_ids = {s[sp.SID] for s in replan_roots}
    reduce_in_replan = [s for s in spans if root[s[sp.SID]] in replan_ids
                        and s[sp.NAME] in ("stack_model.validate_network", "stack_model.reduce_network")]

    n_solves = len(run.traced_ops)
    online_tables = pick("dispatch.dispatch_table", True)
    roots_with_segment = {root[s[sp.SID]] for s in pick("dispatch.solve_segment_sqrt", True)}
    optimal_roots = [s for s in online_tables if s[sp.PARENT] is None and s[sp.ERROR] is None]
    status = {req: o for req, _, o in run.traced_ops}
    optimal_roots = [s for s in optimal_roots
                     if status[s[sp.REQ]].result is not None and status[s[sp.REQ]].result.status.value == "optimal"]
    candidates = sum(s[sp.NOTE] for s in pick("dispatch.solve_segment_sqrt", True) if s[sp.NOTE] is not None)
    selected = sum(1 for s in pick("dispatch.select_feasible_root", True) if s[sp.ERROR] is None)

    levels = [sorted(-mu for mu in gen.breakpoint_levels(spec)) for spec in run.inp.specs]
    scans = [bisect.bisect_left(levels[i], -o.result.mu) for _, i, o in run.traced_ops
             if o.result is not None and o.result.mu is not None]

    # Oracle and certificate timings on the replans the loop ran, as a user
    # would call them: on the Network, so each reduces it once.
    oracle_s, kkt_s = [], []
    for r in range(min(len(run.inp.replans), n_replan, ORACLE_SAMPLES)):
        network, p, _ = run.inp.replans[r]
        t0 = time.perf_counter()
        try:
            run.ref.lambda_bisection(network, p)
        except ValueError:
            continue
        oracle_s.append(time.perf_counter() - t0)
        result = run.ledger.first[("replan", r)].result
        if result is not None and result.status.value == "optimal":
            t0 = time.perf_counter()
            run.fd.verify_kkt(result, network)
            kkt_s.append(time.perf_counter() - t0)

    import_ms = import_times()
    untraced = statistics.median(run.untraced_lat.scaled(run.speed))
    traced = statistics.median(run.traced_lat.scaled(run.speed)) if run.traced_lat else untraced
    values = {
        "dispatch.build_table.ms": mean(dur(builds), 1e3),
        "dispatch.build_table.snapshot_floats": mean([2.0 * s[sp.NOTE] ** 2 for s in builds if s[sp.NOTE]]),
        "stack_model.validate_network.us": mean(dur(pick("stack_model.validate_network")), 1e6),
        "stack_model.reduce_network.us": mean(dur(pick("stack_model.reduce_network")), 1e6),
        "stack_model.reduce_calls_per_dispatch": len(reduce_in_replan) / n_replan if n_replan else 0.0,
        "dispatch.locate_segment.us": mean(dur(pick("dispatch.locate_segment", True)), 1e6),
        "dispatch.locate_segment.scan_len": mean(scans),
        "dispatch.dispatch_table.self_us": mean([own[s[sp.SID]] for s in online_tables], 1e6),
        "dispatch.dispatch_table.snap_frac": (
            sum(1 for s in optimal_roots if s[sp.SID] not in roots_with_segment) / len(optimal_roots)
            if optimal_roots else 0.0),
        "dispatch.interior_size.mean": mean([s[sp.NOTE] for s in pick("dispatch.locate_segment", True)
                                             if s[sp.NOTE] is not None]),
        "dispatch.solve_segment_sqrt.self_us": mean(
            [own[s[sp.SID]] for s in pick("dispatch.solve_segment_sqrt", True)], 1e6),
        "poly_roots.real_roots.us": mean(dur(pick("poly_roots.real_roots", True)), 1e6),
        "poly_roots.real_roots.calls_per_solve": len(pick("poly_roots.real_roots", True)) / max(1, n_solves),
        "dispatch.select_feasible_root.us": mean(dur(pick("dispatch.select_feasible_root", True)), 1e6),
        "dispatch.segment.candidates_per_solve": candidates / max(1, n_solves),
        "dispatch.segment.useful_ratio": selected / candidates if candidates else 0.0,
        "dispatch.segment.errors": run.errors,
        "netconfig.parse_network.us": mean(dur(pick("netconfig.parse_network")), 1e6),
        "netconfig.serialize_result.us": mean(dur(pick("netconfig.serialize_result")), 1e6),
        "netconfig.sweep_to_csv.ms": mean(dur(pick("netconfig.sweep_to_csv")), 1e3),
        "cli.import_ms": statistics.median(import_ms),
        "reference.lambda_bisection.ms": mean(oracle_s, 1e3),
        "dispatch.verify_kkt.ms": mean(kkt_s, 1e3),
        "reference.oracle_ratio": (statistics.median(dur(replan_roots)) / statistics.median(oracle_s)
                                   if replan_roots and oracle_s else 0.0),
        "trace.overhead_frac": traced / untraced - 1.0,
        "failed_frac": failed / attempted,
    }
    counts = {name: n_solves for name in values}
    counts.update({
        "dispatch.build_table.ms": len(builds), "dispatch.build_table.snapshot_floats": len(builds),
        "stack_model.validate_network.us": len(pick("stack_model.validate_network")),
        "stack_model.reduce_network.us": len(pick("stack_model.reduce_network")),
        "stack_model.reduce_calls_per_dispatch": n_replan,
        "dispatch.locate_segment.scan_len": len(scans),
        "dispatch.solve_segment_sqrt.self_us": len(pick("dispatch.solve_segment_sqrt", True)),
        "poly_roots.real_roots.us": len(pick("poly_roots.real_roots", True)),
        "dispatch.select_feasible_root.us": len(pick("dispatch.select_feasible_root", True)),
        "netconfig.parse_network.us": len(pick("netconfig.parse_network")),
        "netconfig.serialize_result.us": len(pick("netconfig.serialize_result")),
        "netconfig.sweep_to_csv.ms": len(pick("netconfig.sweep_to_csv")),
        "cli.import_ms": len(import_ms),
        "reference.lambda_bisection.ms": len(oracle_s),
        "dispatch.verify_kkt.ms": len(kkt_s),
        "reference.oracle_ratio": len(oracle_s),
        "dispatch.segment.errors": attempted,
        "trace.overhead_frac": len(run.traced_lat),
        "failed_frac": attempted,
    })
    return values, counts


def import_times(repeats: int = 3) -> list:
    """Milliseconds to import fcdispatch.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fcdispatch.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, env=child_env(), timeout=CLI_TIMEOUT_S, check=True)
        out.append(float(proc.stdout) * 1e3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # One CPU for this process and its CLI children, so that the host-speed
    # probe measures the CPU that every timed call runs on. The last one:
    # Linux sends device interrupts to CPU 0 unless told otherwise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    mods = load_program()
    e2e_units, layer_units = metric_units()

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = make_inputs(workload, args.seed, mods["stack_model"], Path(tmp))
        tracer = sp.Tracer() if args.trace else None
        run = Runner(mods, workload, inputs, gate.Gate(mods["dispatch"], mods["reference"]), tracer)
        run.run_window(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.expected_cli()
    failed, reasons = run.settle()
    attempted = run.ledger.attempted

    if tracer:
        values, counts = per_layer(run, failed, attempted)
        units = layer_units
        tracer.write(OUT / f"spans-{args.workload}.jsonl")
    else:
        values, counts = end_to_end(run, rss_mb)
        units = e2e_units
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")

    env = environment()
    scales = [hs.PROBE_REF_S / t for t in run.speed.took]
    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} git={env['git_sha']}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]:6s} n={counts[name]}")
    print(f"  host speed: {len(scales)} probe timings, scale median {statistics.median(scales):.3f}, "
          f"range {min(scales):.3f} to {max(scales):.3f}")
    print(f"  attempted={attempted} failed={failed} correct={correct} "
          f"repeats_that_differed={len(run.ledger.deviants)}")
    for reason, n in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"  failed x{n}: {reason}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

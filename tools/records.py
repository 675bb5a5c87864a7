"""Bit-level records of fcdispatch's reduction, table and dispatch results.

Writes one line per record over a fixed seeded corpus, every float as
float.hex, so two commits can be compared bit for bit:

    python tools/records.py OUT [--src SRC_DIR] [--small]
    python tools/records.py --diff A B

A record line is ``<key> <field> <value>``. Per network it holds the
reduced stacks, the table's points, its private per-branch columns,
p_min/p_max, and the results of a fixed list of demands: solved in a seeded
order on one shared table, solved in ascending order on another kept table
(so consecutive demands in one window, as a sweep makes them, reuse its
record) and, for a few, by a one-shot dispatch(). The columns that repeat other records,
the points' cumulative powers and (p_min, p_max), are left out. It also
holds the network's config route: serialize_network, parse_network and
reduce_network, with the parsed floats and the reduced stacks, and a
seeded set of corrupted copies of its config text, each with one to three
values, stacks or branches of one branch replaced by a wrong literal or
deleted: the error parse_network raises (field config_error), or the
floats it parsed. A raise is recorded as the exception's type and message.
For bench3 and bench30 it also holds the exit code and a sha256 of the
stdout of a fixed list of fcdispatch.cli.main calls (field cli): plan;
solve at an interior, a breakpoint and an infeasible demand; a 50-point
sweep across both window edges; validate; and two bad arguments.
--src puts another checkout's source directory first on the import path,
so the records of a parent commit come from its own code; the corpus
generators are those of tests/conftest.py next to this file. --diff counts
the records that differ, or exist on one side only, per field, and for a
field whose differing records hold equally many floats on both sides,
the worst relative change |a - b| / max(1, max |a|), a from A, element for
element, with the max over the record's finite elements: the scale of the
acceptance gate's current tolerance and of reference.compare.

The corpus: bench3, bench30, make_random_network(default_rng(s), n) for
s = 0..2 and n = 2..60, 300 make_wide_network(random.Random(11)) networks
and make_random_network(default_rng(1), 1000), with 4 corrupted configs
each. --small keeps bench3, bench30, n = 2..10 for s = 0 and 20 wide
networks, with 6 corrupted configs each.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import random
import re
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
STACK_FIELDS = ("a_eq", "b_eq", "i_lb", "i_ub", "i_ub_eff")
RESULT_FIELDS = (
    "status", "p_req", "feasible_range", "currents", "total_current", "total_power", "mu"
)
SET_FIELDS = ("at_lb", "interior", "at_ub", "p_req_eff", "mu_high", "mu_low")
N_SAMPLED_POINTS = 16  # breakpoints whose direct power (and neighbours) are demands
N_UNIFORM = 8
N_ONE_SHOT = 3
# Table columns that repeat other records: the points' cumulative_power and
# (p_min, p_max).
REPEATED_COLUMNS = ("powers", "feasible_range")
CLI_NETWORKS = ("bench3", "bench30")
# JSON literals a corrupted config puts in place of a value, a stack or a
# branch: wrong types, "inf" where it is not allowed and a misspelt "Inf",
# tokens outside JSON, numbers beyond the float range, and numbers the
# model rejects or that invert a branch's bounds.
LITERALS = (
    "null", "true", '"inf"', '"Inf"', '"ab"', "[]", "{}", "[1.0]", "0", "-1.0", "2.0",
    "1e999", "-1e999", "NaN", "Infinity", "-5e-324", "1e308",
)


def fmt(v) -> str:
    """One value as text, floats as float.hex, containers element by element."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (frozenset, set)):
        return "{" + ",".join(map(fmt, sorted(v))) + "}"
    if isinstance(v, (tuple, list)):
        return "(" + ",".join(map(fmt, v)) + ")"
    if hasattr(v, "value"):  # an enum member
        return str(v.value)
    return str(v)


def corpus(small: bool):
    """(name, Network) pairs; the generators come from tests/conftest.py."""
    import numpy as np
    from conftest import (
        build_bench3_network,
        build_bench30_network,
        make_random_network,
        make_wide_network,
    )

    yield "bench3", build_bench3_network()
    yield "bench30", build_bench30_network()
    seeds, top, n_wide = ((0,), 10, 20) if small else ((0, 1, 2), 60, 300)
    for s in seeds:
        rng = np.random.default_rng(s)
        for n in range(2, top + 1):
            yield f"random-s{s}-n{n}", make_random_network(rng, n)
    r = random.Random(11)
    for k in range(n_wide):
        yield f"wide-{k}", make_wide_network(r)
    if not small:
        yield "random-n1000", make_random_network(np.random.default_rng(1), 1000)


def demands(stacks, table, r: random.Random) -> list[float]:
    """Window edges and their outer neighbours, a sample of breakpoint powers
    with their float neighbours and the midpoints between them, uniform
    draws, and infeasible demands: one clear of each edge's slack, NaN and
    both infinities. Every breakpoint power is a direct sum of the model's
    methods."""
    lo, hi = table.p_min, table.p_max
    out = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    out += [lo * (1.0 + 1e-9), hi * (1.0 - 1e-9)]
    step = max(1, len(table.points) // N_SAMPLED_POINTS)
    direct = [
        sum(s.power(s.inverse_marginal(pt.mu)) for s in stacks) for pt in table.points[::step]
    ]
    for p in direct:
        out += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf)]
    out += [0.5 * (p + q) for p, q in zip(direct, direct[1:])]
    out += [lo + r.random() * (hi - lo) for _ in range(N_UNIFORM)]
    out += [lo - max(1.0, 1e-3 * abs(lo)), hi + max(1.0, 1e-3 * abs(hi))]
    out += [math.nan, math.inf, -math.inf]
    return out


def result_records(key: str, call):
    try:
        res = call()
    except Exception as err:  # a raise is a record, compared like any other
        yield key, "raise", f"{type(err).__name__}: {err}"
        return
    for f in RESULT_FIELDS:
        yield key, f, fmt(getattr(res, f))
    if res.sets is not None:
        for f in SET_FIELDS:
            yield key, f"sets.{f}", fmt(getattr(res.sets, f))


def network_records(name: str, network):
    from fcdispatch import build_table, dispatch, dispatch_table, reduce_network

    try:
        stacks = reduce_network(network)
        table = build_table(stacks)
    except Exception as err:
        yield name, "raise", f"{type(err).__name__}: {err}"
        return
    for j, s in enumerate(stacks):
        for f in STACK_FIELDS:
            yield f"{name}/stack{j}", f, fmt(getattr(s, f))
    for k, pt in enumerate(table.points):
        for f in ("mu", "branch_index", "kind", "cumulative_power"):
            yield f"{name}/point{k}", f, fmt(getattr(pt, f))
    for f in table._columns._fields:
        if f not in REPEATED_COLUMNS:
            yield f"{name}/columns", f, fmt(getattr(table._columns, f))
    yield name, "p_min", fmt(table.p_min)
    yield name, "p_max", fmt(table.p_max)

    r = random.Random(name)
    ps = demands(stacks, table, r)
    order = list(range(len(ps)))
    r.shuffle(order)
    records = {}
    for d in order:  # one shared table, so windows are reused across demands
        records[d] = list(result_records(f"{name}/demand{d}", lambda: dispatch_table(table, ps[d])))
    for d in range(len(ps)):
        yield from records[d]
    ascending = build_table(stacks)
    # NaN last: compared with NaN every demand is unordered, which would
    # scramble the sort around it.
    for d in sorted(range(len(ps)), key=lambda d: (math.isnan(ps[d]), ps[d])):
        yield from result_records(f"{name}/ascending{d}", lambda: dispatch_table(ascending, ps[d]))
    for d in order[:N_ONE_SHOT]:
        yield from result_records(f"{name}/oneshot{d}", lambda: dispatch(network, ps[d]))


def parse_records(name: str, network):
    """The network through its config text: the parsed floats and the
    reduction that reduce_network returns for the parsed network."""
    from fcdispatch import parse_network, reduce_network, serialize_network

    try:
        parsed = parse_network(serialize_network(network))
        stacks = reduce_network(parsed)
    except Exception as err:
        yield f"{name}/parsed", "raise", f"{type(err).__name__}: {err}"
        return
    for j, (branch, s) in enumerate(zip(parsed.branches, stacks)):
        yield f"{name}/parsed{j}", "stacks", fmt([(t.a, t.b, t.phi) for t in branch.stacks])
        yield f"{name}/parsed{j}", "i_lb", fmt(branch.i_lb)
        yield f"{name}/parsed{j}", "i_ub", fmt(branch.i_ub)
        for f in STACK_FIELDS:
            yield f"{name}/parsed-stack{j}", f, fmt(getattr(s, f))


def _corruption_site(r: random.Random, branches: list, j: int):
    # A (container, key) in or at branches[j]: the branch, one of its keys,
    # one of its stacks or one of that stack's keys. None where the path
    # runs into a value that an earlier corruption left without one.
    if j >= len(branches):
        return None
    depth = r.choice((0, 1, 1, 1, 2, 3, 3, 3))
    if depth == 0:
        return branches, j
    branch = branches[j]
    if not isinstance(branch, dict):
        return None
    if depth == 1:
        return branch, r.choice(("stacks", "i_lb", "i_ub"))
    stacks = branch.get("stacks")
    if not isinstance(stacks, list) or not stacks:
        return None
    k = r.randrange(len(stacks))
    if depth == 2 or not isinstance(stacks[k], dict):
        return stacks, k
    return stacks[k], r.choice(("a", "b", "phi"))


def corrupted_configs(text: str, r: random.Random, count: int):
    """count copies of a config text, each with one to three values,
    stacks or branches of one branch replaced by a LITERALS entry (three
    times in four) or deleted."""
    for _ in range(count):
        doc = json.loads(text)
        branches = doc["branches"]
        j, literals = r.randrange(len(branches)), []
        for _ in range(r.randint(1, 3)):
            site = _corruption_site(r, branches, j)
            if site is None:
                continue
            container, key = site
            if r.random() < 0.25:
                if isinstance(container, list):
                    del container[key]
                else:
                    container.pop(key, None)
            else:
                container[key] = f"@{len(literals)}@"
                literals.append(r.choice(LITERALS))
        out = json.dumps(doc)
        for n, literal in enumerate(literals):
            out = out.replace(f'"@{n}@"', literal)
        yield out


def config_records(name: str, network, count: int):
    """What parse_network makes of count corrupted copies of the network's
    config text: its error, or the floats of every branch it parsed."""
    from fcdispatch import parse_network, serialize_network

    texts = corrupted_configs(serialize_network(network), random.Random(name), count)
    for c, text in enumerate(texts):
        try:
            parsed = parse_network(text)
        except Exception as err:
            yield f"{name}/config{c}", "config_error", f"{type(err).__name__}: {err}"
            continue
        floats = [([(t.a, t.b, t.phi) for t in b.stacks], b.i_lb, b.i_ub) for b in parsed.branches]
        yield f"{name}/config{c}", "config_parsed", fmt(floats)


def cli_records(name: str, network):
    """Exit code and stdout of each fcdispatch.cli.main call in a fixed
    list on the network's config; stderr, which holds timings, is dropped."""
    from fcdispatch import build_table, reduce_network, serialize_network
    from fcdispatch.cli import main

    stacks = reduce_network(network)
    table = build_table(stacks)
    lo, hi = table.p_min, table.p_max
    mu = table.points[len(table.points) // 2].mu
    at_point = sum(s.power(s.inverse_marginal(mu)) for s in stacks)
    interior = 0.5 * (lo + hi)
    margin = 0.05 * (hi - lo)
    calls = {
        "plan": ["plan"],
        "solve-interior": ["solve", "--power", repr(interior)],
        "solve-breakpoint": ["solve", "--power", repr(at_point)],
        "solve-infeasible": ["solve", "--power", repr(hi + max(1.0, 1e-3 * hi))],
        "sweep": ["sweep", "--from", repr(lo - margin), "--to", repr(hi + margin), "--points", "50"],
        "validate": ["validate", "--power", repr(interior)],
        "bad-power": ["solve", "--power", "nan"],
        "bad-sweep": ["sweep", "--from", repr(hi), "--to", repr(lo), "--points", "50"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / f"{name}.json"
        config.write_text(serialize_network(network), encoding="utf-8")
        for call, (command, *args) in calls.items():
            stdout = io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                code = main([command, str(config), *args])
            digest = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            yield f"{name}/cli-{call}", "cli", f"exit={code} stdout={digest}"


def write_records(out, small: bool) -> int:
    n = 0
    n_configs = 6 if small else 4
    for name, network in corpus(small):
        for key, f, value in chain(
            network_records(name, network),
            parse_records(name, network),
            config_records(name, network, n_configs),
            cli_records(name, network) if name in CLI_NETWORKS else (),
        ):
            out.write(f"{key} {f} {value}\n")
            n += 1
    return n


def read_records(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {tuple(line.split(" ", 2)[:2]): line for line in fh}


FLOAT = re.compile(r"-?(0x[0-9a-f]+(\.[0-9a-f]*)?p[+-]\d+|inf)|nan")


def floats(line: str | None) -> list[float] | None:
    """The floats of a record line's value, or None where it holds anything
    else (an int, a status, a message, None) or the record is missing."""
    if line is None:
        return None
    tokens = [t for t in re.split(r"[(){},]", line.split(" ", 2)[2].strip()) if t]
    if not tokens or not all(map(FLOAT.fullmatch, tokens)):
        return None
    return [float.fromhex(t) for t in tokens]


def relative_change(xs: list[float], ys: list[float]) -> float:
    """max |x - y| / max(1, max |x|), the second max over the finite xs;
    two NaNs count 0, and a NaN against a number counts inf."""
    scale = max([1.0, *(abs(x) for x in xs if math.isfinite(x))])
    worst = 0.0
    for x, y in zip(xs, ys):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y) / scale
            worst = max(worst, math.inf if math.isnan(d) else d)
    return worst


def diff(a_path: str, b_path: str) -> tuple[Counter, dict, int]:
    """Per field, the records that differ or exist on one side only, the
    worst relative change of those that hold as many floats on both sides,
    and the number of records on either side."""
    a, b = read_records(a_path), read_records(b_path)
    keys = a.keys() | b.keys()
    counts, worst = Counter(), {}
    for rec in keys:
        if a.get(rec) == b.get(rec):
            continue
        counts[rec[1]] += 1
        xs, ys = floats(a.get(rec)), floats(b.get(rec))
        if xs is not None and ys is not None and len(xs) == len(ys):
            worst[rec[1]] = max(worst.get(rec[1], 0.0), relative_change(xs, ys))
    return counts, worst, len(keys)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="file to write the records to")
    ap.add_argument("--src", help="source directory imported in place of this checkout's src/")
    ap.add_argument("--small", action="store_true", help="the small corpus")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two record files")
    args = ap.parse_args(argv)
    if args.diff:
        counts, worst, total = diff(*args.diff)
        print(f"{sum(counts.values())} of {total} records differ")
        for f, c in sorted(counts.items()):
            change = f"  worst relative change {worst[f]:.3g}" if f in worst else ""
            print(f"  {f}: {c}{change}")
        return 1 if counts else 0
    if args.out is None:
        ap.error("give OUT or --diff A B")
    src = Path(args.src) if args.src else TESTS.parent / "src"
    sys.path[:0] = [str(src.resolve()), str(TESTS)]
    with open(args.out, "w", encoding="utf-8") as out:
        n = write_records(out, args.small)
    print(f"{n} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

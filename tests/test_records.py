"""Smoke test of tools/records.py, the bit-level record comparison.

The tool runs in a child process: loading it here would add its float
literals to the constants Hypothesis draws from in later test modules.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "records.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=60
    )


def test_records_of_the_small_corpus_diff_to_zero_and_count_a_change(tmp_path):
    a = tmp_path / "a.txt"
    done = run_tool(a, "--small")
    assert done.returncode == 0, done.stderr
    lines = a.read_text().splitlines()
    fields = {line.split(" ", 2)[1] for line in lines}
    assert {"a_eq", "mu", "cumulative_power", "sums", "p_max", "currents", "sets.at_ub"} <= fields
    # Every _Columns field, and the corrupted configs' errors and parses.
    assert {"p_low", "p_high", "config_error", "config_parsed"} <= fields
    assert all(" raise " not in line for line in lines)
    # The config route reduces every network to the stacks it reduces to
    # when built in code, bit for bit.
    values = {tuple(line.split(" ", 2)[:2]): line.split(" ", 2)[2] for line in lines}
    parsed = [(key, f) for key, f in values if "/parsed-stack" in key]
    assert {key.split("/")[0] for key, _ in parsed} == {key.split("/")[0] for key, _ in values}
    assert all(values[key.replace("/parsed-stack", "/stack"), f] == values[key, f] for key, f in parsed)
    # The ascending route solves every network's demands again, in order on
    # a kept table, and each result is the shuffled route's bit for bit.
    ascending = [(key, f) for key, f in values if "/ascending" in key]
    shuffled = [(key, f) for key, f in values if "/demand" in key]
    assert {key.split("/")[0] for key, _ in ascending} == {key.split("/")[0] for key, _ in values}
    assert sorted(ascending) == sorted((key.replace("/demand", "/ascending"), f) for key, f in shuffled)
    assert all(values[key.replace("/ascending", "/demand"), f] == values[key, f] for key, f in ascending)
    # Every network's demands reach both infeasible statuses and a NaN.
    networks = {key.split("/")[0] for key, _ in values}
    for field, value in (("status", "infeasible_low"), ("status", "infeasible_high"), ("p_req", "nan")):
        hit = {key.split("/")[0] for key, f in values if f == field and values[key, f] == value}
        assert hit == networks, (field, value)
    # The CLI calls on bench3 and bench30: each one's exit code and a
    # sha256 of its stdout, which only the bad arguments leave empty.
    cli = {key: values[key, f] for key, f in values if f == "cli"}
    expected = {
        "plan": 0, "solve-interior": 0, "solve-breakpoint": 0, "solve-infeasible": 3,
        "sweep": 0, "validate": 0, "bad-power": 2, "bad-sweep": 2,
    }
    assert set(cli) == {f"{net}/cli-{call}" for net in ("bench3", "bench30") for call in expected}
    empty = hashlib.sha256(b"").hexdigest()
    for key, value in cli.items():
        code = expected[key.split("/cli-")[1]]
        assert re.fullmatch(rf"exit={code} stdout=[0-9a-f]{{64}}", value), (key, value)
        assert value.endswith(empty) == (code == 2), (key, value)

    same = run_tool("--diff", a, a)
    assert same.returncode == 0
    assert same.stdout.startswith(f"0 of {len(lines)} records differ")

    # One changed current and one record on one side only.
    b = tmp_path / "b.txt"
    k = next(n for n, line in enumerate(lines) if line.split(" ", 2)[1] == "total_current")
    changed = lines[:k] + [lines[k] + "0"] + lines[k + 1 : -1]
    b.write_text("\n".join(changed) + "\n")
    diff = run_tool("--diff", a, b)
    assert diff.returncode == 1
    assert diff.stdout.splitlines()[0] == f"2 of {len(lines)} records differ"
    # The appended digit moves the float's binary exponent; the worst
    # relative change is taken against A's value. A record on one side only
    # is counted with no change.
    old, new = (float.fromhex(line.split(" ", 2)[2]) for line in (lines[k], changed[k]))
    change = abs(old - new) / max(1.0, abs(old))
    assert f"  total_current: 1  worst relative change {change:.3g}\n" in diff.stdout
    assert f"  {lines[-1].split(' ', 2)[1]}: 1\n" in diff.stdout


def test_a_records_float_changes_are_scaled_by_its_largest_value(tmp_path):
    # A 4.7 A branch beside a 1.9e9 A one: its change is 2e-7 of itself but
    # 5e-16 of the record's largest current, the scale of the acceptance
    # gate's tolerance. An inf sets no scale.
    small, moved, big, inf = 4.7, 4.7 + 1e-6, 1.9e9, float("inf")
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(f"x currents ({big.hex()},{small.hex()})\nx mu ({inf.hex()},{small.hex()})\n")
    b.write_text(f"x currents ({big.hex()},{moved.hex()})\nx mu ({inf.hex()},{moved.hex()})\n")
    diff = run_tool("--diff", a, b)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == [
        "2 of 2 records differ",
        f"  currents: 1  worst relative change {(moved - small) / big:.3g}",
        f"  mu: 1  worst relative change {(moved - small) / small:.3g}",
    ]

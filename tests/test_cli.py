import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fcdispatch import build_table, dispatch
from fcdispatch.cli import main

from conftest import BENCH3_ROWS, BENCH3_SNAPSHOTS, OVERFLOW_BELOW_WINDOW_ROWS, config_text


@pytest.fixture()
def bench3_config(tmp_path, bench3_config_text):
    path = tmp_path / "bench3.json"
    path.write_text(bench3_config_text)
    return str(path)


@pytest.fixture()
def bench30_config(tmp_path, bench30_config_text):
    path = tmp_path / "bench30.json"
    path.write_text(bench30_config_text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_lists_six_points(capsys, bench3_config):
    code, out, _ = run_cli(capsys, "plan", bench3_config)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 7
    header = lines[0].split()
    assert header[:5] == ["point", "dp_di", "branch", "kind", "cum_power"]
    first = lines[1].split()
    assert float(first[1]) == pytest.approx(44.834, abs=1e-3)
    assert float(first[4]) == pytest.approx(310.971, abs=1e-3)
    last = lines[6].split()
    assert float(last[1]) == pytest.approx(20.064, abs=1e-3)
    assert float(last[4]) == pytest.approx(19206.708, abs=1e-3)
    for line, snap in zip(lines[1:], BENCH3_SNAPSHOTS):
        assert line.split()[5:] == [f"{i:.4f}" for i in snap]


def test_plan_single_branch(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text(config_text([(40.0, -1.0, 1.0, 100.0)]))
    code, out, _ = run_cli(capsys, "plan", str(path))
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_plan_thirty_rows_strictly_ordered(capsys, bench30_config):
    code, out, _ = run_cli(capsys, "plan", bench30_config)
    assert code == 0
    lines = out.strip().split("\n")[1:]
    assert len(lines) == 30
    levels = [float(line.split()[1]) for line in lines]
    assert all(b <= a for a, b in zip(levels, levels[1:]))


def test_solve_benchmark(capsys, bench3_config):
    code, out, _ = run_cli(capsys, "solve", bench3_config, "--power", "8000")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["currents"] == pytest.approx([81.02, 136.23, 17.07], abs=0.05)


def test_solve_infeasible_exits_3(capsys, bench3_config):
    code, out, err = run_cli(capsys, "solve", bench3_config, "--power", "100")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "infeasible_low"
    assert doc["feasible_range"][0] == pytest.approx(310.971, abs=1e-3)
    assert "Required power cannot be obtained" in err


def test_solve_at_minimum(capsys, bench3_config):
    code, out, _ = run_cli(capsys, "solve", bench3_config, "--power", "310.9713018399698")
    assert code == 0
    doc = json.loads(out)
    assert doc["currents"] == pytest.approx([2.103, 0.0, 6.646], abs=1e-9)


def test_solve_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent.json", "--power", "100")
    assert code == 2
    assert "config error" in err


def test_solve_malformed_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, "solve", str(path), "--power", "100")
    assert code == 2
    assert "config error" in err


def test_bad_arguments_exit_2(capsys, bench3_config):
    assert main(["solve", bench3_config]) == 2  # missing --power
    capsys.readouterr()
    assert main(["notacommand"]) == 2
    capsys.readouterr()


def test_sweep_monotone_currents(capsys, bench3_config):
    code, out, _ = run_cli(
        capsys, "sweep", bench3_config, "--from", "311", "--to", "19206", "--points", "200"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p_req,i_1,i_2,i_3,i_total,mu,status"
    assert len(lines) == 201
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[6] == "optimal" for r in rows)
    for col in (1, 2, 3, 4):
        vals = [float(r[col]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sweep_branch_pins_after_its_upper_breakpoint(capsys, bench3_config):
    # Past the breakpoint at 12037.03 W, branch 1 stays at its bound.
    code, out, _ = run_cli(
        capsys, "sweep", bench3_config, "--from", "12100", "--to", "19000", "--points", "20"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert all(float(r[1]) == pytest.approx(106.8127, abs=1e-9) for r in rows)


def test_sweep_endpoints_only(capsys, bench3_config):
    code, out, _ = run_cli(
        capsys, "sweep", bench3_config, "--from", "1000", "--to", "2000", "--points", "2"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 2
    assert rows[0].startswith("1000.0,")
    assert rows[1].startswith("2000.0,")


def test_sweep_marks_infeasible_rows(capsys, bench3_config):
    code, out, _ = run_cli(
        capsys, "sweep", bench3_config, "--from", "100", "--to", "1000", "--points", "3"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert rows[0].endswith("infeasible_low")
    assert rows[2].endswith("optimal")


def test_sweep_bad_range_exits_2(capsys, bench3_config):
    code, _, err = run_cli(
        capsys, "sweep", bench3_config, "--from", "2000", "--to", "1000", "--points", "5"
    )
    assert code == 2
    assert "--to" in err
    code, _, err = run_cli(
        capsys, "sweep", bench3_config, "--from", "1000", "--to", "2000", "--points", "1"
    )
    assert code == 2
    assert "--points" in err


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_nan_power_exits_2(capsys, bench3_config, command):
    for power in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, command, bench3_config, f"--power={power}")
        assert code == 2
        assert out == ""
        assert "--power" in err


@pytest.mark.parametrize(
    "bounds",
    [("--from", "0", "--to", "inf"), ("--from", "nan", "--to", "5"), ("--from=-inf", "--to", "5")],
)
def test_sweep_non_finite_range_exits_2(capsys, bench3_config, bounds):
    code, out, err = run_cli(capsys, "sweep", bench3_config, *bounds, "--points", "3")
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("p_from, p_to", [("-1e308", "1e308"), ("-1.7976931348623157e308", "0.9e308")])
def test_sweep_range_wider_than_a_float_exits_2(capsys, bench3_config, p_from, p_to):
    # Both ends are finite, but their difference overflows: the grid's step
    # would be inf and its first demand 0*inf, a NaN row.
    code, out, err = run_cli(
        capsys, "sweep", bench3_config, f"--from={p_from}", "--to", p_to, "--points", "3"
    )
    assert code == 2
    assert out == ""
    assert err == "sweep: --to minus --from must be finite\n"


def test_sweep_widest_finite_range_starts_at_from(capsys, bench3_config):
    code, out, _ = run_cli(
        capsys, "sweep", bench3_config, "--from=-8e307", "--to", "8e307", "--points", "3"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [(r[0], r[-1]) for r in rows] == [
        ("-8e+307", "infeasible_low"), ("0.0", "infeasible_low"), ("8e+307", "infeasible_high")
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--power", "abc"), "argument --power: invalid float value: 'abc'"),
        (("sweep", "--from", "0", "--to", "5", "--points", "x"), "argument --points: invalid int value: 'x'"),
    ],
)
def test_unparsable_number_exits_2(capsys, bench3_config, argv, message):
    code, out, err = run_cli(capsys, argv[0], bench3_config, *argv[1:])
    assert code == 2
    assert out == ""
    assert message in err


def test_validate_passes_benchmark(capsys, bench3_config):
    code, out, err = run_cli(capsys, "validate", bench3_config, "--power", "8000")
    assert code == 0
    assert "result: PASS" in out
    assert "ms" in err  # timings stay on stderr
    # The bisection's lines and each branch's delta, then one line for the
    # exact split.
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "demand", "dispatch total", "bisection total", "max branch delta",
        "  branch 1", "  branch 2", "  branch 3", "exact total", "result",
    ]
    exact_line = r"exact total: 234\.319731 A \(max branch delta \d\.\d{3}e-\d\d A\)"
    assert re.fullmatch(exact_line, lines[-2])


@pytest.mark.parametrize("power", ["75000", "p_max(1-1e-9)"])
def test_validate_thirty_stack(capsys, bench30_config, bench30_stacks, power):
    if power == "p_max(1-1e-9)":
        # The top 1e-9 of the window, where currents move fast with the demand.
        power = repr(build_table(bench30_stacks).p_max * (1.0 - 1e-9))
    code, out, _ = run_cli(capsys, "validate", bench30_config, "--power", power)
    assert code == 0
    assert "result: PASS" in out
    assert "grid" not in out  # grid oracle only runs for <= 3 branches


def test_validate_corrupted_dispatch_exits_4(capsys, bench3_config, monkeypatch):
    import dataclasses

    import fcdispatch.cli as cli_mod

    def corrupted(network, p_req):
        res = dispatch(network, p_req)
        currents = list(res.currents)
        currents[0] += 0.5
        return dataclasses.replace(res, currents=tuple(currents))

    monkeypatch.setattr(cli_mod, "dispatch", corrupted)
    code, out, _ = run_cli(capsys, "validate", bench3_config, "--power", "8000")
    assert code == 4
    assert "result: FAIL" in out


def test_validate_exits_4_when_lambda_bisection_raises(capsys, bench3_config, monkeypatch):
    def missed(network, p_req):
        raise ValueError(f"power balance missed: got 0.0 W for demand {p_req} W")

    monkeypatch.setattr("fcdispatch.reference.lambda_bisection", missed)
    code, out, err = run_cli(capsys, "validate", bench3_config, "--power", "8000")
    assert code == 4
    assert out == ""
    assert err == (
        "validate: lambda bisection failed: power balance missed: got 0.0 W for demand 8000.0 W\n"
    )


def test_validate_reduces_the_network_once(capsys, bench3_config, reduce_branch_calls):
    code, _, _ = run_cli(capsys, "validate", bench3_config, "--power", "8000")
    assert code == 0
    # Three branches, reduced while the config is validated; every solver
    # reuses those stacks.
    assert len(reduce_branch_calls) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--power", "8000"),
        ("sweep", "--from", "400", "--to", "19000", "--points", "13"),
        ("plan",),
    ],
)
def test_command_reduces_the_network_once(capsys, bench3_config, reduce_branch_calls, argv):
    code, _, _ = run_cli(capsys, argv[0], bench3_config, *argv[1:])
    assert code == 0
    assert len(reduce_branch_calls) == 3


def test_validate_infeasible_exits_3(capsys, bench3_config):
    # validate names the feasible range with solve's own line.
    for power in ("50", "1e9"):
        code, out, err = run_cli(capsys, "validate", bench3_config, "--power", power)
        assert code == 3
        assert out == ""
        assert err == "Required power cannot be obtained: feasible range is [310.971, 19206.708] W\n"
        assert run_cli(capsys, "solve", bench3_config, "--power", power)[2] == err


@pytest.mark.parametrize("power", ["5000", "7000.5", "9000"])
def test_validate_passes_with_a_zero_width_last_branch(capsys, tmp_path, power):
    # The last branch's power range is a single point, narrower than any
    # grid's power steps; both oracles still solve every demand.
    a, b = BENCH3_ROWS[0][:2]
    path = tmp_path / "net.json"
    path.write_text(config_text([BENCH3_ROWS[1], (a, b, 50.0, 50.0)]))
    code, out, _ = run_cli(capsys, "validate", str(path), "--power", power)
    assert code == 0
    assert "exact total" in out
    assert "result: PASS" in out


@pytest.mark.parametrize("end, factor", [("p_min", 1 - 5e-13), ("p_max", 1 + 5e-13)])
def test_validate_single_branch_at_window_edge(capsys, tmp_path, bench3_stacks, end, factor):
    # Half the 1e-12 relative edge slack outside the window: dispatch,
    # lambda_bisection and exact_split accept the demand.
    path = tmp_path / "one.json"
    path.write_text(config_text(BENCH3_ROWS[:1]))
    power = getattr(build_table(bench3_stacks[:1]), end) * factor
    code, out, _ = run_cli(capsys, "validate", str(path), "--power", repr(power))
    assert code == 0
    assert "exact total" in out
    assert "result: PASS" in out


def test_non_utf8_config_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "solve", str(path), "--power", "100")
    assert code == 2
    assert out == ""
    assert "config error" in err


@pytest.mark.parametrize(
    "argv",
    [("solve", "--power", "8000"), ("sweep", "--from", "400", "--to", "19000", "--points", "13")],
)
def test_unwritable_output_exits_2(capsys, tmp_path, bench3_config, argv):
    target = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli(capsys, argv[0], bench3_config, *argv[1:], "--output", target)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert target in err and "config error" not in err


def test_output_flag_writes_file(capsys, tmp_path, bench3_config):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "solve", bench3_config, "--power", "8000", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["status"] == "optimal"


def test_repeated_invocations_are_byte_identical(capsys, bench3_config):
    for argv in (
        ["plan", bench3_config],
        ["solve", bench3_config, "--power", "8000"],
        ["sweep", bench3_config, "--from", "400", "--to", "19000", "--points", "13"],
        ["validate", bench3_config, "--power", "8000"],
    ):
        code_a = main(list(argv))
        out_a = capsys.readouterr().out
        code_b = main(list(argv))
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b


def run_child(code, *args):
    # A fresh interpreter: this test session has every module loaded already.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )


def test_cli_import_does_not_load_numpy():
    done = run_child("import fcdispatch.cli, sys; sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr


# cli.main on the child's arguments, then the fcdispatch modules and numpy
# that the command loaded, as stderr's last line.
MAIN_PROBE = """
import sys
from fcdispatch.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m == "numpy" or m.startswith("fcdispatch")), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--power", "8000"),
        ("sweep", "--from", "400", "--to", "19000", "--points", "13"),
        ("plan",),
    ],
)
def test_production_commands_load_only_production_modules(bench3_config, argv):
    done = run_child(MAIN_PROBE, argv[0], bench3_config, *argv[1:])
    assert done.returncode == 0, done.stderr
    # Neither paper, poly_roots, reference nor numpy.
    assert set(done.stderr.splitlines()[-1].split()) == {
        "fcdispatch", "fcdispatch.cli", "fcdispatch.dispatch", "fcdispatch.netconfig",
        "fcdispatch.stack_model",
    }


@pytest.mark.parametrize("network, power", [("bench3", "8000"), ("bench30", "75000")])
def test_validate_loads_the_oracles_and_passes(request, network, power):
    config = request.getfixturevalue(f"{network}_config")
    done = run_child(MAIN_PROBE, "validate", config, "--power", power)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("result: PASS\n")
    # lambda_bisection and exact_split, and no numpy at any network size.
    loaded = set(done.stderr.splitlines()[-1].split())
    assert "fcdispatch.reference" in loaded and "numpy" not in loaded


def test_grid_bruteforce_without_numpy_names_the_test_extra():
    probe = """
import sys
sys.modules["numpy"] = None  # import numpy now raises ImportError
from fcdispatch import grid_bruteforce
try:
    grid_bruteforce((), 8000.0, 200)
except ImportError as err:
    sys.exit(str(err))
"""
    done = run_child(probe)
    assert done.returncode == 1
    assert done.stderr == "grid_bruteforce needs numpy: install fcdispatch[test]\n"


def test_package_names_resolve_to_their_defining_modules():
    # Every exported name, the lazily resolved ones included, is the object
    # its defining module holds; the function dispatch still hides the
    # submodule of the same name.
    probe = """
import importlib, sys, types
import fcdispatch
lazy = {"fcdispatch.paper", "fcdispatch.poly_roots", "fcdispatch.reference"}
assert not lazy & set(sys.modules), lazy & set(sys.modules)
listed = set(dir(fcdispatch))
assert set(fcdispatch.__all__) <= listed, set(fcdispatch.__all__) - listed
for name in fcdispatch.__all__:
    obj = getattr(fcdispatch, name)
    if name != "__version__":
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
assert lazy <= set(sys.modules)
assert isinstance(fcdispatch.dispatch, types.FunctionType)
assert fcdispatch.dispatch is sys.modules["fcdispatch.dispatch"].dispatch
assert fcdispatch.reference is sys.modules["fcdispatch.reference"]
from fcdispatch import solve_segment_sqrt
assert solve_segment_sqrt is sys.modules["fcdispatch.paper"].solve_segment_sqrt
"""
    done = run_child(probe)
    assert done.returncode == 0, done.stderr


def test_an_unknown_package_name_raises_attribute_error():
    import fcdispatch

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fcdispatch.no_such_name


@pytest.mark.parametrize(
    "text, where",
    [
        ('[{"stacks": [], "i_lb": 0, "i_ub": 1}]', "top level"),
        (
            '{"version": "1", "branches": '
            '[{"stacks": [{"a": 40.0, "b": -0.5, "phi": 1.0}], "i_lb": 0, "i_ub": Infinity}]}',
            "Infinity",
        ),
    ],
    ids=["top-level-array", "infinity-token"],
)
def test_solve_misshapen_config_exits_2(capsys, tmp_path, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "solve", str(path), "--power", "100")
    assert code == 2
    assert out == ""
    assert "config error" in err and where in err


@pytest.mark.parametrize(
    "row",
    [(1.0, -1e-160, 0.0, "inf"), (1.0, -1e-150, 0.0, 1e300)],
    ids=["b-1e-160-unbounded", "b-1e-150-i_ub-1e300"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("plan",),
        ("solve", "--power", "0.5"),
        ("sweep", "--from", "0", "--to", "1", "--points", "3"),
        ("validate", "--power", "0.5"),
    ],
    ids=["plan", "solve", "sweep", "validate"],
)
def test_branch_beyond_the_float_range_exits_2(capsys, tmp_path, row, argv):
    # The config passes validation, but the branch's power as a cubic in the
    # level overflows a float, so no table can be built.
    path = tmp_path / "huge.json"
    path.write_text(config_text([row]))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "config error: branches[0]: power or marginal level beyond the float range\n"


@pytest.mark.parametrize("argv", [("plan",), ("solve", "--power", "4000")], ids=["plan", "solve"])
def test_a_branch_beyond_the_float_range_below_the_window_exits_2(capsys, tmp_path, argv):
    # The overflowing branch's levels lie below the 4000 W demand's window,
    # where a one-shot solve may end its sweep; its |b| = 1e-150 is outside
    # the box in which it may, so solve still refuses the config as plan does.
    path = tmp_path / "huge_below.json"
    path.write_text(config_text(OVERFLOW_BELOW_WINDOW_ROWS))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "config error: branches[1]: power or marginal level beyond the float range\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("plan",),
        ("solve", "--power", "0.5"),
        ("sweep", "--from", "0", "--to", "1", "--points", "3"),
        ("validate", "--power", "0.5"),
    ],
    ids=["plan", "solve", "sweep", "validate"],
)
def test_branch_whose_b_underflows_exits_2(capsys, tmp_path, argv):
    # Every stack passes its own check, but phi*b rounds to zero, so the
    # branch has no power peak; this was a ZeroDivisionError traceback.
    path = tmp_path / "tiny_b.json"
    path.write_text(
        '{"version": "1", "branches": [{"stacks": [{"a": 1.0, "b": -5e-324, "phi": 0.5}],'
        ' "i_lb": 0.0, "i_ub": 1.0}]}'
    )
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "config error: branches[0]: sum of phi*b underflows to 0.0\n"


@pytest.mark.parametrize(
    "argv",
    [("solve", "--power", "0.5"), ("sweep", "--from", "0.5", "--to", "0.6", "--points", "2")],
)
def test_a_solve_that_misses_the_power_balance_exits_1(capsys, tmp_path, argv):
    # One branch with a tiny |b| (tests/test_dispatch.py's TINY_B): the
    # level of a 0.5 W demand rounds to 1.0, where the branch gives 0 W and
    # one float below it 5.5e167 W, so the solve raises SegmentSolveError.
    path = tmp_path / "tiny_b.json"
    path.write_text(config_text([(1.0, -1e-100, 0.0, "inf")]))
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("solve failed: power balance violated")
    assert len(err.splitlines()) == 1

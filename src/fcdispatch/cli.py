"""Command-line front end: plan, solve, sweep, validate.

Exit codes: 0 success; 1 a feasible demand that the solve cannot meet
within the 1e-9 relative power balance (SegmentSolveError; "solve failed:"
and its message on stderr, stdout empty); 2 bad argument (a NaN or infinite
--power/--from/--to, --points below 2, --to below --from and a --to minus
--from beyond the float range included), config error (unreadable, not
UTF-8, malformed or invalid, a branch whose powers or marginal levels lie
beyond the float range, or one whose phi-weighted b underflows to zero) or
unwritable --output, with stdout empty;
3 infeasible demand (the feasible range on stderr); 4 validation mismatch
(a branch farther than 1e-3 A from lambda_bisection's or exact_split's
current), or a lambda_bisection that raises (its message on stderr, stdout
empty).
Data goes to stdout (or --output); diagnostics and timings go to stderr so
repeated invocations stay byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .dispatch import (
    _INFEASIBLE_MESSAGE, DispatchStatus, SegmentSolveError, build_table, dispatch, dispatch_table
)
from .netconfig import ConfigError, parse_network, serialize_result, sweep_to_csv
from .stack_model import NetworkValidationError, reduce_network

_VALIDATE_TOL_CURRENT = 1e-3  # amperes, per branch, against each oracle


def _load_stacks(path: str):
    """Parse and validate a config file; return its reduced branches."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return reduce_network(parse_network(text))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_plan(args) -> int:
    table = build_table(_load_stacks(args.config))
    n = len(table.stacks)
    header = ["point", "dp_di", "branch", "kind", "cum_power"] + [
        f"i_{j + 1}" for j in range(n)
    ]
    rows = [" ".join(f"{h:>12}" for h in header)]
    for k, pt in enumerate(table.points):
        cells = [
            f"{k + 1:>12}",
            f"{pt.mu:>12.6f}",
            f"{pt.branch_index + 1:>12}",
            f"{pt.kind.value:>12}",
            f"{pt.cumulative_power:>12.3f}",
        ] + [f"{i:>12.4f}" for i in table.currents_at(pt.mu)]
        rows.append(" ".join(cells))
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _infeasible(result) -> int:
    """Name an infeasible demand's feasible range on stderr; exit code 3."""
    p_min, p_max = result.feasible_range
    print(f"{_INFEASIBLE_MESSAGE}: feasible range is [{p_min:.3f}, {p_max:.3f}] W", file=sys.stderr)
    return 3


def _cmd_solve(args) -> int:
    result = dispatch(_load_stacks(args.config), args.power)
    _emit(serialize_result(result), args.output)
    if result.status is not DispatchStatus.OPTIMAL:
        return _infeasible(result)
    return 0


def _cmd_sweep(args) -> int:
    if args.p_to < args.p_from:
        print("sweep: --to must be >= --from", file=sys.stderr)
        return 2
    if not math.isfinite(args.p_to - args.p_from):
        # The grid's step would be infinite, and its first demand 0*inf.
        print("sweep: --to minus --from must be finite", file=sys.stderr)
        return 2
    table = build_table(_load_stacks(args.config))
    step = (args.p_to - args.p_from) / (args.points - 1)
    demands = [args.p_from + k * step for k in range(args.points - 1)] + [args.p_to]
    results = [dispatch_table(table, p) for p in demands]
    _emit(sweep_to_csv(results, len(table.stacks)), args.output)
    return 0


def _cmd_validate(args) -> int:
    # The oracles are imported here alone: no other command loads them.
    from .reference import compare, exact_split, lambda_bisection

    stacks = _load_stacks(args.config)

    t0 = time.perf_counter()
    result = dispatch(stacks, args.power)
    t_dispatch = time.perf_counter() - t0
    if result.status is not DispatchStatus.OPTIMAL:
        return _infeasible(result)

    t0 = time.perf_counter()
    try:
        oracle = lambda_bisection(stacks, args.power)
    except ValueError as err:
        print(f"validate: lambda bisection failed: {err}", file=sys.stderr)
        return 4
    t_oracle = time.perf_counter() - t0
    report = compare(result, oracle, _VALIDATE_TOL_CURRENT)

    t0 = time.perf_counter()
    exact = exact_split(stacks, args.power)
    t_exact = time.perf_counter() - t0
    exact_report = compare(result, exact, _VALIDATE_TOL_CURRENT)

    lines = [
        f"demand: {args.power} W",
        f"dispatch total: {result.total_current:.6f} A",
        f"bisection total: {oracle.total_current:.6f} A",
        f"max branch delta: {report.max_branch_delta:.3e} A (tol {report.tol_current:.0e})",
    ]
    for j, d in enumerate(report.branch_deltas):
        lines.append(f"  branch {j + 1}: delta {d:+.3e} A")
    lines.append(
        f"exact total: {exact.total_current:.6f} A "
        f"(max branch delta {exact_report.max_branch_delta:.3e} A)"
    )

    verdict = report.passed and exact_report.passed
    lines.append(f"result: {'PASS' if verdict else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.output)
    print(f"dispatch: {t_dispatch * 1e3:.3f} ms", file=sys.stderr)
    print(f"lambda bisection: {t_oracle * 1e3:.3f} ms", file=sys.stderr)
    print(f"exact split: {t_exact * 1e3:.3f} ms", file=sys.stderr)
    return 0 if verdict else 4


def _checked(cast, ok, rule: str):
    """An argparse type: cast the text, then require ok(value)."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse reports "invalid float value: 'abc'"
    return parse


# No demand test can place a NaN, and an infinite demand would reach the JSON
# result as the invalid token Infinity.
_finite_float = _checked(float, math.isfinite, "finite")
_point_count = _checked(int, lambda n: n >= 2, ">= 2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcdispatch",
        description="Minimum-current dispatch for parallel fuel-cell stack networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print the observable-point table")
    p_plan.add_argument("config")
    p_plan.add_argument("--output")
    p_plan.set_defaults(func=_cmd_plan)

    p_solve = sub.add_parser("solve", help="dispatch one power demand")
    p_solve.add_argument("config")
    p_solve.add_argument("--power", type=_finite_float, required=True, help="demand in watts")
    p_solve.add_argument("--output")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="dispatch a range of demands as CSV")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--from", dest="p_from", type=_finite_float, required=True)
    p_sweep.add_argument("--to", dest="p_to", type=_finite_float, required=True)
    p_sweep.add_argument("--points", type=_point_count, required=True)
    p_sweep.add_argument("--output")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="cross-check dispatch against oracles")
    p_val.add_argument("config")
    p_val.add_argument("--power", type=_finite_float, required=True)
    p_val.add_argument("--output")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad arguments; keep that contract.
        return int(err.code or 0)
    try:
        return args.func(args)
    except (ConfigError, NetworkValidationError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # reading the config raises ConfigError: a write failed
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    except SegmentSolveError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

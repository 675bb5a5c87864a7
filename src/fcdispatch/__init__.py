"""Minimum-current dispatch for parallel networks of fuel-cell stacks.

Given branches with square-root polarization curves V = a + b*sqrt(I) and a
power demand, computes the per-branch currents that deliver the demand with
the least total current, using an offline breakpoint table and an online
analytic active-set solve.

dispatch, netconfig and stack_model, which the production commands use, are
imported with the package. The names of paper (the paper's segment solves),
poly_roots and reference (the oracles), which only cross-checks use, are
resolved on first access (PEP 562), so `fcdispatch solve` never loads them.
"""

from importlib import import_module as _import_module

from .dispatch import (
    ActiveSets,
    DispatchResult,
    DispatchStatus,
    DispatchTable,
    InfeasibleDemandError,
    KktReport,
    ObservablePoint,
    PointKind,
    SegmentSolveError,
    build_table,
    dispatch,
    dispatch_table,
    feasible_power_range,
    locate_segment,
    verify_kkt,
)
from .netconfig import (
    ConfigError,
    parse_network,
    serialize_network,
    serialize_result,
    sweep_to_csv,
)
from .stack_model import (
    BranchSpec,
    EquivalentStack,
    Network,
    NetworkValidationError,
    SqrtStackParams,
    effective_upper_bound,
    reduce_branch,
    reduce_network,
    validate_network,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSets",
    "BranchSpec",
    "ComparisonReport",
    "ConfigError",
    "CubicCoefficients",
    "DispatchResult",
    "DispatchStatus",
    "DispatchTable",
    "EquivalentStack",
    "InfeasibleDemandError",
    "KktReport",
    "Network",
    "NetworkValidationError",
    "ObservablePoint",
    "OracleMethod",
    "OracleResult",
    "PointKind",
    "SegmentCandidate",
    "SegmentSolveError",
    "SqrtStackParams",
    "build_table",
    "compare",
    "dispatch",
    "dispatch_table",
    "effective_upper_bound",
    "feasible_power_range",
    "grid_bruteforce",
    "lambda_bisection",
    "locate_segment",
    "parse_network",
    "real_roots",
    "reduce_branch",
    "reduce_network",
    "select_feasible_root",
    "serialize_network",
    "serialize_result",
    "solve_segment_numeric",
    "solve_segment_sqrt",
    "sweep_to_csv",
    "validate_network",
    "verify_kkt",
    "__version__",
]

# Name -> the submodule that defines it, imported on the name's first access.
_LAZY = {
    "SegmentCandidate": "paper",
    "select_feasible_root": "paper",
    "solve_segment_numeric": "paper",
    "solve_segment_sqrt": "paper",
    "CubicCoefficients": "poly_roots",
    "real_roots": "poly_roots",
    "ComparisonReport": "reference",
    "OracleMethod": "reference",
    "OracleResult": "reference",
    "compare": "reference",
    "grid_bruteforce": "reference",
    "lambda_bisection": "reference",
}
_LAZY_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())

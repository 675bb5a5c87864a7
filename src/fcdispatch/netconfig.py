"""Network config ingestion and result serialization.

Config files are UTF-8 JSON with top-level keys "version" and "branches";
each branch holds "stacks" (objects with "a", "b", "phi"), "i_lb" and
"i_ub". Every number must be finite; the string "inf" is the one
non-numeric bound token and maps to an unbounded upper limit. Numbers
round-trip bit-exactly through serialization. parse_network names the
first problem in document order with its location, validates by reducing
every branch once, and reduce_network reuses that reduction.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

from .dispatch import _INFEASIBLE_MESSAGE, DispatchResult, DispatchStatus
from .stack_model import BranchSpec, Network, SqrtStackParams, reduce_network


class ConfigError(ValueError):
    """A config document is malformed or violates a network invariant."""


def _where(j: int | None, k: int | None = None) -> str:
    # The location of branch j's stack k (of branch j for k None, of the
    # document for j None), formatted only for a value that raises.
    if j is None:
        return "document"
    return f"branches[{j}]" if k is None else f"branches[{j}].stacks[{k}]"


def _require(obj: dict, key: str, j: int | None = None, k: int | None = None) -> Any:
    if key not in obj:
        raise ConfigError(f"{_where(j, k)}: missing required key {key!r}")
    return obj[key]


def _number(obj: dict, key: str, j: int, k: int | None = None) -> float:
    # obj[key], a finite number. Integers parse as floats, so any literal
    # beyond the float range is inf.
    value = _require(obj, key, j, k)
    if not isinstance(value, float) or not math.isfinite(value):
        raise ConfigError(f"{_where(j, k)}.{key}: expected a finite number, got {value!r}")
    return value


def _non_json_constant(token: str) -> float:
    # json.loads accepts NaN, Infinity and -Infinity, which JSON does not.
    raise ConfigError(f"invalid JSON: {token} is not a number")


def parse_network(text: str) -> Network:
    """Parse and validate a config document, with positional diagnostics.

    Each branch is read in one walk; the first value that fails a check
    raises ConfigError naming its location. Validation then reduces every
    branch once, and reduce_network returns the reduction the Network keeps.
    """
    try:
        doc = json.loads(text, parse_int=float, parse_constant=_non_json_constant)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")

    version = _require(doc, "version")
    if not isinstance(version, str):
        raise ConfigError(f"{_where(None)}: version must be a string, got {version!r}")

    raw_branches = _require(doc, "branches")
    if not isinstance(raw_branches, list) or not raw_branches:
        raise ConfigError(f"{_where(None)}: branches must be a nonempty array")

    network = Network(branches=[_read_branch(raw, j) for j, raw in enumerate(raw_branches)])
    try:
        reduced = reduce_network(network)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    object.__setattr__(network, "_reduced", reduced)
    return network


def _read_branch(raw: Any, j: int) -> BranchSpec:
    # branches[j], read by subscript and built without the frozen
    # dataclasses' __init__: a value passes when its type is exactly float
    # and a comparison chain shows it finite ("inf" only for i_ub). Where a
    # read or a chain fails, _require and _number name the first problem.
    inf, new = math.inf, object.__new__
    try:
        raw_stacks, i_lb, i_ub = raw["stacks"], raw["i_lb"], raw["i_ub"]
    except (KeyError, TypeError):
        if not isinstance(raw, dict):
            raise ConfigError(f"{_where(j)}: expected an object")
        raw_stacks, i_lb, i_ub = _require(raw, "stacks", j), None, None
    if not isinstance(raw_stacks, list) or not raw_stacks:
        raise ConfigError(f"{_where(j)}: stacks must be a nonempty array")
    stacks = []
    for s in raw_stacks:
        try:
            a, b, phi = s["a"], s["b"], s["phi"]
        except (KeyError, TypeError):
            a = b = phi = None
        if not (type(a) is type(b) is type(phi) is float
                and -inf < a < inf and -inf < b < inf and -inf < phi < inf):
            k = [id(t) for t in raw_stacks].index(id(s))  # an earlier s would have failed
            if not isinstance(s, dict):
                raise ConfigError(f"{_where(j, k)}: expected an object")
            a, b, phi = _number(s, "a", j, k), _number(s, "b", j, k), _number(s, "phi", j, k)
        stack = new(SqrtStackParams)
        d = stack.__dict__
        d["a"], d["b"], d["phi"] = a, b, phi
        stacks.append(stack)
    if not (type(i_lb) is float and -inf < i_lb < inf):
        i_lb = _number(raw, "i_lb", j)
    if i_ub == "inf":
        i_ub = inf
    elif not (type(i_ub) is float and -inf < i_ub < inf):
        i_ub = _number(raw, "i_ub", j)
    branch = new(BranchSpec)
    d = branch.__dict__
    d["stacks"], d["i_lb"], d["i_ub"] = tuple(stacks), i_lb, i_ub
    return branch


def serialize_network(network: Network) -> str:
    """Config text that parses back to the same network bit-exactly.

    A NaN or infinite value (other than an unbounded i_ub) raises
    ValueError: JSON has no token for it, and parse_network rejects one.
    """
    doc = {
        "version": "1",
        "branches": [
            {
                "stacks": [{"a": s.a, "b": s.b, "phi": s.phi} for s in br.stacks],
                "i_lb": br.i_lb,
                "i_ub": "inf" if math.isinf(br.i_ub) else br.i_ub,
            }
            for br in network.branches
        ],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def serialize_result(result: DispatchResult) -> str:
    """Deterministic JSON record for one dispatch (branch numbers 1-based).

    A NaN or infinite value, such as a NaN demand's p_req, raises
    ValueError rather than writing a token that is not JSON.
    """
    doc: dict[str, Any] = {
        "status": result.status.value,
        "p_req": result.p_req,
        "feasible_range": list(result.feasible_range),
    }
    if result.status is DispatchStatus.OPTIMAL:
        doc["currents"] = list(result.currents)
        doc["total_current"] = result.total_current
        doc["total_power"] = result.total_power
        doc["mu"] = result.mu
        doc["active_sets"] = {
            "at_lb": [j + 1 for j in sorted(result.sets.at_lb)],
            "interior": [j + 1 for j in sorted(result.sets.interior)],
            "at_ub": [j + 1 for j in sorted(result.sets.at_ub)],
            "p_req_eff": result.sets.p_req_eff,
        }
    else:
        doc["message"] = _INFEASIBLE_MESSAGE
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def sweep_to_csv(results: Sequence[DispatchResult], n_branches: int) -> str:
    """CSV rows for a demand sweep; infeasible demands keep their row with
    empty current cells so the feasible window stays visible in plots."""
    header = ["p_req"] + [f"i_{j + 1}" for j in range(n_branches)] + ["i_total", "mu", "status"]
    lines = [",".join(header)]
    for res in results:
        if res.status is DispatchStatus.OPTIMAL:
            cells = ",".join(map(repr, (res.p_req, *res.currents, res.total_current, res.mu)))
        else:
            cells = repr(res.p_req) + "," * (n_branches + 2)
        lines.append(f"{cells},{res.status.value}")
    return "\n".join(lines) + "\n"

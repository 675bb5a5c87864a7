import copy
import dataclasses
import json
import math
import pickle

import pytest

from fcdispatch import (
    BranchSpec,
    ConfigError,
    Network,
    SqrtStackParams,
    dispatch,
    parse_network,
    reduce_network,
    serialize_network,
    serialize_result,
    sweep_to_csv,
    validate_network,
)


def test_parse_three_branch_config(bench3_config_text):
    net = parse_network(bench3_config_text)
    assert net.n_branches == 3
    assert all(len(b.stacks) == 1 for b in net.branches)
    assert net.branches[0].stacks[0].a == 47.655
    assert net.branches[1].i_lb == 0.0
    assert net.branches[2].i_ub == 236.4155


def test_parse_thirty_stack_config(bench30_config_text):
    net = parse_network(bench30_config_text)
    assert net.n_branches == 15
    assert sum(len(b.stacks) for b in net.branches) == 30
    assert all(math.isinf(b.i_ub) for b in net.branches)
    assert all(s.phi == 0.8 for b in net.branches for s in b.stacks)


def test_parse_rejects_invalid_json():
    with pytest.raises(ConfigError, match="line 1"):
        parse_network("{not json")


def test_parse_rejects_missing_keys():
    with pytest.raises(ConfigError, match="version"):
        parse_network(json.dumps({"branches": []}))
    with pytest.raises(ConfigError, match="branches"):
        parse_network(json.dumps({"version": "1"}))


def test_parse_rejects_empty_branches():
    with pytest.raises(ConfigError, match="nonempty"):
        parse_network(json.dumps({"version": "1", "branches": []}))


def test_parse_rejects_bad_stack_with_location():
    doc = {
        "version": "1",
        "branches": [
            {"stacks": [{"a": 40.0, "b": -0.5, "phi": 1.0}], "i_lb": 0, "i_ub": 10},
            {"stacks": [{"a": 40.0, "b": 0.5, "phi": 1.0}], "i_lb": 0, "i_ub": 10},
        ],
    }
    with pytest.raises(ConfigError, match=r"branches\[1\].stacks\[0\]"):
        parse_network(json.dumps(doc))


def test_parse_rejects_inverted_bounds_with_location():
    doc = {
        "version": "1",
        "branches": [
            {"stacks": [{"a": 40.0, "b": -0.5, "phi": 1.0}], "i_lb": 5, "i_ub": 2},
        ],
    }
    with pytest.raises(ConfigError, match=r"branches\[0\]"):
        parse_network(json.dumps(doc))


def test_parse_rejects_non_numeric_fields():
    doc = {
        "version": "1",
        "branches": [
            {"stacks": [{"a": "forty", "b": -0.5, "phi": 1.0}], "i_lb": 0, "i_ub": 10},
        ],
    }
    with pytest.raises(ConfigError, match=r"branches\[0\].stacks\[0\].a"):
        parse_network(json.dumps(doc))


def test_parse_rejects_unknown_bound_token():
    doc = {
        "version": "1",
        "branches": [
            {"stacks": [{"a": 40.0, "b": -0.5, "phi": 1.0}], "i_lb": 0, "i_ub": "unbounded"},
        ],
    }
    with pytest.raises(ConfigError, match=r"i_ub"):
        parse_network(json.dumps(doc))


def test_parse_rejects_missing_stack_field():
    doc = {
        "version": "1",
        "branches": [
            {"stacks": [{"a": 40.0, "b": -0.5}], "i_lb": 0, "i_ub": 10},
        ],
    }
    with pytest.raises(ConfigError, match=r"phi"):
        parse_network(json.dumps(doc))


def test_parse_serialize_roundtrip_is_bit_exact(bench3_config_text, bench30_config_text):
    for text in (bench3_config_text, bench30_config_text):
        net = parse_network(text)
        back = parse_network(serialize_network(net))
        for b1, b2 in zip(net.branches, back.branches):
            assert b1.i_lb == b2.i_lb
            assert b1.i_ub == b2.i_ub or (math.isinf(b1.i_ub) and math.isinf(b2.i_ub))
            for s1, s2 in zip(b1.stacks, b2.stacks):
                assert (s1.a, s1.b, s1.phi) == (s2.a, s2.b, s2.phi)


def test_serialize_optimal_result(bench3_network):
    res = dispatch(bench3_network, 8000.0)
    doc = json.loads(serialize_result(res))
    assert doc["status"] == "optimal"
    assert doc["p_req"] == 8000.0
    assert doc["currents"] == list(res.currents)  # bit-exact floats
    assert doc["total_current"] == res.total_current
    assert doc["mu"] == res.mu
    assert doc["active_sets"]["interior"] == [1, 2, 3]
    assert doc["active_sets"]["at_lb"] == []
    assert doc["feasible_range"] == list(res.feasible_range)


def test_serialize_infeasible_result(bench3_network):
    res = dispatch(bench3_network, 100.0)
    doc = json.loads(serialize_result(res))
    assert doc["status"] == "infeasible_low"
    assert doc["message"] == "Required power cannot be obtained"
    assert doc["feasible_range"][0] == res.feasible_range[0]
    assert "currents" not in doc


def test_serialize_result_field_order_is_stable(bench3_network):
    a = serialize_result(dispatch(bench3_network, 8000.0))
    b = serialize_result(dispatch(bench3_network, 8000.0))
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == ["status", "p_req", "feasible_range", "currents", "total_current",
                    "total_power", "mu", "active_sets"]


def test_sweep_csv_shape_and_golden(bench3_network):
    results = [dispatch(bench3_network, p) for p in (100.0, 1000.0, 8000.0, 15000.0, 1e9)]
    text = sweep_to_csv(results, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "p_req,i_1,i_2,i_3,i_total,mu,status"
    assert len(lines) == 6
    row = lines[3].split(",")
    assert row[0] == "8000.0"
    assert float(row[4]) == results[2].total_current
    assert row[6] == "optimal"
    # The exact bytes, an infeasible row at each end included.
    assert text == (
        "p_req,i_1,i_2,i_3,i_total,mu,status\n"
        "100.0,,,,,,infeasible_low\n"
        "1000.0,18.240736778591884,0.4318796014152416,6.646,25.31861638000713,"
        "39.34592989287904,optimal\n"
        "8000.0,81.02027467268553,136.2281860249194,17.071270644081054,234.319731341686,"
        "30.143308782903258,optimal\n"
        "15000.0,106.8127,294.11959761190747,85.33675059868533,486.2690482105928,"
        "25.566245698286696,optimal\n"
        "1000000000.0,,,,,,infeasible_high\n"
    )


def test_sweep_csv_infeasible_rows(bench3_network):
    results = [dispatch(bench3_network, p) for p in (100.0, 8000.0, 1e9)]
    lines = sweep_to_csv(results, 3).strip().split("\n")
    assert lines[1].endswith("infeasible_low")
    assert lines[1].split(",")[1] == ""
    assert lines[3].endswith("infeasible_high")


def test_csv_floats_roundtrip(bench3_network):
    res = dispatch(bench3_network, 8000.0)
    line = sweep_to_csv([res], 3).strip().split("\n")[1]
    cells = line.split(",")
    assert [float(c) for c in cells[1:4]] == list(res.currents)


STACK = {"a": 40.0, "b": -0.5, "phi": 1.0}
BRANCH = {"stacks": [STACK], "i_lb": 0, "i_ub": 10}


@pytest.mark.parametrize(
    "doc, where",
    [
        ([BRANCH], "top level"),
        ({"version": 1, "branches": [BRANCH]}, "document: version"),
        ({"version": "1", "branches": [BRANCH, [STACK]]}, r"branches\[1\]"),
        ({"version": "1", "branches": [{**BRANCH, "stacks": STACK}]}, r"branches\[0\]: stacks"),
        ({"version": "1", "branches": [{**BRANCH, "stacks": [STACK, 40.0]}]}, r"branches\[0\].stacks\[1\]"),
    ],
    ids=["top-level-array", "numeric-version", "branch-array", "stacks-object", "stack-number"],
)
def test_parse_rejects_misshapen_documents_with_location(doc, where):
    with pytest.raises(ConfigError, match=where):
        parse_network(json.dumps(doc))


def config_text(field: str, literal: str) -> str:
    """A one-branch config whose field holds the raw JSON text literal."""
    stack = dict(STACK)
    branch = {**BRANCH, "stacks": [stack]}
    (stack if field in stack else branch)[field] = "@"
    return json.dumps({"version": "1", "branches": [branch]}).replace('"@"', literal)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["a", "i_lb", "i_ub"])
def test_parse_rejects_non_json_number_tokens(token, field):
    # Python's json module reads these tokens; JSON has none of them, and
    # the string "inf" is the one way to write an unbounded upper limit.
    with pytest.raises(ConfigError, match=token):
        parse_network(config_text(field, token))


@pytest.mark.parametrize(
    "literal",
    ["1e999", "-1e999", "1" + "0" * 400, "9" * 5000],
    ids=["1e999", "-1e999", "401-digits", "5000-digits"],
)
def test_parse_rejects_numbers_beyond_the_float_range(literal):
    with pytest.raises(ConfigError, match=r"branches\[0\].i_ub: expected a finite number"):
        parse_network(config_text("i_ub", literal))


def test_parse_keeps_inf_string_and_integer_bounds():
    doc = {"version": "1", "branches": [BRANCH, {**BRANCH, "i_ub": "inf"}]}
    net = parse_network(json.dumps(doc))
    assert [b.i_ub for b in net.branches] == [10.0, math.inf]
    assert all(type(b.i_lb) is float for b in net.branches)


def second_branch_text(field: str, literal: str | None) -> str:
    """A two-branch config whose second branch has two stacks. The raw JSON
    text literal replaces field of that branch's second stack (a, b, phi),
    of the branch (stacks, i_lb, i_ub), or that stack or branch itself
    ("stack", "branch"); a None literal leaves the key out."""
    stack = dict(STACK)
    branch = {**BRANCH, "stacks": [STACK, stack]}
    doc = {"version": "1", "branches": [BRANCH, branch]}
    if field == "branch":
        doc["branches"][1] = "@"
    elif field == "stack":
        branch["stacks"][1] = "@"
    elif literal is None:
        del (stack if field in stack else branch)[field]
    else:
        (stack if field in stack else branch)[field] = "@"
    return json.dumps(doc).replace('"@"', str(literal))


def _number_case(field: str, literal: str, shown: str):
    where = "branches[1].stacks[1]" if field in STACK else "branches[1]"
    return field, literal, f"{where}.{field}: expected a finite number, got {shown}"


# (field, raw JSON literal or None for a missing key, the exact message)
MALFORMED = (
    [
        _number_case(field, literal, shown)
        for field in ("a", "b", "phi", "i_lb", "i_ub")
        for literal, shown in (("true", "True"), ("false", "False"), ("null", "None"), ("1e999", "inf"))
    ]
    + [
        _number_case("i_ub", '"Inf"', "'Inf'"),
        _number_case("i_ub", '"INF"', "'INF'"),
        ("stacks", "{}", "branches[1]: stacks must be a nonempty array"),
        ("stacks", '"ab"', "branches[1]: stacks must be a nonempty array"),
        ("stacks", "[]", "branches[1]: stacks must be a nonempty array"),
        ("branch", "[1.0]", "branches[1]: expected an object"),
        ("branch", '"ab"', "branches[1]: expected an object"),
        ("branch", "null", "branches[1]: expected an object"),
        ("stack", "[40.0]", "branches[1].stacks[1]: expected an object"),
        ("stack", "40.0", "branches[1].stacks[1]: expected an object"),
    ]
    + [
        (key, None, f"{where}: missing required key {key!r}")
        for key, where in (
            ("stacks", "branches[1]"),
            ("a", "branches[1].stacks[1]"),
            ("b", "branches[1].stacks[1]"),
            ("phi", "branches[1].stacks[1]"),
            ("i_lb", "branches[1]"),
            ("i_ub", "branches[1]"),
        )
    ]
)


@pytest.mark.parametrize(
    "field, literal, message", MALFORMED, ids=[f"{f}-{lit or 'missing'}" for f, lit, _ in MALFORMED]
)
def test_parse_names_each_malformed_value_exactly(field, literal, message):
    with pytest.raises(ConfigError) as err:
        parse_network(second_branch_text(field, literal))
    assert str(err.value) == message


def test_parse_names_the_first_problem_in_document_order():
    bad_b = {**BRANCH, "stacks": [{**STACK, "b": 0.5}]}
    bad_a = {**BRANCH, "stacks": [{**STACK, "a": "forty"}]}
    bad_lb = {**BRANCH, "i_lb": None}
    with pytest.raises(ConfigError) as err:
        parse_network(json.dumps({"version": "1", "branches": [BRANCH, bad_a, bad_lb]}))
    assert str(err.value) == "branches[1].stacks[0].a: expected a finite number, got 'forty'"
    # Every value is read before any branch is validated against the model.
    with pytest.raises(ConfigError) as err:
        parse_network(json.dumps({"version": "1", "branches": [bad_b, bad_lb]}))
    assert str(err.value) == "branches[1].i_lb: expected a finite number, got None"
    with pytest.raises(ConfigError) as err:
        parse_network(json.dumps({"version": "1", "branches": [BRANCH, bad_b, bad_b]}))
    assert str(err.value) == "branches[1].stacks[0]: b must be finite and < 0, got 0.5"


# (a second branch with two problems, the exact message): the problem that
# comes first in document order is named.
WITHIN_A_BRANCH = [
    (
        {"stacks": [{**STACK, "a": "forty"}], "i_ub": 10},
        "branches[1].stacks[0].a: expected a finite number, got 'forty'",
    ),
    (
        {"stacks": [STACK, [40.0]], "i_lb": 0, "i_ub": "Inf"},
        "branches[1].stacks[1]: expected an object",
    ),
    ({"i_lb": "zero", "i_ub": 10}, "branches[1]: missing required key 'stacks'"),
    (
        {"stacks": [STACK], "i_lb": None, "i_ub": "inf"},
        "branches[1].i_lb: expected a finite number, got None",
    ),
    ({"stacks": [], "i_lb": 0}, "branches[1]: stacks must be a nonempty array"),
]


@pytest.mark.parametrize(
    "branch, message",
    WITHIN_A_BRANCH,
    ids=[
        "bad-a-missing-i_lb",
        "list-stack-Inf-i_ub",
        "missing-stacks-bad-i_lb",
        "inf-i_ub-null-i_lb",
        "empty-stacks-missing-i_ub",
    ],
)
def test_parse_names_the_first_problem_within_a_branch(branch, message):
    with pytest.raises(ConfigError) as err:
        parse_network(json.dumps({"version": "1", "branches": [BRANCH, branch]}))
    assert str(err.value) == message


def test_parse_reads_integers_as_floats_and_ignores_extra_keys():
    text = json.dumps(
        {
            "version": "1",
            "comment": [1, 2],
            "branches": [
                {"stacks": [{"a": 40, "b": -1, "phi": 1, "id": "s1"}], "i_lb": 0, "i_ub": 10, "id": None},
            ],
        }
    )
    net = parse_network(text)
    branch = net.branches[0]
    stack = branch.stacks[0]
    assert all(type(v) is float for v in (stack.a, stack.b, stack.phi, branch.i_lb, branch.i_ub))
    assert net == Network(branches=(BranchSpec(stacks=(SqrtStackParams(40.0, -1.0, 1.0),), i_lb=0.0, i_ub=10.0),))


def built_in_code(network: Network) -> Network:
    """The same network through the public constructors."""
    return Network(
        branches=tuple(
            BranchSpec(
                stacks=tuple(SqrtStackParams(a=s.a, b=s.b, phi=s.phi) for s in b.stacks),
                i_lb=b.i_lb,
                i_ub=b.i_ub,
            )
            for b in network.branches
        )
    )


def test_parsed_network_is_indistinguishable_from_one_built_in_code(bench30_config_text):
    parsed = parse_network(bench30_config_text)
    built = built_in_code(parsed)
    assert dataclasses.fields(parsed) == dataclasses.fields(built)
    assert dataclasses.asdict(parsed) == dataclasses.asdict(built)
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    for branch, twin in zip(parsed.branches, built.branches):
        assert hash(branch) == hash(twin) and repr(branch) == repr(twin)
        with pytest.raises(dataclasses.FrozenInstanceError):
            branch.i_lb = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            branch.stacks[0].a = 1.0
    for twin in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed)):
        assert twin == parsed and repr(twin) == repr(parsed)
        assert reduce_network(twin) == reduce_network(built)


def test_a_parsed_network_is_reduced_once(bench30_config_text, reduce_branch_calls):
    net = parse_network(bench30_config_text)
    assert reduce_branch_calls == list(range(15))  # validation
    stacks = reduce_network(net)
    validate_network(net)
    dispatch(net, 75_000.0)
    assert reduce_branch_calls == list(range(15))

    built = built_in_code(net)
    for _ in range(2):
        reduce_branch_calls.clear()
        assert reduce_network(built) == stacks
        assert reduce_branch_calls == list(range(15))

    # A replaced network is reduced afresh, from its own branches.
    reduce_branch_calls.clear()
    capped = BranchSpec(stacks=net.branches[0].stacks, i_lb=0.1, i_ub=50.0)
    replaced = dataclasses.replace(net, branches=(capped,) + net.branches[1:])
    assert reduce_network(replaced)[0].i_ub_eff == 50.0
    assert reduce_network(replaced)[1:] == stacks[1:]
    assert reduce_branch_calls == list(range(15)) * 2

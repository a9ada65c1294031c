"""CLI surface and the JSON/DOT interchange formats."""

import itertools
import json
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from polysat import (
    antichain_poset,
    build_pj,
    chain_poset,
    disjoint_union,
    kfamily,
    saturation,
)
from polysat.cli import main
from polysat.io import MAX_N, dumps, export_dot, loads


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


def test_json_round_trip_is_byte_identical():
    for p in (chain_poset(3), antichain_poset(2), build_pj(3)[0]):
        text = dumps(p)
        assert dumps(loads(text)) == text


def test_json_carries_names_and_realizer():
    p, _ = build_pj(2)
    q = loads(dumps(p))
    assert q.names == p.names
    assert q.realizer == p.realizer


def test_loads_rejects_garbage():
    from polysat.errors import BadParameters

    with pytest.raises(BadParameters):
        loads("not json")
    with pytest.raises(BadParameters):
        loads('{"covers": []}')


def test_export_dot_examples():
    dot = export_dot(chain_poset(3))
    assert dot.count("->") == 2
    assert export_dot(antichain_poset(2)).count("->") == 0
    dot = export_dot(build_pj(1)[0])
    assert dot.count("->") == 2
    for label in ("u", "s1", "r1"):
        assert f'label="{label}"' in dot
    dot = export_dot(chain_poset(2, names=['a"b', "c\\d"]))
    assert 'label="a\\"b"' in dot and 'label="c\\\\d"' in dot


def test_construct_pj(runner):
    result = invoke(runner, ["construct", "pj", "--j", "2"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["n"] == 6
    assert len(obj["covers"]) == 5


def test_construct_pj_dot(runner):
    result = invoke(runner, ["construct", "pj", "--j", "2", "--dot"])
    assert result.exit_code == 0
    assert result.output.startswith("digraph")
    assert result.output.count("->") == 5


def test_construct_delta_and_nca(runner):
    result = invoke(runner, ["construct", "delta", "--b", "3,3,2,1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["n"] == 9
    result = invoke(
        runner, ["construct", "nca", "--n", "10", "--c", "5", "--a", "3"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["n"] == 10


def test_construct_errors_exit_2(runner):
    result = invoke(runner, ["construct", "pj", "--j", "0"])
    assert result.exit_code == 2
    assert "error:" in result.output
    result = invoke(runner, ["construct", "delta", "--b", "3,1,1,1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["construct", "delta", "--b", "3,x"], None),
        (["dk-table", "/nonexistent.json"], None),
        (
            ["dual", "-", "--table"],
            '{"n": 3, "realizer": [[0, 1, 3], [0, 1, 2]]}',
        ),
        (["dk-table", "-"], '{"n": "3"}'),
        (["dk-table", "-"], '{"n": 2, "covers": [[0]]}'),
        (["dk-table", "-"], '{"n": 2, "names": "ab"}'),
        (["dk-table", "-"], '{"n": 3, "names": [[1], 2, null]}'),
        (["dk-table", "-"], "[" * 200000),
        (["dk-table", "-"], '{"n": ' + "9" * 5000 + "}"),
    ],
    ids=[
        "b-not-integers",
        "missing-file",
        "realizer-out-of-range",
        "n-not-integer",
        "cover-not-pair",
        "names-not-list",
        "names-not-strings",
        "deeply-nested",
        "n-too-many-digits",
    ],
)
def test_malformed_input_exits_2(runner, args, stdin):
    # Exit 1 is a negative verdict, so an input fault must never produce it.
    result = invoke(runner, args, stdin=stdin)
    assert result.exit_code == 2
    assert "error:" in result.output.lower()


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, MAX_N + 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def poset_objects(draw):
    """Valid poset objects, some with one field or entry made junk."""
    n = draw(st.integers(1, 7))
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=8))
    obj = {"n": n, "covers": [sorted(c) for c in pairs if c[0] != c[1]]}
    if draw(st.booleans()):
        obj["names"] = draw(
            st.lists(st.text(max_size=2), min_size=n, max_size=n)
        )
    if draw(st.booleans()):
        obj["realizer"] = draw(
            st.lists(st.permutations(range(n)), min_size=2, max_size=2)
        )
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(["n", "covers", "names", "realizer"]))
        junk = draw(json_values)
        if key != "n" and obj.get(key) and draw(st.booleans()):
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = junk
        else:
            obj[key] = junk
    return obj


@st.composite
def poset_texts(draw):
    """JSON text of a poset object or of junk, sometimes cut short."""
    junk = draw(st.integers(0, 3)) == 0
    text = json.dumps(draw(json_values if junk else poset_objects()))
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(deadline=None, max_examples=100)
@given(poset_texts())
def test_any_input_exits_0_1_or_2_and_1_only_for_a_verdict(text):
    runner = CliRunner()
    for command in ("dk-table", "certify"):
        result = invoke(runner, [command, "-"], stdin=text)
        assert result.exit_code in (0, 1, 2)
        if result.exit_code == 1:
            assert command == "certify"
            assert json.loads(result.stdout)["polyunsaturated"] is False


def test_huge_n_is_refused_before_any_allocation(runner):
    start = time.perf_counter()
    result = invoke(runner, ["dk-table", "-"], stdin='{"n": 100000000}')
    assert result.exit_code == 2
    assert "error:" in result.output.lower()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "args",
    [
        ["pj", "--j", "62"],
        ["pj", "--j", "1000000000"],
        ["delta", "--b", "2001"],
        ["delta", "--b", "1000000000000,1"],
        ["nca", "--n", "5000", "--c", "10", "--a", "600"],
        ["nca", "--n", "1000000000000", "--c", "1000", "--a", "2000000000"],
    ],
    ids=[
        "pj-62",
        "pj-huge",
        "delta-2001",
        "delta-huge",
        "nca-5000",
        "nca-huge",
    ],
)
def test_constructions_above_max_n_are_refused_at_once(runner, args):
    # Each of these is larger than the JSON reader accepts.
    start = time.perf_counter()
    result = invoke(runner, ["construct", *args])
    assert result.exit_code == 2
    assert "error:" in result.output.lower()
    assert time.perf_counter() - start < 1.0


def test_dk_table_csv(runner):
    p2 = dumps(build_pj(2)[0])
    result = invoke(runner, ["dk-table", "-", "--csv"], stdin=p2)
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "k,d_k,delta_d_k",
        "1,2,2",
        "2,4,2",
        "3,5,1",
        "4,6,1",
    ]


def test_certify_positive(runner):
    p3 = dumps(build_pj(3)[0])
    result = invoke(runner, ["certify", "-"], stdin=p3)
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["polyunsaturated"] is True
    assert all(
        entry["verdict"] == "no_joint_partition" for entry in obj["pairs"]
    )


def test_certify_negative(runner):
    p = disjoint_union(chain_poset(4), antichain_poset(4))
    result = invoke(runner, ["certify", "-"], stdin=dumps(p))
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["polyunsaturated"] is False


def test_certify_runs_the_flow_once(runner, monkeypatch):
    calls = []
    real = kfamily.chain_unions

    def counting(p):
        calls.append(p.n)
        return real(p)

    monkeypatch.setattr(kfamily, "chain_unions", counting)
    p5 = dumps(build_pj(5)[0])
    result = invoke(runner, ["certify", "-", "--limit-n", "24"], stdin=p5)
    assert result.exit_code == 0
    assert calls == [21]


def test_certify_respects_limit(runner):
    p = dumps(antichain_poset(5))
    result = invoke(runner, ["certify", "-", "--limit-n", "4"], stdin=p)
    assert result.exit_code == 2


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_budget_must_be_a_nonnegative_number(runner, budget):
    p3 = dumps(build_pj(3)[0])
    args = ["certify", "-", "--budget-seconds", budget]
    result = invoke(runner, args, stdin=p3)
    assert result.exit_code == 2
    assert result.stdout == "" and "budget must be" in result.stderr
    # 0 and inf are budgets: a certificate with no pairs needs no time,
    # and an unbounded one runs to its verdict.
    args[-1] = "0.0"
    result = invoke(runner, args, stdin=dumps(chain_poset(3)))
    assert result.exit_code == 0
    args[-1] = "inf"
    assert invoke(runner, args, stdin=p3).exit_code == 0


def test_budget_exceeded_names_phase_pair_and_states(runner, monkeypatch):
    p3 = dumps(build_pj(3)[0])
    result = invoke(
        runner, ["certify", "-", "--budget-seconds", "0"], stdin=p3
    )
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (
        "error: orthogonal search for pair (1, 3) ran past its time budget"
        " after 1 states\n"
    )
    # A clock that advances one second per read: the three pair searches
    # of P_3 fit in 30 s, the shared DP after them does not.
    clock = itertools.count()
    monkeypatch.setattr(
        saturation.time, "monotonic", lambda: float(next(clock))
    )
    result = invoke(
        runner, ["certify", "-", "--budget-seconds", "30"], stdin=p3
    )
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (
        "error: shared DP over 3 refuted pairs ran past its time budget"
        " after 31 states\n"
    )


def test_saturate(runner):
    p2 = dumps(build_pj(2)[0])
    result = invoke(runner, ["saturate", "-", "--ks", "1,2"], stdin=p2)
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["partition"] is not None
    result = invoke(runner, ["saturate", "-", "--ks", "1,3"], stdin=p2)
    assert result.exit_code == 1
    assert json.loads(result.output)["partition"] is None


def test_dual_uses_carried_realizer(runner):
    p2 = dumps(build_pj(2)[0])
    result = invoke(runner, ["dual", "-", "--table", "--csv"], stdin=p2)
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "k,d_k,delta_d_k"
    result = invoke(runner, ["dual", "-"], stdin=p2)
    assert result.exit_code == 0
    assert json.loads(result.output)["polyunsaturated"] is True


def test_dual_explicit_and_bad_realizer(runner):
    p = dumps(chain_poset(3))
    result = invoke(
        runner, ["dual", "-", "--realizer", "0,1,2/0,1,2", "--table"], stdin=p
    )
    assert result.exit_code == 0
    result = invoke(
        runner, ["dual", "-", "--realizer", "2,1,0/0,1,2"], stdin=p
    )
    assert result.exit_code == 2


def test_enumerate(runner):
    result = invoke(runner, ["enumerate", "--n", "3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["n"] == 3 for line in lines)


def test_feasible_exit_codes(runner):
    result = invoke(
        runner, ["feasible", "--n", "6", "--c", "4", "--a", "2"]
    )
    assert result.exit_code == 0 and "feasible" in result.output
    result = invoke(
        runner, ["feasible", "--n", "7", "--c", "4", "--a", "2"]
    )
    assert result.exit_code == 1 and "n_upper" in result.output
    result = invoke(runner, ["feasible", "--c", "5", "--a", "2"])
    assert result.exit_code == 1
    result = invoke(runner, ["feasible", "--n", "10", "--c", "5"])
    assert result.exit_code == 0
    result = invoke(
        runner,
        ["feasible", "--n", "10", "--a", "5", "--c", "3", "--dual"],
    )
    assert result.exit_code == 0

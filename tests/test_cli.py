"""CLI surface and the JSON/DOT interchange formats."""

import json
import time

import pytest
from click.testing import CliRunner

from polysat import (
    antichain_poset,
    build_pj,
    chain_poset,
    disjoint_union,
    kfamily,
)
from polysat.cli import main
from polysat.io import dumps, export_dot, loads


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
    ],
    ids=[
        "b-not-integers",
        "missing-file",
        "realizer-out-of-range",
        "n-not-integer",
        "cover-not-pair",
        "names-not-list",
    ],
)
def test_malformed_input_exits_2(runner, args, stdin):
    # Exit 1 is a negative verdict, so an input fault must never produce it.
    result = invoke(runner, args, stdin=stdin)
    assert result.exit_code == 2
    assert "error:" in result.output.lower()


def test_huge_n_is_refused_before_any_allocation(runner):
    start = time.perf_counter()
    result = invoke(runner, ["dk-table", "-"], stdin='{"n": 100000000}')
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

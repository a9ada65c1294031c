"""CLI surface and the JSON/DOT interchange formats."""

import contextlib
import hashlib
import itertools
import json
import sys
import time
from io import StringIO

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysat import (
    antichain_poset,
    build_pj,
    chain_poset,
    cli,
    disjoint_union,
    enumerate_posets,
    from_covers,
    from_delta,
    io,
    kfamily,
    realize_nca,
    saturation,
    width,
)
from polysat.cli import main
from polysat.graphdual import conjugate
from polysat.io import MAX_N, dumps, export_dot, loads
from oracles import comparability_graph, omega_k
from test_graphdual import dim2_samples


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, stdin=None):
    return runner.invoke(main, args, input=stdin, catch_exceptions=False)


def constructor_outputs():
    """Chains, antichains, towers, from_delta and realize_nca outputs, and
    a union with unnamed parts on both sides of a named one."""
    yield from (chain_poset(3), antichain_poset(2))
    yield chain_poset(2, names=["a", "b"])
    yield antichain_poset(2, names=["a", "b"])
    yield from (build_pj(j)[0] for j in range(1, 6))
    for b in ((2,), (3, 2), (2, 2, 1, 1), (4, 4, 2, 1), (6, 5, 4, 1, 1)):
        yield from_delta(b)
    for n, c, a in ((10, 5, 3), (8, 4, 3), (30, 6, 7)):
        yield realize_nca(n, c, a)
    yield disjoint_union(
        chain_poset(2), antichain_poset(2, names=["a", "b"]), chain_poset(2)
    )


def test_json_round_trip_is_byte_identical():
    for p in constructor_outputs():
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
    # Each element is labelled by its name, or by its index if it has none.
    for p in constructor_outputs():
        labels = [f'  v{x} [label="{p.name(x)}"];' for x in range(p.n)]
        assert export_dot(p).splitlines()[2 : 2 + p.n] == labels


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


@pytest.mark.parametrize(
    "covers", ["[[0, true]]", "[[0, 1.0]]", "[[0, 1, 2]]", "[[0]]", "[0]", '"x"']
)
def test_malformed_covers_exit_2(runner, covers):
    stdin = '{"n": 2, "covers": ' + covers + "}"
    result = invoke(runner, ["dk-table", "-"], stdin=stdin)
    assert result.exit_code == 2
    assert "covers must be a list of [x, y] integer pairs" in result.output


def int_list_per_item(seq, length=None):
    """The reader's list check as it tested each item in turn."""
    return (
        isinstance(seq, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in seq)
        and length in (None, len(seq))
    )


@settings(deadline=None, max_examples=300)
@given(st.lists(json_values, max_size=3) | json_values)
@example([])
@example([[0, 1], [1, 2]])
@example([[0, 1, 2], [2, 1, 0]])
@example([[0, True], [1, 2]])
@example([[0, 1], (1, 2)])
def test_row_check_refuses_what_the_per_item_check_refused(value):
    covers = isinstance(value, list) and all(
        int_list_per_item(c, 2) for c in value
    )
    realizer = (
        isinstance(value, list)
        and len(value) == 2
        and all(int_list_per_item(e) for e in value)
    )
    assert io._int_rows(value, length=2) == covers
    assert io._int_rows(value, count=2) == realizer


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


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_limit_must_be_a_positive_integer(runner, limit):
    p3 = dumps(build_pj(3)[0])
    for command in (["certify", "-"], ["saturate", "-", "--ks", "1,3"]):
        result = invoke(runner, [*command, "--limit-n", limit], stdin=p3)
        assert result.exit_code == 2 and result.stdout == ""
        assert result.stderr == (
            f"error: limit must be a positive integer, not {limit}\n"
        )


@pytest.mark.parametrize("j, n", [(6, 28), (7, 36), (8, 45)])
def test_certify_towers_past_n_24(runner, j, n):
    # Every pair of a tower is refuted, one above d_k + d_l.
    pj = invoke(runner, ["construct", "pj", "--j", str(j)]).output
    result = invoke(runner, ["certify", "-", "--limit-n", str(n)], stdin=pj)
    assert result.exit_code == 0
    pairs = json.loads(result.output)["pairs"]
    assert pairs and all(
        e["verdict"] == "no_joint_partition"
        and e["min_joint_norm"] == e["dk_plus_dl"] + 1
        for e in pairs
    )


def test_budget_stops_a_search_that_blows_up(runner):
    # n = 40 is within the limit, but the first pair's search has more
    # states than half a second allows.
    q = dumps(conjugate(from_delta((10, 9, 8, 6, 4, 2, 1))))
    args = ["certify", "-", "--limit-n", "40", "--budget-seconds", "0.5"]
    start = time.perf_counter()
    result = invoke(runner, args, stdin=q)
    assert time.perf_counter() - start < 5.0
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith(
        "error: orthogonal search for pair (1, 3) at slack 0 ran past its"
        " time budget after "
    )


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
        "error: orthogonal search for pair (1, 3) at slack 0 ran past its"
        " time budget after 1 states\n"
    )
    # A clock that advances one second per read: P_3's certificate expands
    # 28 states over three pairs, none with more than 12, so a budget of
    # 17 s runs out in the third pair's search at slack 1.
    clock = itertools.count()
    monkeypatch.setattr(
        saturation.time, "monotonic", lambda: float(next(clock))
    )
    result = invoke(
        runner, ["certify", "-", "--budget-seconds", "17"], stdin=p3
    )
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (
        "error: orthogonal search for pair (1, 4) at slack 1 ran past its"
        " time budget after 18 states\n"
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
    # Repeated ks are searched, and reported, once.
    result = invoke(runner, ["saturate", "-", "--ks", "3,1,1"], stdin=p2)
    assert result.exit_code == 1
    assert json.loads(result.output)["saturated_for"] == [1, 3]


def test_dual_uses_carried_realizer(runner):
    p2 = dumps(build_pj(2)[0])
    result = invoke(runner, ["dual", "-", "--table", "--csv"], stdin=p2)
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "k,d_k,delta_d_k"
    result = invoke(runner, ["dual", "-"], stdin=p2)
    assert result.exit_code == 0
    assert json.loads(result.output)["polyunsaturated"] is True


def test_dual_explicit_and_bad_realizer(runner):
    # A realizer enters only as the file's "realizer", in the file's labels.
    def code(args, obj):
        stdin = json.dumps(obj)
        return invoke(runner, ["dual", "-", *args], stdin=stdin).exit_code

    chain = {"n": 3, "covers": [[0, 1], [1, 2]]}
    identity = dict(chain, realizer=[[0, 1, 2], [0, 1, 2]])
    assert code(["--table"], identity) == code([], identity) == 0
    reversed_ext1 = dict(chain, realizer=[[2, 1, 0], [0, 1, 2]])
    assert code([], reversed_ext1) == 2
    # --table reads the input's own flow and never the realizer.
    assert code(["--table"], reversed_ext1) == 0
    relabelled = {"n": 2, "covers": [[1, 0]], "realizer": [[1, 0], [1, 0]]}
    assert code([], relabelled) == 0
    assert code([], dict(relabelled, realizer=[[0, 1], [0, 1]])) == 2
    assert code(["--realizer", "0/0"], identity) == 2


def standard_example(m):
    """S_m: a_i < b_j for all i != j.  It has dimension m, so for m >= 3
    it carries no 2-realizer."""
    pairs = [(i, m + j) for i in range(m) for j in range(m) if i != j]
    return from_covers(2 * m, pairs)[0]


def test_dual_says_what_the_realizer_lacks(runner):
    result = invoke(runner, ["dual", "-"], stdin=dumps(standard_example(3)))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == (
        'error: the poset carries no 2-realizer: its JSON has no "realizer"\n'
    )
    wrong = {"n": 3, "covers": [[0, 1]], "realizer": [[2, 1, 0], [0, 1, 2]]}
    result = invoke(runner, ["dual", "-"], stdin=json.dumps(wrong))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == "error: the realizer's order is not the poset's\n"


def test_dual_table_is_the_conjugates_dk_table(runner):
    # The conjugate's dk-table is the reference: its d_k are the input's e_k.
    for p in dim2_samples():
        for q in (p, conjugate(p)):
            expected = kfamily.d_sequence(conjugate(q))
            for csv in (False, True):
                args = ["dual", "-", "--table"] + ["--csv"] * csv
                result = invoke(runner, args, stdin=dumps(q))
                assert result.exit_code == 0
                lines = list(cli._dk_table_lines(expected, csv))
                assert result.output.splitlines() == lines


def test_dual_table_is_omega_k_of_every_poset(runner):
    # omega_k of the comparability graph needs no realizer: the standard
    # examples have none, and no enumerated class carries one.
    cases = [standard_example(3), standard_example(4)]
    cases += [p for n in range(1, 6) for p in enumerate_posets(n)]
    for p in cases:
        args = ["dual", "-", "--table", "--csv"]
        result = invoke(runner, args, stdin=dumps(p))
        assert result.exit_code == 0
        d = [int(line.split(",")[1]) for line in result.output.split()[1:]]
        g = comparability_graph(p)
        assert d == [omega_k(g, k) for k in range(1, len(d) + 1)]
        assert d[-1] == p.n and len(d) == width(p)


def test_enumerate(runner):
    result = invoke(runner, ["enumerate", "--n", "3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["n"] == 3 for line in lines)


# enumerate prints each class as its least natural labelling, in
# increasing order of it; these digests pin that output byte for byte.
ENUMERATE_SHA256 = {
    5: "ec23f02c899d81c2662d6901d4ffa1317a8be6136764a24a6fbd5cc15f32deaa",
    6: "60197febb2c4880abd92bdce43c1513172c9fcdf06ea8246a72ff67ff90a66b8",
}


@pytest.mark.parametrize("n", sorted(ENUMERATE_SHA256))
def test_enumerate_output_is_pinned(runner, n):
    result = invoke(runner, ["enumerate", "--n", str(n)])
    assert result.exit_code == 0
    digest = hashlib.sha256(result.output.encode()).hexdigest()
    assert digest == ENUMERATE_SHA256[n]


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
    result = invoke(runner, ["feasible", "--n", "9", "--c", "5"])
    assert result.exit_code == 1
    assert result.output == "infeasible: need n >= binom(c, 2)\n"
    result = invoke(runner, ["feasible", "--n", "1", "--c", "2"])
    assert result.exit_code == 1
    assert result.output == "infeasible: need n >= c\n"
    result = invoke(
        runner,
        ["feasible", "--n", "10", "--a", "5", "--c", "3", "--dual"],
    )
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "5", "--c", "4", "--dual"], "--dual needs --n, --a, and --c"),
        (["--n", "5"], "give --c plus --a and/or --n"),
    ],
    ids=["dual-without-a", "n-alone"],
)
def test_feasible_refusals(runner, args, message):
    result = invoke(runner, ["feasible", *args])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def _commands(spec=cli.GRAMMAR, path=()):
    """Each command path of the grammar, with its table entry."""
    for name, sub in spec["commands"].items():
        if "commands" in sub:
            yield from _commands(sub, (*path, name))
        else:
            yield (*path, name), sub


COMMANDS = dict(_commands())
OPTIONS = sorted(
    {name for spec in COMMANDS.values() for name, _ in spec["args"]} - {"input"}
)
VALUES = ["0", "3", "24", "-5", "1,2", "-1,2", "3,x", "x", "-", "-x", "nan",
          "inf", "-inf", "", "1.5", "0,1,2/0,1,2", "1,0/0,1", "dk-table"]
# Tokens only argparse may read: help, the end of options, options of
# other commands, --opt=value, abbreviations and single-dash options.
ODD = sorted(
    {"--help", "-h", "--", "-5", "--n=3", "--csv=1", "frobnicate"}
    | set(OPTIONS)
    | {name[:-1] for name in OPTIONS if len(name) > 3}
)


def parsed(argv):
    """vars(parse_args(argv)), quietly, or None where argparse exits."""
    quiet = StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        try:
            return vars(cli._parser("polysat").parse_args(argv))
        except SystemExit:
            return None


def same(scanned, namespace):
    # NaN is a value --budget-seconds takes, and differs from itself.
    return scanned.keys() == namespace.keys() and all(
        a == b or a != a and b != b
        for a, b in zip(scanned.values(), map(namespace.get, scanned))
    )


@st.composite
def argvs(draw):
    """Command lines of the grammar's words: mostly one command with its
    own options and values, some cut short or with odd tokens."""
    path, spec = draw(st.sampled_from(sorted(COMMANDS.items())))
    own = st.sampled_from([n for n, _ in spec["args"] if n != "input"])
    value = st.sampled_from(VALUES) | st.integers(-2, 40).map(str)
    token = own | value | st.sampled_from(ODD)
    chunks = draw(st.lists(st.tuples(own, value) | st.tuples(token), max_size=6))
    argv = [*path, *itertools.chain.from_iterable(chunks)]
    if draw(st.integers(0, 5)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@settings(deadline=None, max_examples=500)
@given(argvs())
@example(["certify", "-", "--budget-seconds", "nan"])
@example(["dual", "in.json", "--table", "--csv", "--csv"])
@example(["feasible", "--n", "3", "--n", "4", "--dual"])
@example(["construct", "pj", "--j", "3", "extra"])
@example(["dk-table", "-", "dk-table"])
def test_scan_reads_what_argparse_reads(argv):
    scanned = cli._scan(argv)
    if scanned is not None:
        namespace = parsed(argv)
        assert namespace is not None and same(scanned, namespace)


# Command lines as the README, CI and the benchmark's workloads write
# them; each must take the scan, not argparse.
WELL_FORMED = [
    "construct pj --j 2",
    "construct pj --j 61 --dot",
    "construct delta --b 3,3,2,1 --dot",
    "construct nca --n 2000 --c 10 --a 250",
    "construct nca --n 10 --c 5 --a 3 --dot",
    "dk-table - --csv",
    "dk-table p5.json",
    "certify -",
    "certify - --limit-n 24",
    "certify p5.json --limit-n 24",
    "saturate - --ks 1,2",
    "saturate p5.json --ks 1,2 --limit-n 24",
    "dual - --table",
    "dual - --table --csv",
    "dual p5.json --table",
    "dual - --limit-n 24 --budget-seconds 10",
    "enumerate --n 4",
    "feasible --n 7 --c 4 --a 2",
    "feasible --n 10 --a 5 --c 3 --dual",
]


@pytest.mark.parametrize("line", WELL_FORMED)
def test_well_formed_commands_take_the_scan(line):
    scanned = cli._scan(line.split())
    assert scanned is not None and same(scanned, parsed(line.split()))


# sha256 of each --help page, and each usage error's stderr, as the
# hand-built argparse parser printed them at 80 columns; the parser built
# from GRAMMAR must print the same bytes.
HELP_SHA256 = {
    "": "af2596a0339af48d72aedf8d48bbb1b46dc77f1fa848fbd91f2f5bf507dc8de1",
    "construct": "bbf4d9f384cbf18f9fb468e2e6239d6de826d858f7c9c3acc8c645183b8afa06",
    "dk-table": "53c60d940833564c120f759ecd87bdfed1d1f555d5e8068f267d6d5be14da6be",
    "certify": "1ec6bd7873e579b6072e089553ac6a6c81f4f2ff9f353ae8b5fcfa906305f123",
    "saturate": "e385b1d84fb8d5838a21ff3579cd90d18ac383e7b538620bc3cb32d42990639d",
    "dual": "3bee9a93d694d9e35160f1de5cf7d77898c2556ecc3847ffb19b7ef7752f2919",
    "enumerate": "71be66826710fa0befbd7d6672603bbd08d7ef8f4079910450c88042bf960854",
    "feasible": "b874ac70bf161d87b8a7de97be051eb5d7ea0f994d3fe9f158db62f87fc96187",
    "construct pj": "bc225ed25ea7466e68f916435647b531e149041a0821a2ff2a074f5c74e77c49",
    "construct delta": "83cd0d715f5420f9189582818c0cc1f325f2891eb0f1a2829651b6bd05ddd421",
    "construct nca": "62dacd3288eb402a010f9de26662c902c74637b12bcc081ee2198779d1ead0a5",
}
TOP = "usage: polysat [--help] COMMAND ...\npolysat: error: "
USAGE_ERRORS = {
    "": TOP + "the following arguments are required: COMMAND\n",
    "-h": TOP + "the following arguments are required: COMMAND\n",
    "frobnicate": TOP + "argument COMMAND: invalid choice: 'frobnicate'"
    " (choose from 'construct', 'dk-table', 'certify', 'saturate', 'dual',"
    " 'enumerate', 'feasible')\n",
    "dk-table --cs": TOP + "unrecognized arguments: --cs\n",
    "certify -h": TOP + "unrecognized arguments: -h\n",
    "construct": "usage: polysat construct [--help] COMMAND ...\n"
    "polysat construct: error: the following arguments are required:"
    " COMMAND\n",
    "construct pj": "usage: polysat construct pj [--help] --j J [--dot]\n"
    "polysat construct pj: error: the following arguments are required:"
    " --j\n",
    "construct delta --b 3,x": "usage: polysat construct delta [--help]"
    " --b B [--dot]\npolysat construct delta: error: argument --b:"
    " expected comma-separated integers\n",
    "dual - --realizer 0/0": TOP + "unrecognized arguments: --realizer 0/0\n",
    "dk-table --csv=1": "usage: polysat dk-table [--help] [--csv] [input]\n"
    "polysat dk-table: error: argument --csv: ignored explicit argument"
    " '1'\n",
    "certify --limit-n": "usage: polysat certify [--help] [--limit-n LIMIT_N]"
    " [--budget-seconds SECONDS]\n                       [input]\n"
    "polysat certify: error: argument --limit-n: expected one argument\n",
    "enumerate --n x": "usage: polysat enumerate [--help] --n N\n"
    "polysat enumerate: error: argument --n: invalid int value: 'x'\n",
}
argparse_wording = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="pinned as argparse 3.10-3.11 words it"
)


@argparse_wording
@pytest.mark.parametrize("line", sorted(HELP_SHA256))
def test_help_pages_are_pinned(runner, line):
    args = [*line.split(), "--help"]
    result = runner.invoke(main, args, env={"COLUMNS": "80"})
    assert result.exit_code == 0 and result.stderr == ""
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == HELP_SHA256[line]


@argparse_wording
@pytest.mark.parametrize("line", sorted(USAGE_ERRORS))
def test_usage_errors_are_pinned(runner, line):
    result = runner.invoke(main, line.split(), env={"COLUMNS": "80"})
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr == USAGE_ERRORS[line]

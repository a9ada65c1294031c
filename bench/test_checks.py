"""Tests of the benchmark's references and checkers.

    python3 -m pytest -q bench

The references must agree with brute force on tiny posets, and every
checker must accept polysat's real output and flag a corrupted copy.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from click.testing import CliRunner  # noqa: E402

import checks  # noqa: E402
from reference import (  # noqa: E402
    RefPoset,
    admissible_sequences,
    antichain_union_bruteforce,
    feasible_nca,
    tower_delta,
)
from workloads import random_rows  # noqa: E402


def tiny_posets(count=40, seed=2024):
    rng = random.Random(seed)
    return [random_rows(rng, rng.randint(1, 7), rng.choice((0.2, 0.4, 0.6))) for _ in range(count)]


def polysat(*args, input=None):
    from polysat import cli

    result = CliRunner().invoke(cli.main, list(args), input=input)
    return result.output, result.exit_code


def test_flow_reference_matches_bruteforce_antichain_unions():
    for up in tiny_posets():
        ref = RefPoset.from_rows(up)
        for k in range(1, ref.height + 1):
            assert ref.dk(k) == antichain_union_bruteforce(ref.n, ref.lt, k), up


def test_feasibility_conditions_match_admissible_sequences():
    for c in range(3, 8):
        for a in range(1, 9):
            sums = {sum(b) for b in admissible_sequences(c, a)}
            for n in range(1, 45):
                assert (not feasible_nca(n, c, a)) == (n in sums), (n, c, a)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_tower_delta_and_dk_table(j):
    text, code = polysat("construct", "pj", "--j", str(j))
    assert code == 0
    ref = RefPoset.from_json(text)
    table, code = polysat("dk-table", "-", "--csv", input=text)
    assert code == 0
    assert checks.dk_table(table, ref, tower_delta(j)) is None
    lines = table.splitlines()
    k, d, step = lines[2].split(",")
    lines[2] = f"{k},{int(d) + 1},{step}"
    assert checks.dk_table("\n".join(lines), ref) is not None
    assert checks.dk_table(table, ref, tower_delta(j + 1)) is not None


def test_dual_table_is_chain_unions_of_the_input():
    text, _ = polysat("construct", "delta", "--b", "4,3,1,1")
    ref = RefPoset.from_json(text)
    table, code = polysat("dual", "-", "--table", "--csv", input=text)
    assert code == 0 and checks.dual_table(table, ref) is None
    assert checks.dual_table(table.replace("\n2,6,", "\n2,7,"), ref) is not None


def _random_certify_output():
    from polysat import io, poset

    rng = random.Random(7)
    while True:
        up = random_rows(rng, 10, 0.35)
        if RefPoset.from_rows(up).height >= 5:
            break
    text = io.dumps(poset.Poset(len(up), up))
    out, code = polysat("certify", "-", input=text)
    return RefPoset.from_json(text), out, code


def test_certify_checker_flags_a_block_that_is_not_a_chain():
    ref, out, code = _random_certify_output()
    assert checks.certify(out, ref) is None
    assert code == checks.certify_exit(out)
    obj = json.loads(out)
    witness = next(e for e in obj["pairs"] if e["verdict"] == "witness")
    lt = ref.lt
    antichain = next([x, y] for x in range(ref.n) for y in range(x + 1, ref.n)
                     if (x, y) not in lt and (y, x) not in lt)
    rest = [[v for v in ch if v not in antichain] for ch in witness["chains"]]
    witness["chains"] = [ch for ch in rest if ch] + [antichain]
    assert "not a chain" in checks.certify(json.dumps(obj), ref)


def test_certify_checker_flags_a_witness_that_misses_the_floor():
    ref, out, _ = _random_certify_output()
    obj = json.loads(out)
    witness = next(e for e in obj["pairs"] if e["verdict"] == "witness")
    witness["chains"] = [[x] for x in range(ref.n)]
    assert "m_k+m_l" in checks.certify(json.dumps(obj), ref)


def test_certify_checker_flags_a_wrong_conclusion():
    text, _ = polysat("construct", "pj", "--j", "3")
    out, code = polysat("certify", "-", input=text)
    ref = RefPoset.from_json(text)
    assert code == 0 and checks.certify(out, ref, expect_poly=True) is None
    obj = json.loads(out)
    obj["pairs"][0]["min_joint_norm"] = obj["pairs"][0]["dk_plus_dl"]
    assert checks.certify(json.dumps(obj), ref) is not None


def test_saturate_checker():
    text, _ = polysat("construct", "delta", "--b", "4,3,2,1")
    ref = RefPoset.from_json(text)
    out, code = polysat("saturate", "-", "--ks", "1,2", input=text)
    assert code == 0 and checks.saturate(out, ref, 1) is None
    obj = json.loads(out)
    obj["partition"] = [[x] for x in range(ref.n)]
    assert checks.saturate(json.dumps(obj), ref, 1) is not None


def test_enumerate_checker_flags_a_duplicate_class():
    out, code = polysat("enumerate", "--n", "4")
    assert code == 0 and checks.enumerate_classes(out, 4) is None
    lines = out.splitlines()
    lines[3] = lines[5]
    assert "isomorphic" in checks.enumerate_classes("\n".join(lines), 4)
    assert "classes" in checks.enumerate_classes("\n".join(lines[:-1]), 4)


def test_construct_and_feasible_checkers():
    out, _ = polysat("construct", "nca", "--n", "10", "--c", "4", "--a", "3")
    assert checks.construct(out, 10, 4, 3) is None
    assert checks.construct(out, 10, 4, 4) is not None
    dot, _ = polysat("construct", "pj", "--j", "2", "--dot")
    assert checks.construct(dot, 6, 4, 2, dot=True) is None
    out, code = polysat("feasible", "--n", "7", "--c", "4", "--a", "2")
    assert checks.feasible(out, code, 7, 4, 2) is None
    assert checks.feasible(out, 0, 7, 4, 2) is not None

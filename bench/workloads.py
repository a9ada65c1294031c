"""The three workloads: their inputs, made from the seed, and their operations.

Making a workload has two steps.  `plan` draws everything random from the
seed with the benchmark's own code: difference sequences, relation rows
of random posets (selected by n, height and width only) and command
arguments.  `build` turns a plan into JSON input files with polysat's own
constructors and `io`; only `build` is timed as set-up.  `operations` then
lists the commands of one pass, each with the check of its output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checks
from reference import RefPoset, admissible_sequences, feasible_nca, tower_delta

# An input file's stdin marker: the step reads the previous step's stdout.
PIPE = "|"


@dataclass(frozen=True)
class Op:
    """One user command: one process, or a pipe of processes run one after
    the other.  check(outs, codes) returns None or the first fault."""

    label: str
    steps: tuple  # ((argv, stdin), ...) with stdin None, a file name or PIPE
    check: Callable


@dataclass(frozen=True)
class Input:
    """A poset to be written as `name`, built by `kind` from `arg`."""

    name: str
    kind: str  # "pj", "delta", "conjugate" (of from_delta(arg)) or "rows"
    arg: tuple


# ----------------------------------------------------------------------
# Random posets drawn and selected with the benchmark's own code.


def random_rows(rng, n, prob):
    """Relation rows of a random order in topological indexing: each pair
    x < y is related with probability prob, then closed transitively."""
    up = [0] * n
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < prob:
                up[x] |= 1 << y
    for x in range(n - 1, -1, -1):
        row = up[x]
        for y in range(x + 1, n):
            if row >> y & 1:
                row |= up[y]
        up[x] = row
    return up


def draw_rows(rng, n, prob, height=None, min_height=None, width=None):
    """Draw random orders until one has the requested structure."""
    while True:
        up = random_rows(rng, n, prob)
        ref = RefPoset.from_rows(up)
        if height is not None and ref.height != height:
            continue
        if min_height is not None and ref.height < min_height:
            continue
        if width is not None and ref.width != width:
            continue
        return tuple(up)


def draw_delta(rng, c, widths, n_range):
    """A random admissible difference sequence of length c with first
    entry in widths and sum in n_range."""
    while True:
        a = rng.choice(widths)
        seqs = [b for b in admissible_sequences(c, a) if sum(b) in n_range]
        if seqs:
            return rng.choice(seqs)


# ----------------------------------------------------------------------
# Plans.  Why each workload exists is in README.md and BENCHMARK.json.


# A workload's median operation should not hinge on the seed, so each one
# holds a majority of operations of one steady kind: more of them than of
# all other kinds together, the seeded random posets included.


def plan_dseq_tall(rng):
    inputs = [Input("pj6.json", "pj", (6,)), Input("pj7.json", "pj", (7,))]
    for i in range(6):
        b = draw_delta(rng, 8, range(6, 13), range(28, 48))
        inputs.append(Input(f"delta{i}.json", "delta", b))
    # Height 9 costs about as much as P_7, and more as the width grows.
    b = draw_delta(rng, 9, range(7, 10), range(36, 48))
    inputs.append(Input("delta6.json", "delta", b))
    # n = 24: the d-sequence cost of a random poset has a heavy tail.  At
    # n = 30 one draw in forty takes 10 s, at n = 26 one in twenty takes
    # 2 s; either swamps a pass.
    for i in range(2):
        up = draw_rows(rng, 24, 0.3, min_height=10)
        inputs.append(Input(f"random{i}.json", "rows", up))
    return {"inputs": inputs}


# (n, height, width) of the random certify instances.  Fixing the
# structure keeps the DP cost of one seed close to that of another.
CERTIFY_RANDOM = ((14, 5, 5), (15, 6, 4))
# Wide, short conjugates of from_delta outputs (n = 17); all their pairs
# have witnesses, found by the DP.  Fixed, so that no seed draws one of the
# conjugates that take tens of seconds.
CERTIFY_CONJUGATES = ((5, 5, 3, 2, 1, 1), (6, 5, 4, 1, 1))


def plan_certify_pairs(rng):
    inputs = [Input("pj5.json", "pj", (5,))]
    b = draw_delta(rng, 7, range(5, 9), range(22, 25))
    inputs.append(Input("delta7.json", "delta", b))
    for i in range(7):
        b = draw_delta(rng, 6, range(4, 9), range(16, 25))
        inputs.append(Input(f"delta6-{i}.json", "delta", b))
    for i, b in enumerate(CERTIFY_CONJUGATES):
        inputs.append(Input(f"conj{i}.json", "conjugate", b))
    for i, (n, h, w) in enumerate(CERTIFY_RANDOM):
        up = draw_rows(rng, n, 0.3, height=h, width=w)
        inputs.append(Input(f"random{i}.json", "rows", up))
    return {"inputs": inputs}


def plan_cli_session(rng):
    deltas = [draw_delta(rng, c, range(c - 2, 7), range(1, 17)) for c in (4, 5, 5, 6)]
    inputs = [Input("pj3.json", "pj", (3,))]
    inputs += [Input(f"delta{i}.json", "delta", b) for i, b in enumerate(deltas)]
    for i, n in enumerate((11, 13)):
        inputs.append(Input(f"random{i}.json", "rows", draw_rows(rng, n, 0.3)))
    nca = []
    while len(nca) < 3:
        triple = (rng.randint(6, 20), rng.randint(4, 6), rng.randint(2, 6))
        if not feasible_nca(*triple):
            nca.append(triple)
    grid = [(rng.randint(1, 30), rng.randint(3, 7), rng.randint(1, 8)) for _ in range(10)]
    extra_deltas = [draw_delta(rng, c, range(c - 2, 7), range(1, 21)) for c in (3, 5, 6)]
    return {"inputs": inputs, "nca": nca, "grid": grid, "deltas": extra_deltas}


PLANS = {
    "dseq-tall": plan_dseq_tall,
    "certify-pairs": plan_certify_pairs,
    "cli-session": plan_cli_session,
}


def plan(workload, seed):
    return PLANS[workload](random.Random(f"{workload}:{seed}"))


# ----------------------------------------------------------------------
# Building the input files with polysat (the timed set-up).


def build(plan_obj):
    """{file name: JSON text} for every input of the plan."""
    from polysat import construct, graphdual, io, poset

    texts = {}
    for inp in plan_obj["inputs"]:
        if inp.kind == "pj":
            p = construct.build_pj(inp.arg[0])[0]
        elif inp.kind == "delta":
            p = construct.from_delta(inp.arg)
        elif inp.kind == "conjugate":
            p = graphdual.conjugate(construct.from_delta(inp.arg))
        else:
            p = poset.Poset(len(inp.arg), inp.arg)
        texts[inp.name] = io.dumps(p)
    return texts


# ----------------------------------------------------------------------
# Operations of one pass.


def _codes(codes, want):
    if list(codes) != list(want):
        return f"exit codes {list(codes)} != {list(want)}"
    return None


def _one(argv, stdin=None):
    return ((tuple(argv), stdin),)


def _expected_delta(inp):
    if inp.kind == "pj":
        return tower_delta(inp.arg[0])
    if inp.kind == "delta":
        return inp.arg
    return None


def _dk_table_op(inp, texts, refs):
    text = texts[inp.name]
    delta = _expected_delta(inp)

    def check(outs, codes):
        return _codes(codes, [0]) or checks.dk_table(outs[0], refs(text), delta)

    return Op(f"dk-table {inp.name}", _one(["dk-table", inp.name, "--csv"]), check)


def _certify_check(ref_text, refs, expect_poly, pipe=False):
    def check(outs, codes):
        text = outs[0] if pipe else ref_text
        err = checks.certify(outs[-1], refs(text), expect_poly)
        want = [0] * (len(outs) - 1) + [checks.certify_exit(outs[-1])]
        return err or _codes(codes, want)

    return check


def ops_dseq_tall(plan_obj, texts, refs):
    return [_dk_table_op(inp, texts, refs) for inp in plan_obj["inputs"]]


def ops_certify_pairs(plan_obj, texts, refs):
    ops = []
    for inp in plan_obj["inputs"]:
        expect = True if inp.kind in ("pj", "delta") else None
        check = _certify_check(texts[inp.name], refs, expect)
        argv = ["certify", inp.name, "--limit-n", "24"]
        ops.append(Op(f"certify {inp.name}", _one(argv), check))
    return ops


def _construct_check(n, h, w, dot):
    def check(outs, codes):
        return _codes(codes, [0]) or checks.construct(outs[0], n, h, w, dot)

    return check


def ops_cli_session(plan_obj, texts, refs):
    ops = []
    for j in (1, 2, 3, 4):
        for dot in (False, True) if j in (2, 3) else (False,):
            argv = ["construct", "pj", "--j", str(j)] + (["--dot"] if dot else [])
            check = _construct_check(math.comb(j + 2, 2), j + 2, j, dot)
            ops.append(Op(" ".join(argv), _one(argv), check))
    for i, b in enumerate(plan_obj["deltas"]):
        dot = i == 0
        argv = ["construct", "delta", "--b", ",".join(map(str, b))] + (["--dot"] if dot else [])
        ops.append(Op(" ".join(argv), _one(argv), _construct_check(sum(b), len(b), b[0], dot)))
    for i, (n, c, a) in enumerate(plan_obj["nca"]):
        dot = i == 0
        argv = ["construct", "nca", "--n", str(n), "--c", str(c), "--a", str(a)]
        argv += ["--dot"] if dot else []
        ops.append(Op(" ".join(argv), _one(argv), _construct_check(n, c, a, dot)))
    for n, c, a in plan_obj["grid"]:
        argv = ["feasible", "--n", str(n), "--c", str(c), "--a", str(a)]

        def check(outs, codes, n=n, c=c, a=a):
            return checks.feasible(outs[0], codes[0], n, c, a)

        ops.append(Op(" ".join(argv), _one(argv), check))
    for j in (1, 2, 3, 4):
        steps = ((("construct", "pj", "--j", str(j)), None), (("certify", "-"), PIPE))
        ops.append(Op(f"construct pj --j {j} | certify -", steps,
                      _certify_check(None, refs, True, pipe=True)))
    files = plan_obj["inputs"]
    for inp in files:
        ops.append(_dk_table_op(inp, texts, refs))
    for inp in files:
        text = texts[inp.name]
        for k in (1, 2):
            argv = ["saturate", inp.name, "--ks", f"{k},{k + 1}"]

            def check(outs, codes, text=text, k=k):
                return _codes(codes, [0]) or checks.saturate(outs[0], refs(text), k)

            ops.append(Op(" ".join(argv), _one(argv), check))
    for inp in files:
        if inp.kind not in ("pj", "delta"):
            continue
        text = texts[inp.name]

        def check(outs, codes, text=text):
            return _codes(codes, [0]) or checks.dual_table(outs[0], refs(text))

        ops.append(Op(f"dual - --table < {inp.name}",
                      _one(["dual", "-", "--table", "--csv"], inp.name), check))
    for n in (5, 6):

        def check(outs, codes, n=n):
            return _codes(codes, [0]) or checks.enumerate_classes(outs[0], n)

        ops.append(Op(f"enumerate --n {n}", _one(["enumerate", "--n", str(n)]), check))
    return ops


OPERATIONS = {
    "dseq-tall": ops_dseq_tall,
    "certify-pairs": ops_certify_pairs,
    "cli-session": ops_cli_session,
}


def operations(workload, plan_obj, texts, refs):
    return OPERATIONS[workload](plan_obj, texts, refs)

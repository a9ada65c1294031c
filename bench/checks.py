"""Checkers for polysat's command outputs.

Each checker takes the text a command printed and the facts it must
agree with, computed in `reference`, and returns None when the output is
right or a one-line description of the first fault.
"""

from __future__ import annotations

import json
import warnings
from collections import defaultdict

import networkx as nx

from reference import RefPoset, feasible_nca


def _csv_rows(text):
    lines = text.splitlines()
    if not lines or lines[0] != "k,d_k,delta_d_k":
        return None
    return [tuple(int(v) for v in line.split(",")) for line in lines[1:]]


def dk_table(text, ref, delta=None):
    """`dk-table --csv`: one row per k = 1..height with d_k and its step."""
    rows = _csv_rows(text)
    if rows is None:
        return "missing CSV header"
    if [r[0] for r in rows] != list(range(1, ref.height + 1)):
        return f"rows are not k = 1..{ref.height}"
    got = tuple(r[1] for r in rows)
    if got != ref.d:
        return f"d sequence {got} != reference {ref.d}"
    steps = tuple(b - a for a, b in zip((0,) + got, got))
    if tuple(r[2] for r in rows) != steps:
        return "delta column is not the step of d_k"
    if delta is not None and steps != tuple(delta):
        return f"delta {steps} != expected {tuple(delta)}"
    return None


def dual_table(text, ref):
    """`dual --table --csv`: d_k of the conjugate equals e_k of the input."""
    rows = _csv_rows(text)
    if rows is None:
        return "missing CSV header"
    if [r[0] for r in rows] != list(range(1, ref.width + 1)):
        return f"rows are not k = 1..{ref.width}"
    for k, d, _ in rows:
        if d != ref.ek(k):
            return f"conjugate d_{k} = {d} != e_{k} = {ref.ek(k)}"
    return None


def _norm(blocks, k):
    return sum(min(k, len(b)) for b in blocks)


def certify(text, ref, expect_poly=None):
    """`certify`: every nonadjacent pair k < l < height has a checked
    verdict, and the conclusion follows from the verdicts."""
    obj = json.loads(text)
    c = ref.height
    if obj["height"] != c:
        return f"height {obj['height']} != {c}"
    want = [(k, l) for k in range(1, c - 2) for l in range(k + 2, c)]
    got = [(e["k"], e["l"]) for e in obj["pairs"]]
    if got != want:
        return f"pairs {got} != {want}"
    all_none = True
    for e in obj["pairs"]:
        k, l = e["k"], e["l"]
        floor = ref.dk(k) + ref.dk(l)
        if e["verdict"] == "witness":
            all_none = False
            err = ref.chain_partition_error(e["chains"])
            if err:
                return f"({k},{l}) witness: {err}"
            norm = _norm(e["chains"], k) + _norm(e["chains"], l)
            if norm != floor:
                return f"({k},{l}) witness has m_k+m_l={norm} != {floor}"
        elif e["verdict"] == "no_joint_partition":
            if e["dk_plus_dl"] != floor:
                return f"({k},{l}) dk_plus_dl {e['dk_plus_dl']} != {floor}"
            if not e["min_joint_norm"] > floor:
                return f"({k},{l}) min_joint_norm {e['min_joint_norm']} <= {floor}"
        else:
            return f"({k},{l}) unknown verdict {e['verdict']!r}"
    if obj["polyunsaturated"] != all_none:
        return "conclusion does not follow from the pair verdicts"
    if expect_poly is not None and obj["polyunsaturated"] != expect_poly:
        return f"polyunsaturated is {obj['polyunsaturated']}, expected {expect_poly}"
    return None


def certify_exit(text):
    """Exit code `certify` owes its own verdict: 0 positive, 1 negative."""
    return 0 if json.loads(text)["polyunsaturated"] else 1


def saturate(text, ref, k):
    """`saturate --ks k,k+1`: a partition both k- and (k+1)-saturated."""
    obj = json.loads(text)
    if obj["saturated_for"] != [k, k + 1]:
        return f"saturated_for {obj['saturated_for']} != {[k, k + 1]}"
    blocks = obj["partition"]
    if blocks is None:
        return "no partition, but Greene-Kleitman guarantees one"
    err = ref.chain_partition_error(blocks)
    if err:
        return err
    for kk in (k, k + 1):
        if _norm(blocks, kk) != ref.dk(kk):
            return f"m_{kk} = {_norm(blocks, kk)} != d_{kk} = {ref.dk(kk)}"
    return None


def construct(text, n, height, width, dot=False):
    """`construct`: the output has the requested size, height and width."""
    ref = RefPoset.from_dot(text) if dot else RefPoset.from_json(text)
    got = (ref.n, ref.height, ref.width)
    if got != (n, height, width):
        return f"(n, height, width) = {got} != {(n, height, width)}"
    return None


def feasible(text, code, n, c, a):
    """`feasible --n --c --a`: verdict and exit code match the paper."""
    failed = feasible_nca(n, c, a)
    want = "feasible" if not failed else "infeasible: " + ", ".join(failed)
    if text.strip() != want:
        return f"printed {text.strip()!r}, expected {want!r}"
    if code != (1 if failed else 0):
        return f"exit {code} for a {'negative' if failed else 'positive'} verdict"
    return None


# Number of isomorphism classes of n-element posets (OEIS A000112).
POSET_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def enumerate_classes(text, n):
    """`enumerate --n`: A000112(n) valid, pairwise non-isomorphic posets."""
    refs = []
    for line in text.splitlines():
        ref = RefPoset.from_json(line)
        if ref.n != n:
            return f"a class has n={ref.n}"
        refs.append(ref)
    if len(refs) != POSET_CLASSES[n]:
        return f"{len(refs)} classes, expected {POSET_CLASSES[n]}"
    buckets = defaultdict(list)
    for ref in refs:
        g = ref.closure.copy()
        for x in g:
            g.nodes[x]["deg"] = f"{g.in_degree(x)}/{g.out_degree(x)}"
        with warnings.catch_warnings():
            # networkx 3.5 warns that directed hashes changed; only equality
            # within this run matters here.
            warnings.simplefilter("ignore", UserWarning)
            key = nx.weisfeiler_lehman_graph_hash(g, node_attr="deg")
        for other in buckets[key]:
            if nx.is_isomorphic(g, other):
                return "two printed classes are isomorphic"
        buckets[key].append(g)
    return None

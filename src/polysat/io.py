"""JSON interchange and DOT export for posets.

Canonical file: {"n": ..., "covers": [[x, y], ...], "names": [...]} with
covers the sorted transitive reduction.  The reader closes any acyclic
pair list, so hand-written files need not be reduced.
"""

from __future__ import annotations

import json

from .errors import BadParameters
from .poset import Realizer, cover_relations, from_covers, ranks

# Largest n the reader accepts.  A chain, whose relation is complete, is
# the costliest poset to build: the transitivity check in Poset touches
# every comparable pair with n-bit rows, so the build grows faster than
# n^2.  Reading a chain took 0.54 s at n = 1000, 2.2 s at n = 2000 and
# 14 s at n = 4000 (Python 3.11, one Xeon core); 2000 keeps the worst
# build near two seconds.
MAX_N = 2000


def check_size(n):
    """Refuse a poset of n elements above MAX_N, before it is built."""
    if n > MAX_N:
        raise BadParameters(f"n={n} exceeds the limit of {MAX_N}")


def poset_to_obj(p):
    obj = {"n": p.n, "covers": [list(c) for c in cover_relations(p)]}
    if p.names is not None:
        obj["names"] = list(p.names)
    if p.realizer is not None:
        obj["realizer"] = [list(p.realizer.ext1), list(p.realizer.ext2)]
    return obj


def _ints(seq, length=None):
    """True iff seq is a list of integers, of the given length if any."""
    return (
        isinstance(seq, list)
        and all(isinstance(x, int) and not isinstance(x, bool) for x in seq)
        and length in (None, len(seq))
    )


def poset_from_obj(obj):
    """Validate a decoded poset object and build the poset it describes."""
    if not (isinstance(obj, dict) and _ints([obj.get("n")])):
        raise BadParameters("malformed poset JSON: need an integer n")
    n = obj["n"]
    check_size(n)
    covers = obj.get("covers", [])
    names = obj.get("names")
    realizer = obj.get("realizer")
    if not (isinstance(covers, list) and all(_ints(c, 2) for c in covers)):
        raise BadParameters("covers must be a list of [x, y] integer pairs")
    if names is not None and not (
        isinstance(names, list)
        and len(names) == n
        and all(isinstance(x, str) for x in names)
    ):
        raise BadParameters("names must be a list of n strings")
    if realizer is not None:
        if not (
            isinstance(realizer, list)
            and len(realizer) == 2
            and all(_ints(e) for e in realizer)
        ):
            raise BadParameters("realizer must be two lists of integers")
        realizer = Realizer(*map(tuple, realizer))
    return from_covers(n, covers, names, realizer)[0]


def dumps(p):
    return json.dumps(poset_to_obj(p), separators=(", ", ": ")) + "\n"


def loads(text):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers with too many
        # digits; RecursionError comes from deeply nested arrays.
        raise BadParameters(f"invalid JSON: {exc}") from None
    return poset_from_obj(obj)


def export_dot(p):
    """DOT digraph of the cover relations, rank-aligned when ranked."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for x in range(p.n):
        label = p.name(x).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{x} [label="{label}"];')
    for x, y in cover_relations(p):
        lines.append(f"  v{x} -> v{y};")
    classes = ranks(p)
    if classes is not None:
        for cls in classes:
            row = "; ".join(f"v{x}" for x in sorted(cls))
            lines.append("  { rank=same; " + row + "; }")
    lines.append("}")
    return "\n".join(lines) + "\n"

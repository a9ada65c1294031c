"""JSON interchange and DOT export for posets.

Canonical file: {"n": ..., "covers": [[x, y], ...], "names": [...]} with
covers the sorted transitive reduction.  The reader closes any acyclic
pair list, so hand-written files need not be reduced.
"""

import json

from .errors import BadParameters
from .poset import Realizer, cover_relations, from_covers

# Largest n the reader accepts.  Building walks covers and takes ms; the
# flow sets the limit: dk-table took 7-9 s on a 2000-antichain and 11-13 s
# on a 2000-chain (Python 3.11, a loaded 2-core Xeon).
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


def _int_rows(rows, count=None, length=None):
    """True iff rows is a list of count lists of length ints; None is any."""
    if not (
        isinstance(rows, list)
        and count in (None, len(rows))
        and all(issubclass(t, list) for t in set(map(type, rows)))
        and (length is None or set(map(len, rows)) <= {length})
    ):
        return False
    kinds = {type(x) for row in rows for x in row}
    return all(issubclass(t, int) and t is not bool for t in kinds)


def poset_from_obj(obj):
    """Validate a decoded poset object and build the poset it describes."""
    if not (isinstance(obj, dict) and _int_rows([[obj.get("n")]])):
        raise BadParameters("malformed poset JSON: need an integer n")
    n = obj["n"]
    check_size(n)
    covers = obj.get("covers", [])
    names = obj.get("names")
    realizer = obj.get("realizer")
    if not _int_rows(covers, length=2):
        raise BadParameters("covers must be a list of [x, y] integer pairs")
    if names is not None and not (
        isinstance(names, list)
        and len(names) == n
        and all(isinstance(x, str) for x in names)
    ):
        raise BadParameters("names must be a list of n strings")
    if realizer is not None:
        if not _int_rows(realizer, count=2):
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
    # Only the construct commands export DOT, and they have loaded it.
    from .construct import ranks

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

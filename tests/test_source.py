"""Rules on the package source itself."""

import ast
import pathlib

import polysat


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise.
    found = []
    for path in sorted(pathlib.Path(polysat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# polysat.__all__ as it stood before code moved between modules; a move
# must leave the public names as they are.
PUBLIC = [
    "Chain", "ChainPartition", "DSequence", "DeltaSequence",
    "FeasibilityVerdict", "NoJointPartition", "PjLabels", "PolyunsatReport",
    "Poset", "Realizer", "Witness", "antichain_poset", "build_pj",
    "chain_poset", "ck_partition", "conjugate", "construct",
    "cover_relations", "d_sequence", "delta_sequence", "disjoint_union",
    "dk", "enumerate_posets", "errors", "feasible_ca", "feasible_dual_nac",
    "feasible_nc", "feasible_nca", "find_saturated", "from_covers",
    "from_delta", "graphdual", "height", "io", "is_k_saturated",
    "is_polyunsaturated", "is_strong_sperner", "kfamily", "lower_bounds",
    "max_kfamily", "min_joint_norm", "min_norm", "mk", "poset", "ranks",
    "realize_nca", "saturation", "sequence_for", "upper_bounds",
    "verify_realizer", "width",
]


def test_public_names_resolve_where_the_table_says():
    # A stale _ORIGIN entry would otherwise fail only on the name's first
    # use.
    assert polysat.__all__ == PUBLIC
    for name in polysat.__all__:
        value = getattr(polysat, name)
        if name in polysat._ORIGIN:
            assert value.__module__ == f"polysat.{polysat._ORIGIN[name]}"
        else:
            assert value.__name__ == f"polysat.{name}"

"""Exact tools for maximum k-families, saturated chain partitions, and
polyunsaturated posets of prescribed height, width, and cardinality.

The public names load on first use (PEP 562), so importing the package,
or one module of it, compiles only the modules that are used.
"""

import importlib

# Public name -> the module that defines it.
_ORIGIN = {
    name: module
    for module, names in {
        "construct": (
            "FeasibilityVerdict",
            "PjLabels",
            "antichain_poset",
            "build_pj",
            "chain_poset",
            "ck_partition",
            "disjoint_union",
            "feasible_ca",
            "feasible_dual_nac",
            "feasible_nc",
            "feasible_nca",
            "from_delta",
            "lower_bounds",
            "ranks",
            "realize_nca",
            "sequence_for",
            "upper_bounds",
        ),
        "graphdual": ("conjugate", "verify_realizer"),
        "kfamily": (
            "DeltaSequence",
            "DSequence",
            "d_sequence",
            "delta_sequence",
            "dk",
            "is_strong_sperner",
        ),
        "poset": (
            "Poset",
            "Realizer",
            "cover_relations",
            "enumerate_posets",
            "from_covers",
            "height",
            "width",
        ),
        "saturation": (
            "Chain",
            "ChainPartition",
            "NoJointPartition",
            "PolyunsatReport",
            "Witness",
            "find_saturated",
            "is_k_saturated",
            "is_polyunsaturated",
            "max_kfamily",
            "min_joint_norm",
            "min_norm",
            "mk",
        ),
    }.items()
    for name in names
}

# The public names and the modules, as an eager import of them all would
# list them.
__all__ = sorted({*_ORIGIN, *_ORIGIN.values(), "errors", "io"})
__version__ = "0.1.0"


def __getattr__(name):
    if name in _ORIGIN:
        module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
        value = globals()[name] = getattr(module, name)
        return value
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

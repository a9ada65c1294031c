"""Exact tools for maximum k-families, saturated chain partitions, and
polyunsaturated posets of prescribed height, width, and cardinality."""

from .construct import (
    FeasibilityVerdict,
    PjLabels,
    build_pj,
    ck_partition,
    feasible_ca,
    feasible_nc,
    feasible_nca,
    from_delta,
    lower_bounds,
    realize_nca,
    sequence_for,
    upper_bounds,
)
from .graphdual import (
    Graph,
    alpha_k,
    comparability_graph,
    complement,
    conjugate,
    feasible_dual_nac,
    is_co_polyunsaturated,
    omega_k,
    pj_realizer,
    verify_realizer,
)
from .kfamily import (
    DeltaSequence,
    DSequence,
    d_sequence,
    delta_sequence,
    dk,
    is_strong_sperner,
    max_kfamily,
)
from .poset import (
    Chain,
    Poset,
    Realizer,
    antichain_poset,
    chain_poset,
    cover_relations,
    disjoint_union,
    enumerate_posets,
    from_covers,
    height,
    induced,
    isomorphic,
    ranks,
    width,
)
from .saturation import (
    ChainPartition,
    NoJointPartition,
    PolyunsatReport,
    Witness,
    find_saturated,
    is_k_saturated,
    is_polyunsaturated,
    min_joint_norm,
    min_norm,
    mk,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

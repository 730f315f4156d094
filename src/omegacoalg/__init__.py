"""Final coalgebras of containers as omega-chain limits.

Depth-bounded approximation semantics, the unique unfold, bisimulation
witnesses and a bisimilarity decision procedure, and the indexed-container
generalization.
"""

from .container import (
    Container,
    PValue,
    enumerate_w,
    make_node,
    make_trunc,
    pmap,
    tree_equal,
    truncate,
    truncate_to,
)
from .chain import (
    Chain,
    Cone,
    LimitElement,
    check_compat,
    cone_to_map,
    iterate_cochain,
    map_to_cone,
    poly_limit_from,
    poly_limit_to,
    shift_back,
    shift_forward,
)
from .mtype import (
    Coalgebra,
    MElement,
    MorphismCandidate,
    approximate,
    approximate_all,
    into,
    out,
    out_coalgebra,
    unfold,
    uniqueness_probe,
    verify_morphism,
    w_chain,
)
from .bisim import (
    BisimWitness,
    Partition,
    bounded_bisim,
    coinduction_transfer,
    diagonal_bisim,
    divergence_depth,
    first_divergence_depth,
    minimize,
    partition_refine,
    verify_bisim,
    witness_from_partition,
)
from .indexed import (
    IndexedCoalgebra,
    IndexedContainer,
    SortedApproxTree,
    iapproximate,
    well_sorted,
    well_sorted_all,
)
from . import catalog

__all__ = [name for name in dir() if not name.startswith("_")]

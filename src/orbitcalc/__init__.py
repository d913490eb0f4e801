"""Partition calculus for nilpotent orbits of split classical groups."""

from .aparams import (
    AParameterShape,
    SelfDualType,
    Summand,
    dual_shape,
    npsi_partition,
    pair_type_of,
    parse_summands,
    parse_target,
    predicted_wavefront,
    split_by_signs,
)
from .duality import dual_partition, lie_algebra_dim, orbit_dim
from .partitions import (
    Classification,
    GroupType,
    Partition,
    add,
    classify,
    collapse,
    dominance_leq,
    enumerate_partitions,
    is_orthogonal,
    is_symplectic,
    parse_partition,
    partitions_of,
    transpose,
    union,
)
from .symbols import (
    Bipartition,
    Symbol,
    bipartition_leq,
    bipartition_of_symbol,
    family_key,
    is_special_symbol,
    normalize_symbol,
    parse_bipartition,
    partition_of_special_symbol,
    special_closure,
    specialize_sum,
    springer_bipartition,
    symbol_of,
)
from .waldspurger import PairType, XiVector, waldspurger, xi_vector

__version__ = "0.1.0"

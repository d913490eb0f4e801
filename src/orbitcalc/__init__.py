"""Partition calculus for nilpotent orbits of split classical groups.

The names of :mod:`~orbitcalc.aparams` and :mod:`~orbitcalc.symbols` are
resolved on first access (PEP 562), so ``import orbitcalc`` loads only the
modules that every command needs.
"""

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
from .waldspurger import PairType, XiVector, waldspurger, xi_vector

__version__ = "0.1.0"

# The deferred names, by the module that defines them.
_DEFERRED = dict.fromkeys(
    (
        "AParameterShape",
        "SelfDualType",
        "Summand",
        "dual_shape",
        "npsi_partition",
        "pair_type_of",
        "parse_summands",
        "parse_target",
        "predicted_wavefront",
        "split_by_signs",
    ),
    "aparams",
) | dict.fromkeys(
    (
        "Bipartition",
        "Symbol",
        "bipartition_leq",
        "bipartition_of_symbol",
        "family_key",
        "is_special_symbol",
        "normalize_symbol",
        "parse_bipartition",
        "partition_of_special_symbol",
        "special_closure",
        "specialize_sum",
        "springer_bipartition",
        "symbol_of",
    ),
    "symbols",
)

__all__ = [
    "Classification",
    "GroupType",
    "PairType",
    "Partition",
    "XiVector",
    "add",
    "classify",
    "collapse",
    "dominance_leq",
    "dual_partition",
    "enumerate_partitions",
    "is_orthogonal",
    "is_symplectic",
    "lie_algebra_dim",
    "orbit_dim",
    "parse_partition",
    "partitions_of",
    "transpose",
    "union",
    "waldspurger",
    "xi_vector",
    *_DEFERRED,
    "__version__",
]


def __getattr__(name: str) -> object:
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED})

"""Exact combinatorics of set partitions.

Counts and enumerates partitions through restricted-growth words, checks a
family of Bell-number identities both by closed form and by sweeping the
finite structures behind them, and exposes the block-size generating
polynomials with their classical specializations.
"""

from .errors import (
    ElementNotInGround,
    IndexOutOfRange,
    InvalidRGS,
    MalformedInput,
    NegativeIndex,
    NonContiguousGround,
    NonIntegerCoefficient,
    PreconditionViolated,
    SetpartError,
    SizeTooLarge,
    WeightVectorTooShort,
)
from .partitions import (
    RGS,
    SetPartition,
    block_containing,
    count_partitions,
    enumerate_partitions,
    from_rgs,
    to_rgs,
)
from .numbers import (
    a000262,
    bell,
    bell_alternating_sum,
    bell_binomial_sum,
    binomial,
    catalan,
    catalan_difference,
    catalan_partial_sum,
    derangement,
    factorial,
    singleton_identity_lhs,
    singleton_identity_rhs,
)
from .bellpoly import (
    BellPolynomial,
    Monomial,
    WeightVector,
    complete_bell_by_sum,
    partial_bell,
)
from .involutions import (
    SignedPair,
    build_singleton_free,
    classify_cd,
    enumerate_carrier,
    gather_singletons,
    gather_singletons_two,
    partner,
    pivot_of,
    split_singleton_free,
)
from .noncrossing import (
    count_cyclic_smirnov_noncrossing,
    count_noncrossing,
    count_prefix_smirnov_noncrossing,
    covering_reduction,
    enumerate_noncrossing,
    is_cyclic_smirnov,
    is_noncrossing,
)
from .verify import IDENTITIES, run_identity

__version__ = "0.1.0"

__all__ = [
    "BellPolynomial",
    "ElementNotInGround",
    "IDENTITIES",
    "IndexOutOfRange",
    "InvalidRGS",
    "MalformedInput",
    "Monomial",
    "NegativeIndex",
    "NonContiguousGround",
    "NonIntegerCoefficient",
    "PreconditionViolated",
    "RGS",
    "SetPartition",
    "SetpartError",
    "SignedPair",
    "SizeTooLarge",
    "WeightVector",
    "WeightVectorTooShort",
    "a000262",
    "bell",
    "bell_alternating_sum",
    "bell_binomial_sum",
    "binomial",
    "block_containing",
    "build_singleton_free",
    "catalan",
    "catalan_difference",
    "catalan_partial_sum",
    "classify_cd",
    "complete_bell_by_sum",
    "count_cyclic_smirnov_noncrossing",
    "count_noncrossing",
    "count_partitions",
    "count_prefix_smirnov_noncrossing",
    "covering_reduction",
    "derangement",
    "enumerate_carrier",
    "enumerate_noncrossing",
    "enumerate_partitions",
    "factorial",
    "from_rgs",
    "gather_singletons",
    "gather_singletons_two",
    "is_cyclic_smirnov",
    "is_noncrossing",
    "partial_bell",
    "partner",
    "pivot_of",
    "run_identity",
    "singleton_identity_lhs",
    "singleton_identity_rhs",
    "split_singleton_free",
    "to_rgs",
    "__version__",
]

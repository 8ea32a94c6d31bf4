"""Partition bijections, truncated multivariate q-series, and mechanical
verification of the identities they satisfy.

The library has five layers: plain and colored partitions with their
statistics, the named bijections between partition families, exact
truncated series arithmetic over integer coefficient boxes, a catalog of
verifiable identities, and a command-line front end.
"""

from .bijections import (
    CollisionGroup,
    ColorConjugatePair,
    HookMapImage,
    InvalidPair,
    NotDistinct,
    NotOddParts,
    bessenrodt,
    bessenrodt_inverse,
    collision_search,
    color_conjugate,
    color_conjugate_inverse,
    generalized_hook_map,
    modular_fill,
    modular_fill_inverse,
    mork,
    mork_inverse,
)
from .colored import ColoredPartition, ColoredPartitionError
from .partitions import (
    InvalidDiagram,
    ModularDiagram,
    NegativePart,
    NotSorted,
    Partition,
    PartitionError,
    enumerate_partitions,
    from_modular,
    partition_numbers,
    schmidt_weight,
    to_modular,
)
from .series import (
    INFINITY,
    CoefficientOverflow,
    DivergentInfiniteProduct,
    NonUnitConstantTerm,
    OutOfBox,
    SeriesError,
    TruncatedSeries,
)
from .verify import (
    IDENTITY_IDS,
    THEOREM_IDS,
    SuiteReport,
    UnboundedBox,
    VerificationReport,
    VerifyError,
    f_recurrence,
    lhs_series,
    rhs_series,
    run_suite,
    run_verifier,
    table_bessenrodt,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientOverflow",
    "CollisionGroup",
    "ColorConjugatePair",
    "ColoredPartition",
    "ColoredPartitionError",
    "DivergentInfiniteProduct",
    "HookMapImage",
    "IDENTITY_IDS",
    "INFINITY",
    "InvalidDiagram",
    "InvalidPair",
    "ModularDiagram",
    "NegativePart",
    "NonUnitConstantTerm",
    "NotDistinct",
    "NotOddParts",
    "NotSorted",
    "OutOfBox",
    "Partition",
    "PartitionError",
    "SeriesError",
    "SuiteReport",
    "THEOREM_IDS",
    "TruncatedSeries",
    "UnboundedBox",
    "VerificationReport",
    "VerifyError",
    "bessenrodt",
    "bessenrodt_inverse",
    "collision_search",
    "color_conjugate",
    "color_conjugate_inverse",
    "enumerate_partitions",
    "f_recurrence",
    "from_modular",
    "generalized_hook_map",
    "lhs_series",
    "modular_fill",
    "modular_fill_inverse",
    "mork",
    "mork_inverse",
    "partition_numbers",
    "rhs_series",
    "run_suite",
    "run_verifier",
    "schmidt_weight",
    "table_bessenrodt",
    "to_modular",
    "verify_identity",
]

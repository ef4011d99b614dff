"""Depth, projective dimension, Krull dimension, big height and (sequential)
Cohen-Macaulayness of monomial ideals, computed through Stanley-Reisner
combinatorics over finite prime fields, with an independent brute-force
Betti-number oracle for cross-validation.
"""

from .betti import BettiTable, hochster_betti_table, pd_oracle
from .complexes import SimplicialComplex, SquareFreeIdeal
from .covers import (
    PrimaryDecomposition,
    big_height,
    krull_dimension,
    minimal_primes,
)
from .errors import (
    BadSpecError,
    EmptyGraphError,
    FullSimplexError,
    MonidealError,
    NotAFaceError,
    OutOfRangeError,
    ParseError,
    TooLargeError,
    TooManyFacetsError,
    VoidComplexError,
    VoidOrIrrelevantError,
    ZeroOrUnitIdealError,
)
from .families import (
    FamilySpec,
    Graph,
    complete_graph,
    cycle_graph,
    edge_ideal,
    generate,
    is_simplicial_forest,
    path_graph,
    pruefer_tree,
)
from .homology import (
    PrimeField,
    is_cohen_macaulay,
    reduced_betti_numbers,
)
from .invariants import (
    VerificationReport,
    depth,
    is_sequentially_cm,
    projective_dimension,
    verify_main_theorem,
)
from .parsing import IdealSource, parse_ideal
from .polarization import (
    MonomialIdeal,
    PolarizationMap,
    big_height_general,
    pd_general,
    polarize,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "FamilySpec",
    "Graph",
    "IdealSource",
    "MonomialIdeal",
    "PolarizationMap",
    "PrimaryDecomposition",
    "PrimeField",
    "SimplicialComplex",
    "SquareFreeIdeal",
    "VerificationReport",
    "big_height",
    "big_height_general",
    "complete_graph",
    "cycle_graph",
    "depth",
    "edge_ideal",
    "generate",
    "hochster_betti_table",
    "is_cohen_macaulay",
    "is_sequentially_cm",
    "is_simplicial_forest",
    "krull_dimension",
    "minimal_primes",
    "parse_ideal",
    "path_graph",
    "pd_general",
    "pd_oracle",
    "polarize",
    "projective_dimension",
    "pruefer_tree",
    "reduced_betti_numbers",
    "verify_main_theorem",
    # errors
    "MonidealError",
    "VoidComplexError",
    "VoidOrIrrelevantError",
    "FullSimplexError",
    "NotAFaceError",
    "OutOfRangeError",
    "ZeroOrUnitIdealError",
    "TooLargeError",
    "TooManyFacetsError",
    "EmptyGraphError",
    "BadSpecError",
    "ParseError",
]

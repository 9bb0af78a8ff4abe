"""Fuzzy orders on finite sets: axioms, linear extensions, and certificates.

The package is organized around one immutable data model
(:class:`FuzzyRelation`) and five groups of operations:

* :mod:`fuzzorder.relation` -- the axioms of a fuzzy order, linearity,
  the extension ordering, incomparable pairs, and pointwise infima.
* :mod:`fuzzorder.extension` -- the single-pivot extension and the
  deterministic linearization loop with its pivot trace.
* :mod:`fuzzorder.preserving` -- linear extensions that preserve a
  prescribed grade, certifying families, and intersection verification.
* :mod:`fuzzorder.oracle` -- independent brute-force re-checks and a
  seeded random order generator for property testing.
* :mod:`fuzzorder.matrixio` / :mod:`fuzzorder.cli` -- CSV/JSON documents
  and the command-line front end.
"""

from .extension import (
    LinearizationResult,
    PivotStep,
    count_incomparable_entries,
    linearize,
    pivot_extend,
)
from .matrixio import ParseError, emit_matrix, load_matrix, parse_matrix, save_matrix
from .oracle import GeneratorSpec, brute_check_order, random_zadeh_order
from .preserving import (
    ClampResult,
    ExtensionFamily,
    FamilyMember,
    certifying_family,
    clamp_extend,
    verify_intersection,
)
from .relation import (
    AxiomReport,
    CarrierMismatchError,
    Element,
    EmptyFamilyError,
    FuzzyOrderError,
    FuzzyRelation,
    Pair,
    PreconditionError,
    Verdict,
    check_order,
    extends,
    incomparable_pairs,
    is_antisymmetric,
    is_linear,
    is_reflexive,
    is_transitive,
    pointwise_inf,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CarrierMismatchError",
    "ClampResult",
    "Element",
    "EmptyFamilyError",
    "ExtensionFamily",
    "FamilyMember",
    "FuzzyOrderError",
    "FuzzyRelation",
    "GeneratorSpec",
    "LinearizationResult",
    "Pair",
    "ParseError",
    "PivotStep",
    "PreconditionError",
    "Verdict",
    "brute_check_order",
    "certifying_family",
    "check_order",
    "clamp_extend",
    "count_incomparable_entries",
    "emit_matrix",
    "extends",
    "incomparable_pairs",
    "is_antisymmetric",
    "is_linear",
    "is_reflexive",
    "is_transitive",
    "linearize",
    "load_matrix",
    "parse_matrix",
    "pivot_extend",
    "pointwise_inf",
    "random_zadeh_order",
    "save_matrix",
    "verify_intersection",
]

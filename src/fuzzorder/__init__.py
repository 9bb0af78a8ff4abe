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

from . import extension, matrixio, oracle, preserving, relation
from .extension import *
from .matrixio import *
from .oracle import *
from .preserving import *
from .relation import *

__version__ = "0.1.0"

# Each module's ``__all__`` declares its public names; the package exports
# exactly those.
__all__ = sorted({
    *relation.__all__, *extension.__all__, *preserving.__all__,
    *oracle.__all__, *matrixio.__all__,
})

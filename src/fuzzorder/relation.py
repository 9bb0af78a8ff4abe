"""Fuzzy relations on finite labeled carriers, and the order axioms.

A fuzzy relation assigns each ordered pair of carrier elements a membership
grade in [0, 1].  The algebra here uses only comparison, minimum and maximum,
so every grade that appears in any result is bit-identical to some input
grade, 0, or 1.  Equality checks are therefore exact; there are no epsilon
tolerances anywhere in this package.  The one step that is not min/max is
the transitivity check's bit-packed reach over the 0/1 support (which pairs
x, z have a path x -> y -> z positive at both steps); it yields only a
boolean, never a grade.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "AxiomReport",
    "CarrierMismatchError",
    "Element",
    "EmptyFamilyError",
    "FuzzyOrderError",
    "FuzzyRelation",
    "Pair",
    "PreconditionError",
    "Verdict",
    "check_order",
    "extends",
    "incomparable_pairs",
    "is_antisymmetric",
    "is_linear",
    "is_reflexive",
    "is_transitive",
    "pointwise_inf",
]


class FuzzyOrderError(Exception):
    """Base class for domain errors raised by this package."""


class CarrierMismatchError(FuzzyOrderError):
    """Two relations that must share a carrier have different element lists."""


class EmptyFamilyError(FuzzyOrderError):
    """An operation over a family of relations received no members."""


class PreconditionError(FuzzyOrderError):
    """A named operation precondition does not hold.

    ``reason`` is a short machine-readable code such as ``"not-an-order"``,
    ``"equal-pivots"``, ``"r(b,a)>0"`` or ``"r(a,b)=0"``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class Element:
    """A carrier element: a label plus its fixed position in the carrier."""

    label: str
    index: int


class Pair(NamedTuple):
    first: Element
    second: Element


ElementLike = Union[Element, str, int]


@dataclass(frozen=True)
class Verdict:
    """A pass/fail answer together with the complete list of violations.

    ``passed`` is True exactly when ``witnesses`` is empty, so a Verdict can
    be used directly in boolean context.
    """

    passed: bool
    witnesses: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts with concrete counterexample witnesses.

    Witness lists are complete (every violation, row-major order), not
    first-found, so they can drive diagnostics as well as tests.
    """

    reflexive: bool
    antisymmetric: bool
    transitive: bool
    reflexivity_witnesses: tuple
    antisymmetry_witnesses: tuple
    transitivity_witnesses: tuple

    @property
    def is_order(self) -> bool:
        return self.reflexive and self.antisymmetric and self.transitive


# Far below the 131,072-character field limit of Python's CSV reader, so every
# label the constructor accepts parses back from CSV.
_MAX_LABEL_LENGTH = 1024


def _label_error(labels) -> tuple[int, str] | None:
    """The first label breaking the rule :class:`FuzzyRelation` states, as
    (index, reason), or None; the constructor and both file formats use it."""
    seen = set()
    for i, lbl in enumerate(labels):
        if not isinstance(lbl, str) or lbl == "":
            return i, f"element labels must be nonempty strings, got {lbl!r}"
        if len(lbl) > _MAX_LABEL_LENGTH:
            return i, (
                f"element labels must be at most {_MAX_LABEL_LENGTH} characters, "
                f"got one of {len(lbl)}"
            )
        if lbl != lbl.strip():
            return i, f"element labels must not start or end with whitespace, got {lbl!r}"
        if "\r" in lbl:
            return i, f"element labels must not contain a carriage return, got {lbl!r}"
        try:
            lbl.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which no file can hold
            return i, f"element labels must be valid UTF-8 text, got {lbl!r}"
        if lbl in seen:
            return i, f"element labels must be pairwise distinct, got duplicate {lbl!r}"
        seen.add(lbl)
    return None


def _real_grades(grades) -> np.ndarray:
    """``grades`` as an array, not copied if it is one; ValueError unless they
    are real numbers.  NumPy would drop an imaginary part (with a warning
    only) and read text with float(), which takes " 1" and non-ASCII digits,
    also from the elements of an object array."""
    grades = np.asarray(grades)
    if grades.dtype.kind in "cSUV" or (  # complex, bytes, text, structured
        grades.dtype.kind == "O"
        and any(isinstance(v, (str, bytes, complex, np.complexfloating)) for v in grades.flat)
    ):
        raise ValueError("grades must be real numbers")
    return grades


def _checked_grid(grid: np.ndarray, n: int) -> np.ndarray:
    """``grid``, a fresh float64 array, checked as the grid of n labels and
    with -0.0 made +0.0 in place; ValueError names the first rule broken."""
    if grid.shape != (n, n):
        raise ValueError(
            f"grid must be {n}x{n} to match the {n} labels, got shape {grid.shape}"
        )
    if not np.isfinite(grid).all():
        raise ValueError("grades must be finite (no NaN or infinity)")
    if (grid < 0.0).any() or (grid > 1.0).any():
        raise ValueError("grades must lie in the closed interval [0, 1]")
    grid += 0.0
    return grid


@dataclass(frozen=True, eq=False)
class FuzzyRelation:
    """An immutable fuzzy relation: ordered labels plus an n-by-n grade grid.

    Entry ``grid[i, j]`` is the grade of (labels[i], labels[j]).  Construction
    validates the carrier (nonempty, distinct labels of at most 1024
    characters of valid UTF-8 text with no leading or trailing whitespace,
    which CSV strips, and no carriage return, which CSV writes unquoted and
    universal newlines turn into a line feed) and the grid (real numbers,
    not complex ones or text, square, finite, every entry in [0, 1]) and
    keeps a read-only copy of the grid, -0.0 made +0.0.  A relation holds
    its labels, its read-only grid and the order verdict of its last check
    (see :func:`check_order`); it builds its label index and its
    :class:`Element` tuple on first use.  Operations never mutate a
    relation; one they derive shares only its input's labels tuple and owns
    the fresh array its grid was computed into.
    """

    labels: tuple[str, ...]
    grid: np.ndarray

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) == 0:
            raise ValueError("carrier must be nonempty")
        error = _label_error(labels)
        if error is not None:
            raise ValueError(error[1])
        # np.asarray builds a fresh array from a list or tuple; any other
        # input may share the caller's memory, so that one is copied.
        grades = _real_grades(self.grid)
        grid = grades.astype(np.float64, copy=not isinstance(self.grid, (list, tuple)))
        self._freeze(labels, _checked_grid(grid, len(labels)))

    def _freeze(self, labels, grid):
        # Adopts ``grid`` as it is, read-only from now on.
        grid.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "grid", grid)
        # The order verdict of the last check of this relation (None: none
        # yet); see check_order.
        object.__setattr__(self, "_is_order", None)
        return self

    @classmethod
    def _on_carrier_of(cls, labels, grid) -> "FuzzyRelation":
        # A relation on the checked ``labels`` that adopts ``grid``: a fresh
        # float64 array of checked grades, none of them -0.0, that nothing
        # else writes.  Min/max and indexing only pick grades that relations
        # hold already; the parsers and with_value make -0.0 +0.0 in place.
        return object.__new__(cls)._freeze(labels, grid)

    # -- carrier ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _pos(self) -> dict[str, int]:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(map(Element, self.labels, range(self.n)))

    def index_of(self, x: ElementLike) -> int:
        """Resolve an element reference (Element, label, or index) to its index."""
        if isinstance(x, Element):
            x = x.label
        if isinstance(x, str):
            try:
                return self._pos[x]
            except KeyError:
                raise KeyError(f"unknown element label {x!r}") from None
        i = operator.index(x)  # an int, bool or numpy integer; a float is a TypeError
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range for carrier of size {self.n}")
        return i

    def element(self, x: ElementLike) -> Element:
        return self.elements[self.index_of(x)]

    # -- grades -----------------------------------------------------------

    def value(self, x: ElementLike, y: ElementLike) -> float:
        return float(self.grid[self.index_of(x), self.index_of(y)])

    def with_value(self, x: ElementLike, y: ElementLike, value: float) -> "FuzzyRelation":
        """A copy of this relation with one entry replaced."""
        g = np.array(self.grid)
        g[self.index_of(x), self.index_of(y)] = _real_grades(value)
        return FuzzyRelation._on_carrier_of(self.labels, _checked_grid(g, self.n))

    def tolists(self) -> list[list[float]]:
        return self.grid.tolist()

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyRelation):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.grid, other.grid)

    def __hash__(self) -> int:
        return hash((self.labels, self.grid.tobytes()))

    def __repr__(self) -> str:
        return f"FuzzyRelation(labels={self.labels!r}, n={self.n})"


# -------------------------------------------------------------------------
# axiom predicates
# -------------------------------------------------------------------------


def _reflexivity_witnesses(r: FuzzyRelation):
    diag = np.diagonal(r.grid)
    for i in np.flatnonzero(diag != 1.0):
        yield r.labels[i], float(diag[i])


def _antisymmetry_witnesses(r: FuzzyRelation):
    pos = r.grid > 0.0
    xs, ys = (pos & pos.T).nonzero()
    upper = xs < ys
    for i, j in zip(xs[upper].tolist(), ys[upper].tolist()):
        yield (r.labels[i], r.labels[j]), float(r.grid[i, j]), float(r.grid[j, i])


# The byte budget of one slab of whole-grid work: the transitivity check's
# rows of pairs, and the certifying family's stacked member rank grids.
_SLAB_BYTES = 2 << 20


def _support_flags(support: np.ndarray) -> np.ndarray:
    # The rows x of the square 0/1 ``support`` with a path x -> y -> z in it
    # and no entry (x, z).  Rows pack into whole uint64 words, zero-padded,
    # and row x reaches in two steps the OR of the packed rows y with an
    # entry (x, y).  One OR-reduce, masked by the support, takes it for
    # every x over a broadcast view of the words' transpose, so it copies
    # nothing of size n^2.  Bitwise operations only: exact, and on one
    # thread.
    n = len(support)
    width = -(-n // 64)  # words per row
    bits = np.packbits(support, axis=1)
    packed = np.zeros((n, 8 * width), dtype=np.uint8)
    packed[:, :bits.shape[1]] = bits
    words = packed.view(np.uint64)
    cols = np.broadcast_to(words.T.copy(), (n, width, n))  # [x, w, y]: word w of row y
    reach = np.bitwise_or.reduce(cols, axis=2, where=support[:, None, :], initial=np.uint64(0))
    return (reach & ~words).any(axis=1)


def _transitivity_witnesses(r: FuzzyRelation):
    # Flag the rows with a witness in two passes (see is_transitive), then
    # list only theirs.
    g = r.grid
    support = g > 0.0
    flagged = _support_flags(support)
    xs, zs = (support & (g < 1.0)).nonzero()
    if len(xs):
        gT = np.ascontiguousarray(g.T)
        step = max(1, _SLAB_BYTES // g[0].nbytes)
        for lo in range(0, len(xs), step):
            x, z = xs[lo:lo + step], zs[lo:lo + step]
            bound = np.minimum(g[x], gT[z]).max(axis=1)
            flagged[x[bound > g[x, z]]] = True
    # Only the y with r(x, y) > 0 can bound r(x, z).  Rows and y stay in
    # ascending order, so the witnesses keep their row-major order.
    for x in flagged.nonzero()[0]:
        row = g[x]
        ys = row.nonzero()[0]
        via = np.minimum(row[ys, None], g[ys])  # [k, z] = min(r(x, y_k), r(y_k, z))
        bad = via > row
        for k, z in np.argwhere(bad):
            yield (r.labels[x], r.labels[ys[k]], r.labels[z]), float(row[z]), float(via[k, z])


_AXIOMS = (_reflexivity_witnesses, _antisymmetry_witnesses, _transitivity_witnesses)


def _verdict(witnesses) -> Verdict:
    witnesses = tuple(witnesses)
    return Verdict(not witnesses, witnesses)


def is_reflexive(r: FuzzyRelation) -> Verdict:
    """Every element must be fully related to itself (diagonal exactly 1).

    Witnesses are ``(label, value)`` pairs for each diagonal entry below 1.
    """
    return _verdict(_reflexivity_witnesses(r))


def is_antisymmetric(r: FuzzyRelation) -> Verdict:
    """For distinct x, y at most one of the two directions may be positive.

    Witnesses are ``((x, y), r(x,y), r(y,x))`` per unordered pair, x before y
    in carrier order, with both directions strictly positive.
    """
    return _verdict(_antisymmetry_witnesses(r))


def is_transitive(r: FuzzyRelation) -> Verdict:
    """Max-min transitivity: r(x,z) >= min(r(x,y), r(y,z)) for all x, y, z.

    The supremum of the definition is a maximum here because carriers are
    finite by construction.  Witnesses are ``((x, y, z), r(x,z), bound)``
    triples in row-major order, where bound = min(r(x,y), r(y,z)) > r(x,z).

    Two whole-grid passes first flag the rows x with a witness.  Entries
    r(x,z) = 1 are skipped, as nothing exceeds them.  An entry 0 has a
    witness iff some path x -> y -> z is positive at both steps.  Those
    rows come from the 0/1 support by bitwise operations only, on one
    thread: its rows pack into 64-bit words, and one OR-reduce of the
    packed rows y, masked by the support, gives every row's two-step reach.
    Fractional entries take the max-min bound itself, in slabs of pairs.
    Only the flagged rows then list their witnesses, so a valid order
    builds no per-row work.
    """
    return _verdict(_transitivity_witnesses(r))


def check_order(r: FuzzyRelation) -> AxiomReport:
    """Check all three order axioms and collect every violation.

    Every call runs the full check.  It also records the verdict on ``r``,
    which is immutable, so that the order precondition of a later
    operation on ``r`` (:func:`~fuzzorder.linearize`,
    :func:`~fuzzorder.pivot_extend`, :func:`~fuzzorder.clamp_extend`,
    :func:`~fuzzorder.certifying_family`) reads it instead of checking
    again.  Only a check records a verdict; a relation derived from ``r``
    starts without one.
    """
    refl = is_reflexive(r)
    anti = is_antisymmetric(r)
    trans = is_transitive(r)
    report = AxiomReport(
        reflexive=refl.passed,
        antisymmetric=anti.passed,
        transitive=trans.passed,
        reflexivity_witnesses=refl.witnesses,
        antisymmetry_witnesses=anti.witnesses,
        transitivity_witnesses=trans.witnesses,
    )
    object.__setattr__(r, "_is_order", report.is_order)
    return report


def _passes_order(r: FuzzyRelation) -> bool:
    # Verdict only, for operation preconditions: r's recorded verdict, else a
    # check that stops at the first witness and records its verdict.
    if r._is_order is None:
        object.__setattr__(r, "_is_order", not any(next(axiom(r), None) for axiom in _AXIOMS))
    return r._is_order


def _incomparable(grid: np.ndarray) -> np.ndarray:
    # Unordered pairs i < j with grade zero in both directions.
    return np.triu((grid == 0.0) & (grid.T == 0.0), k=1)


def is_linear(r: FuzzyRelation) -> Verdict:
    """Linear (total): every pair of distinct elements is comparable.

    Witnesses are the incomparable pairs, as returned by
    :func:`incomparable_pairs`.
    """
    return _verdict(incomparable_pairs(r))


def incomparable_pairs(r: FuzzyRelation) -> list[Pair]:
    """All unordered pairs with grade zero in both directions, row-major.

    Pairs are canonicalized with the lower-indexed element first.
    """
    i, j = _incomparable(r.grid).nonzero()
    elems = np.empty(r.n, dtype=object)
    elems[:] = r.elements
    return list(map(Pair, elems[i].tolist(), elems[j].tolist()))


def _same_carrier(labels, expected) -> None:
    # CarrierMismatchError unless the carriers agree.  It names the first
    # position where they differ, else the two sizes, and never a whole carrier.
    if labels != expected:
        k = next((k for k, (x, y) in enumerate(zip(labels, expected)) if x != y), None)
        where = (f"element {k + 1} is {labels[k]!r}, not {expected[k]!r}" if k is not None
                 else f"{len(labels)} elements, not {len(expected)}")
        raise CarrierMismatchError(f"carriers differ: {where}")


def extends(lo: FuzzyRelation, hi: FuzzyRelation) -> bool:
    """True when ``hi`` dominates ``lo`` entrywise over the same carrier."""
    _same_carrier(hi.labels, lo.labels)
    return bool((lo.grid <= hi.grid).all())


def pointwise_inf(family: Iterable[FuzzyRelation] | Sequence[FuzzyRelation]) -> FuzzyRelation:
    """Entrywise minimum of a nonempty family sharing one carrier."""
    members = list(family)
    if not members:
        raise EmptyFamilyError("pointwise infimum of an empty family is undefined")
    inf = np.array(members[0].grid)  # the members fold into this one grid, never a stack
    for m in members[1:]:
        _same_carrier(m.labels, members[0].labels)
        np.minimum(inf, m.grid, out=inf)
    return FuzzyRelation._on_carrier_of(members[0].labels, inf)

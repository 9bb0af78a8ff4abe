"""Value-preserving linear extensions and intersection certificates.

Two constructions live here.  The clamp builds a linear extension that keeps
a prescribed positive grade exactly: starting from a deterministic linear
extension r' of r and the target level beta = r(a, b), it caps r' at beta
wherever the original grade was at most beta:

    s(x, y) = r'(x, y)           if r(x, y) >  beta
    s(x, y) = min(beta, r'(x, y)) if r(x, y) <= beta

The certifying family bundles finitely many linear extensions whose
pointwise infimum reproduces the original order: two oppositely oriented
extensions per incomparable pair, plus one clamp per positive off-diagonal
entry.  ``verify_intersection`` checks the reconstruction bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extension import _linear_grid, _pivot_grid
from .relation import (
    CarrierMismatchError,
    ElementLike,
    FuzzyRelation,
    Pair,
    PreconditionError,
    Verdict,
    _incomparable,
    _passes_order,
    pointwise_inf,
)

__all__ = [
    "ClampResult",
    "ExtensionFamily",
    "FamilyMember",
    "certifying_family",
    "clamp_extend",
    "verify_intersection",
]


@dataclass(frozen=True)
class ClampResult:
    """A linear extension preserving one grade, with its ingredients.

    ``relation`` is the preserving extension s, ``beta`` the preserved level
    r(a, b), ``base`` the linear extension that was clamped (equal to
    ``relation`` when no clamping was needed), and ``preserved_pair`` the
    pair (a, b).
    """

    relation: FuzzyRelation
    beta: float
    base: FuzzyRelation
    preserved_pair: Pair


@dataclass(frozen=True)
class FamilyMember:
    """A linear extension tagged with the certificates it provides.

    Tags look like ``"orients(a,b)"`` (this member puts a above b, settling
    an incomparable pair) or ``"preserves(a,b)"`` (this member keeps the
    original grade at (a, b) exactly).  Bit-identical relations are stored
    once with their tags merged.
    """

    relation: FuzzyRelation
    tags: tuple[str, ...]


@dataclass(frozen=True)
class ExtensionFamily:
    """A finite set of tagged linear extensions of one base order."""

    members: tuple[FamilyMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def certificate_count(self) -> int:
        return sum(len(m.tags) for m in self.members)

    def relations(self) -> tuple[FuzzyRelation, ...]:
        return tuple(m.relation for m in self.members)


def clamp_extend(r: FuzzyRelation, a: ElementLike, b: ElementLike) -> ClampResult:
    """Build a linear extension s of r with s(a, b) = r(a, b) exactly.

    Requires r to pass the order axioms and r(a, b) > 0.  If the
    deterministic linearization already keeps (a, b) at r(a, b), as it does
    for a linear r, it is used as-is; otherwise the clamp formula caps it at
    beta = r(a, b).
    """
    ia, ib = r.index_of(a), r.index_of(b)
    if not _passes_order(r):
        raise PreconditionError("not-an-order", "clamp requires a valid fuzzy order")
    beta = float(r.grid[ia, ib])
    if beta == 0.0:
        raise PreconditionError(
            "r(a,b)=0",
            f"cannot preserve the grade of ({r.labels[ia]!r}, {r.labels[ib]!r}): it is 0",
        )
    base = FuzzyRelation(r.labels, _linear_grid(r.grid))
    return ClampResult(_clamp(r, base, ia, ib), beta, base, Pair(r.element(ia), r.element(ib)))


def _clamp(r: FuzzyRelation, base: FuzzyRelation, ia: int, ib: int) -> FuzzyRelation:
    # The clamp formula on a linear extension of r, unchecked.
    beta = r.grid[ia, ib]
    if base.grid[ia, ib] == beta:
        return base
    s = np.where(r.grid > beta, base.grid, np.minimum(beta, base.grid))
    return FuzzyRelation(r.labels, s)


def _positive_off_diagonal(r: FuzzyRelation) -> list[tuple[int, int]]:
    pos = np.array(r.grid > 0.0)
    np.fill_diagonal(pos, False)
    return [(int(i), int(j)) for i, j in np.argwhere(pos)]


def certifying_family(r: FuzzyRelation) -> ExtensionFamily:
    """Construct a finite family of linear extensions whose inf equals r.

    For each incomparable unordered pair {a, b}: one member orienting a
    above b and one orienting b above a (pivot first, then linearize the
    rest).  For each ordered pair with positive off-diagonal grade: one
    clamp member preserving that grade.  A linear r certifies itself and
    yields the singleton family {r}.
    """
    if not _passes_order(r):
        raise PreconditionError("not-an-order", "certifying family requires a valid fuzzy order")

    labels = r.labels
    positives = _positive_off_diagonal(r)
    incomparables = np.argwhere(_incomparable(r.grid))
    if not len(incomparables):
        tags = tuple(f"preserves({labels[i]},{labels[j]})" for i, j in positives)
        return ExtensionFamily((FamilyMember(r, tags),))

    ordered: list[tuple[FuzzyRelation, str]] = []
    for i, j in incomparables:
        for a, b in ((i, j), (j, i)):
            s = FuzzyRelation(labels, _linear_grid(_pivot_grid(r.grid, a, b)))
            ordered.append((s, f"orients({labels[a]},{labels[b]})"))
    base = FuzzyRelation(labels, _linear_grid(r.grid))
    for i, j in positives:
        ordered.append((_clamp(r, base, i, j), f"preserves({labels[i]},{labels[j]})"))

    merged: dict[FuzzyRelation, list[str]] = {}
    for rel, tag in ordered:
        merged.setdefault(rel, []).append(tag)
    return ExtensionFamily(
        tuple(FamilyMember(rel, tuple(tags)) for rel, tags in merged.items())
    )


def verify_intersection(r: FuzzyRelation, family) -> Verdict:
    """Check that the pointwise infimum of the family reproduces r exactly.

    ``family`` may be an :class:`ExtensionFamily` or any iterable of
    relations.  Witnesses list each ``((x, y), inf_value, r_value)`` where
    the infimum disagrees with r.
    """
    inf = pointwise_inf(m.relation if isinstance(m, FamilyMember) else m for m in family)
    if inf.labels != r.labels:
        raise CarrierMismatchError(
            f"family carrier {inf.labels!r} differs from relation carrier {r.labels!r}"
        )
    witnesses = tuple(
        ((r.labels[i], r.labels[j]), float(inf.grid[i, j]), float(r.grid[i, j]))
        for i, j in np.argwhere(inf.grid != r.grid)
    )
    return Verdict(not witnesses, witnesses)

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

The orienting members are linearized together, as a members x n x n stack of
grids.  One cursor walks r's incomparable pairs once, in row-major order, and
at each pair pivots exactly the members for which that pair is still
incomparable.  A member's incomparable pairs are a subset of r's, so every
member meets its pivots in the order a linearization of it alone would.  The
stack advances in consecutive slabs of members no larger than a fixed byte
budget, so its memory does not grow with the number of members.  Equal
members are merged, in order of first occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .extension import _linear_grid
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
    """A finite set of tagged linear extensions of one base order.

    ``built`` counts the members :func:`certifying_family` constructed before
    merging bit-identical ones (None for a family assembled otherwise); it
    takes no part in equality.
    """

    members: tuple[FamilyMember, ...]
    built: int | None = field(default=None, compare=False)

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
    base = FuzzyRelation._on_carrier_of(r, _linear_grid(r.grid))
    s = base
    if base.grid[ia, ib] != beta:
        s = FuzzyRelation._on_carrier_of(r, _clamp(r.grid, base.grid, beta))
    return ClampResult(s, beta, base, Pair(r.element(ia), r.element(ib)))


def _clamp(grid: np.ndarray, base: np.ndarray, beta) -> np.ndarray:
    # The clamp formula at level beta on a linear extension ``base`` of the
    # order grid, unchecked.  It is used only where base falls off beta at
    # the preserved pair; elsewhere the member is base itself.
    return np.where(grid > beta, base, np.minimum(beta, base))


def _positive_off_diagonal(r: FuzzyRelation) -> list[tuple[int, int]]:
    pos = np.array(r.grid > 0.0)
    np.fill_diagonal(pos, False)
    return [(int(i), int(j)) for i, j in np.argwhere(pos)]


# The stack's bound: one slab of orienting members holds at most this many
# bytes of grids, so the family of any order with n <= 22 fits in one slab.
_SLAB_BYTES = 2 << 20


def _orienting_grids(grid: np.ndarray, pairs):
    # The linearized grid of every orienting member, in member order: per
    # incomparable pair (i, j) of ``pairs`` = _incomparable(grid).nonzero(),
    # the member putting i above j and then the one putting j above i.  Each
    # yielded grid is a view into one slab buffer that the next slab
    # overwrites, so the caller copies what it keeps before asking for more.
    first, second = pairs
    tops = np.column_stack((first, second)).ravel()
    bottoms = np.column_stack((second, first)).ravel()
    cursor = list(zip(first.tolist(), second.tolist()))
    buffer = np.empty((min(len(tops), max(1, _SLAB_BYTES // grid.nbytes)),) + grid.shape)
    for lo in range(0, len(tops), len(buffer)):
        a, b = tops[lo:lo + len(buffer)], bottoms[lo:lo + len(buffer)]
        # stack[k] = max(r, min(r[:, a_k], r[b_k, :])), the pivoted grid of member k
        stack = np.minimum(grid.T[a][:, :, None], grid[b][:, None, :], out=buffer[:len(a)])
        np.maximum(stack, grid, out=stack)
        for i, j in cursor:
            live = ((stack[:, i, j] == 0.0) & (stack[:, j, i] == 0.0)).nonzero()[0]
            if len(live):
                g = stack[live]
                np.maximum(g, np.minimum(g[:, :, i, None], g[:, None, j, :]), out=g)
                stack[live] = g
        yield from stack


def certifying_family(r: FuzzyRelation) -> ExtensionFamily:
    """Construct a finite family of linear extensions whose inf equals r.

    For each incomparable unordered pair {a, b}: one member orienting a
    above b and one orienting b above a (pivot first, then linearize the
    rest).  For each ordered pair with positive off-diagonal grade: one
    clamp member preserving that grade.  A linear r certifies itself and
    yields the singleton family {r}.

    All orienting members are linearized at once: their pivoted grids form a
    members x n x n stack, and one cursor over r's incomparable pairs, in
    row-major order, pivots at each pair exactly the members for which the
    pair is still incomparable, so every member ends as the "low"
    linearization of its pivoted grid would.  The stack advances in slabs of
    at most ``_SLAB_BYTES`` of grids.  Equal members are merged, in order
    of first occurrence; ``built`` on the result counts them before the
    merge.
    """
    if not _passes_order(r):
        raise PreconditionError("not-an-order", "certifying family requires a valid fuzzy order")

    labels = r.labels
    positives = _positive_off_diagonal(r)
    pairs = _incomparable(r.grid).nonzero()
    if not len(pairs[0]):
        tags = tuple(f"preserves({labels[i]},{labels[j]})" for i, j in positives)
        return ExtensionFamily((FamilyMember(r, tags),), built=1)

    orienting = zip(
        _orienting_grids(r.grid, pairs),
        (f"orients({labels[a]},{labels[b]})" for i, j in zip(*pairs) for a, b in ((i, j), (j, i))),
    )
    base = _linear_grid(r.grid)
    preserving = (
        (
            base if base[i, j] == r.grid[i, j] else _clamp(r.grid, base, r.grid[i, j]),
            f"preserves({labels[i]},{labels[j]})",
        )
        for i, j in positives
    )

    merged: dict[FuzzyRelation, list[str]] = {}
    for grid, tag in chain(orienting, preserving):
        merged.setdefault(FuzzyRelation._on_carrier_of(r, grid), []).append(tag)
    members = tuple(FamilyMember(rel, tuple(tags)) for rel, tags in merged.items())
    return ExtensionFamily(members, built=2 * len(pairs[0]) + len(positives))


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

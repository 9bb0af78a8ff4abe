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

The family is built on grade ranks.  Each grade of r is replaced by its rank
among r's distinct grades, an unsigned integer of one, two or four bytes.
This map is strictly increasing, and every step of the construction is a
min, a max or a comparison of grades, so the steps commute with it (Zadeh's
alpha-cut argument): building on ranks and mapping each rank back to its
grade gives the family built on grades, bit for bit.

The orienting members are linearized together, as a members x n x n stack of
rank grids.  One cursor walks r's incomparable pairs once, in row-major
order, and at each pair (i, j) pivots exactly the members for which that
pair is still incomparable, all at once by the stacked update

    g'(x, y) = max(g(x, y), min(g(x, i), g(j, y)))   for each such member g.

A member's incomparable pairs are a subset of r's, so every member meets its
pivots in the order a linearization of it alone would.  The stack advances
in consecutive slabs of members no larger than a fixed byte budget, so its
memory does not grow with the number of members.
The first member is r's own "low" linearization and the base of every
clamp, so r is linearized once.  A clamp depends on its level beta alone,
so it is computed once per level that the base does not already keep.
Equal members are merged on their rank grids, in order of first occurrence,
and only the merged members are mapped back to grades and become relations.
The map-back also goes by slabs, of intp ranks cast once per slab, and each
member owns its own fresh grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extension import _linear_grid
from .relation import (
    ElementLike,
    FuzzyRelation,
    Pair,
    PreconditionError,
    Verdict,
    _SLAB_BYTES,
    _incomparable,
    _passes_order,
    _same_carrier,
    _verdict,
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
    base = FuzzyRelation._on_carrier_of(r.labels, _linear_grid(r.grid))
    clamped = _clamp(r.grid, base.grid, ia, ib)
    s = base if clamped is base.grid else FuzzyRelation._on_carrier_of(r.labels, clamped)
    return ClampResult(s, beta, base, Pair(r.element(ia), r.element(ib)))


def _clamp(grid: np.ndarray, base: np.ndarray, i: int, j: int) -> np.ndarray:
    # The member preserving the order grid's grade beta at (i, j), unchecked:
    # the array ``base`` itself if it already keeps beta there (clamp_extend
    # tests for that identity), else the clamp formula at level beta on base.
    beta = grid[i, j]
    if base[i, j] == beta:
        return base
    return np.where(grid > beta, base, np.minimum(beta, base))


def certifying_family(r: FuzzyRelation) -> ExtensionFamily:
    """Construct a finite family of linear extensions whose inf equals r.

    For each incomparable unordered pair {a, b}: one member orienting a
    above b and one orienting b above a (pivot first, then linearize the
    rest).  For each ordered pair with positive off-diagonal grade: one
    clamp member preserving that grade.  A linear r certifies itself and
    yields the singleton family {r}.

    The members are built on r's grade ranks (see the module docstring), so
    the stack holds one, two or four bytes per entry.  All orienting members
    are linearized at once: their pivoted rank grids form a members x n x n
    stack, and one cursor over r's incomparable pairs, in row-major order,
    pivots at each pair exactly the members for which the pair is still
    incomparable, so every member ends as the "low" linearization of its
    pivoted grid would.  The stack advances in slabs of at most
    ``_SLAB_BYTES`` of rank grids.  The first orienting member is r's own
    "low" linearization and is the base of every clamp member.  The clamps
    are computed once per grade level that the base does not keep.  Equal
    members are merged on their rank grids, in order of first occurrence;
    ``built`` on the result counts them before the merge.  The merged
    members are mapped back to r's grades in slabs of at most
    ``_SLAB_BYTES`` of intp ranks, and each becomes one relation that owns
    its grid.
    """
    if not _passes_order(r):
        raise PreconditionError("not-an-order", "certifying family requires a valid fuzzy order")

    labels = r.labels
    positive = r.grid > 0.0
    np.fill_diagonal(positive, False)
    pi, pj = positive.nonzero()  # row-major
    positives = list(zip(pi.tolist(), pj.tolist()))
    preserves = [f"preserves({labels[i]},{labels[j]})" for i, j in positives]
    pairs = _incomparable(r.grid).nonzero()
    if not len(pairs[0]):
        return ExtensionFamily((FamilyMember(r, tuple(preserves)),), built=1)

    # Rank r once (see the module docstring); levels[rank] gives each grade
    # back bit for bit.
    levels, ranks = np.unique(r.grid, return_inverse=True)
    grid = ranks.reshape(r.grid.shape).astype(np.min_scalar_type(len(levels) - 1))

    # Member order: per incomparable pair (i, j), i above j, then j above i.
    tops = np.column_stack(pairs).ravel()
    bottoms = np.column_stack(pairs[::-1]).ravel()
    merged: dict[bytes, list[str]] = {}  # rank grid bytes -> tags

    def merge(key, tag):
        merged.setdefault(key, []).append(tag)

    # The orienting members, one slab at a time: stack[k] starts as member k's
    # pivot max(r, min(r[:, a_k], r[b_k, :])); the cursor then pivots each pair
    # in the members where both its ranks are 0, that is where they are equal
    # (rank 0 is grade 0: r has an incomparable pair).
    cursor = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    # The n(n - 1) or fewer orienting members fit in one slab for n <= 38
    # with one-byte ranks (at most 256 distinct grades) and for n <= 32 with
    # two-byte ones.
    size = grid.nbytes
    slab = max(1, _SLAB_BYTES // size)
    for lo in range(0, len(tops), slab):
        a, b = tops[lo:lo + slab], bottoms[lo:lo + slab]
        stack = np.minimum(grid.T[a][:, :, None], grid[b][:, None, :])
        np.maximum(stack, grid, out=stack)
        for i, j in cursor:
            # Integer ranks: a comparison loosened by an epsilon is the same one.
            live = (stack[:, i, j] == stack[:, j, i]).nonzero()[0]
            if len(live):
                g = stack[live]
                stack[live] = np.maximum(g, np.minimum(g[:, :, i, None], g[:, j, None, :]), out=g)
        # Each member's key is its slice of the slab's bytes; free both the
        # slab and its bytes before seeding the next.
        keys = stack.tobytes()
        del stack
        for at, top, bottom in zip(range(0, len(keys), size), a.tolist(), b.tolist()):
            merge(keys[at:at + size], f"orients({labels[top]},{labels[bottom]})")
        del keys

    # The first member is r's "low" linearization and the base of every
    # clamp.  A clamp depends on its level beta alone, so it is built once per
    # level, for the first pair at that level whose grade the base does not
    # keep; a pair the base keeps gets the base itself.  A clamp equal to the
    # base has the base's rank bytes, so its tag joins the base's tags.
    base_key = next(iter(merged))
    base = np.frombuffer(base_key, dtype=grid.dtype).reshape(grid.shape)
    betas = grid[pi, pj]
    # Integer ranks: a comparison loosened by an epsilon is the same one.
    kept = (base[pi, pj] == betas).tolist()
    clamps: dict[int, bytes] = {}  # level -> its clamp's rank grid bytes
    for (i, j), beta, keep, tag in zip(positives, betas.tolist(), kept, preserves):
        if keep:
            key = base_key
        elif (key := clamps.get(beta)) is None:
            key = clamps[beta] = _clamp(grid, base, i, j).tobytes()
        merge(key, tag)

    # Map the merged rank grids back to grades a slab of intp ranks at a time:
    # one cast per slab, then one take per member into its own fresh grid.
    step = max(1, _SLAB_BYTES // (grid.size * np.dtype(np.intp).itemsize))
    tagged = list(merged.items())
    members = []
    for lo in range(0, len(tagged), step):
        chunk = tagged[lo:lo + step]
        ranks = np.frombuffer(b"".join(key for key, _ in chunk), dtype=grid.dtype)
        ranks = ranks.astype(np.intp).reshape(-1, *grid.shape)
        members += (
            FamilyMember(FuzzyRelation._on_carrier_of(labels, levels[g]), tuple(tags))
            for g, (_, tags) in zip(ranks, chunk)
        )
        del ranks  # free the slab before casting the next
    return ExtensionFamily(tuple(members), built=len(tops) + len(preserves))


def verify_intersection(r: FuzzyRelation, family) -> Verdict:
    """Check that the pointwise infimum of the family reproduces r exactly.

    ``family`` may be an :class:`ExtensionFamily` or any iterable of
    relations.  Witnesses list each ``((x, y), inf_value, r_value)`` where
    the infimum disagrees with r.

    This checks the infimum only: it does not check that each member is a
    linear extension of r (an order, linear, and >= r entrywise), nor any
    member's tags.  A family whose one member is r itself passes.
    """
    inf = pointwise_inf(m.relation if isinstance(m, FamilyMember) else m for m in family)
    _same_carrier(inf.labels, r.labels)
    return _verdict(
        ((r.labels[i], r.labels[j]), float(inf.grid[i, j]), float(r.grid[i, j]))
        for i, j in np.argwhere(inf.grid != r.grid)
    )

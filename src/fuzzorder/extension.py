"""Single-pivot extension and the deterministic linearization loop.

The pivot construction takes an order in which b is not above a and builds
an extension that puts a fully above b:

    r'(x, y) = max(r(x, y), min(r(x, a), r(b, y)))

It preserves all three order axioms, never lowers an entry, and forces
r'(a, b) = 1 while keeping r'(b, a) = 0.  Repeating it until no incomparable
pair remains yields a linear extension in at most m/2 steps, where m counts
the ordered incomparable entries of the input.

The linearization loop makes one cursor pass over the input's incomparable
pairs in row-major order, pivoting at each pair still incomparable when the
cursor reaches it; this meets the pairs in the order a rescan from the start
after every pivot would.  Each pivot reads and writes only the rows x with
r(x, a) > 0 and the columns y with r(b, y) > 0, the only entries it can raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .relation import (
    Element,
    ElementLike,
    FuzzyRelation,
    PreconditionError,
    _incomparable,
    _passes_order,
)

__all__ = [
    "LinearizationResult",
    "PivotStep",
    "count_incomparable_entries",
    "linearize",
    "pivot_extend",
]

PivotPolicy = Union[str, Iterable[tuple[ElementLike, ElementLike]]]


@dataclass(frozen=True)
class PivotStep:
    """One application of the pivot formula inside a linearization run.

    ``entries_raised`` records every strictly increased entry as
    ``((x_label, y_label), old, new)``, in row-major order.  The pivot pair
    itself appears here as ``((a, b), 0.0, 1.0)``.
    """

    a: Element
    b: Element
    step_index: int
    entries_raised: tuple[tuple[tuple[str, str], float, float], ...]


@dataclass(frozen=True)
class LinearizationResult:
    """A linear extension plus the pivot trace and step accounting.

    ``k`` is the number of pivots applied; ``m`` is the number of ordered
    incomparable entries of the input (twice the unordered count).  The
    bound k <= m/2 <= n(n-1)/2 always holds.
    """

    relation: FuzzyRelation
    trace: tuple[PivotStep, ...]
    k: int
    m: int


def _pivot_grid(grid: np.ndarray, ia: int, ib: int) -> np.ndarray:
    return np.maximum(grid, np.minimum.outer(grid[:, ia], grid[ib, :]))


def pivot_extend(r: FuzzyRelation, a: ElementLike, b: ElementLike) -> FuzzyRelation:
    """Extend an order so that a sits fully above b.

    Requires ``r`` to pass the order axioms, ``a != b``, and ``r(b, a) = 0``.
    Raises :class:`PreconditionError` naming the failed precondition
    (``not-an-order`` / ``equal-pivots`` / ``r(b,a)>0``).
    """
    ia, ib = r.index_of(a), r.index_of(b)
    if not _passes_order(r):
        raise PreconditionError("not-an-order", "pivot requires a valid fuzzy order")
    if ia == ib:
        raise PreconditionError("equal-pivots", "pivot elements must be distinct")
    if r.grid[ib, ia] != 0.0:
        raise PreconditionError(
            "r(b,a)>0",
            f"cannot put {r.labels[ia]!r} above {r.labels[ib]!r}: "
            f"the reverse grade is {float(r.grid[ib, ia])}, not 0",
        )
    return FuzzyRelation._on_carrier_of(r, _pivot_grid(r.grid, ia, ib))


def _pivot_steps(g: np.ndarray, pairs, orient=lambda i, j: (i, j)):
    # The linearization loop described above, unchecked, in place on the
    # writable order grid g.  ``pairs`` = _incomparable(g).nonzero(): g's
    # incomparable pairs in row-major order, as index arrays of i and of j.
    # min(g[x, a], g[b, y]) is 0 outside the rows and columns taken below.
    # Yields (a, b, rows, cols, block before, block after) per pivot.
    first, second = pairs
    for i, j in zip(first.tolist(), second.tolist()):
        if g[i, j] or g[j, i]:
            continue
        ia, ib = orient(i, j)
        rows, cols = g[:, ia].nonzero()[0], g[ib].nonzero()[0]
        block = g[rows[:, None], cols]
        new = np.minimum.outer(g[rows, ia], g[ib, cols])
        np.maximum(new, block, out=new)
        g[rows[:, None], cols] = new
        yield ia, ib, rows, cols, block, new


def _linear_grid(grid: np.ndarray) -> np.ndarray:
    # The "low"-policy linear extension of an order's grid, unchecked, untraced.
    g = np.array(grid)
    for _ in _pivot_steps(g, _incomparable(g).nonzero()):
        pass
    return g


def linearize(r: FuzzyRelation, policy: PivotPolicy = "low") -> LinearizationResult:
    """Extend an order to a linear one by repeated pivoting.

    Walks the input's incomparable unordered pairs (i, j), i < j, once in
    row-major order and pivots at each one that is still incomparable (a
    pivot can make later pairs comparable as a side effect); this is the
    pair a rescan from the start would find.  Each pivot updates only the
    block of entries it can raise.  The orientation of each pivot is fixed
    by ``policy``:

    * ``"low"`` (default): the lower-indexed element goes on top.
    * ``"high"``: the higher-indexed element goes on top.
    * an iterable of ``(a, b)`` element references (Element, label or
      index, resolved as by :func:`pivot_extend`): those pairs are put a
      above b when encountered; unlisted pairs fall back to ``"low"``.

    Equal inputs produce identical traces and outputs.
    """
    if not isinstance(policy, str):
        overrides = {(r.index_of(x), r.index_of(y)) for x, y in policy}
        orient = lambda i, j: (j, i) if (j, i) in overrides else (i, j)
    elif policy == "high":
        orient = lambda i, j: (j, i)
    elif policy == "low":
        orient = lambda i, j: (i, j)
    else:
        raise ValueError(f"unknown pivot policy {policy!r}")

    if not _passes_order(r):
        raise PreconditionError("not-an-order", "linearize requires a valid fuzzy order")

    grid = np.array(r.grid)
    pairs = _incomparable(grid).nonzero()
    m = 2 * len(pairs[0])
    elems = r.elements
    names = np.array(r.labels, dtype=object)
    trace: list[PivotStep] = []
    for ia, ib, rows, cols, old, new in _pivot_steps(grid, pairs, orient):
        xs, ys = (new > old).nonzero()
        raised = tuple(zip(
            zip(names[rows[xs]].tolist(), names[cols[ys]].tolist()),
            old[xs, ys].tolist(),
            new[xs, ys].tolist(),
        ))
        trace.append(PivotStep(elems[ia], elems[ib], len(trace) + 1, raised))
    relation = FuzzyRelation._on_carrier_of(r, grid)
    return LinearizationResult(relation, tuple(trace), len(trace), m)


def count_incomparable_entries(r: FuzzyRelation) -> int:
    """Number of ordered pairs (x, y), x != y, with zero grade both ways.

    Always even; at most n(n-1).
    """
    return 2 * int(_incomparable(r.grid).sum())

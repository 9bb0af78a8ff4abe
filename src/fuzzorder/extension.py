"""Single-pivot extension and the deterministic linearization loop.

The pivot construction takes an order in which b is not above a and builds
an extension that puts a fully above b:

    r'(x, y) = max(r(x, y), min(r(x, a), r(b, y)))

It preserves all three order axioms, never lowers an entry, and forces
r'(a, b) = 1 while keeping r'(b, a) = 0.  Repeating it until no incomparable
pair remains yields a linear extension in at most m/2 steps, where m counts
the ordered incomparable entries of the input.
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

PivotPolicy = Union[str, Iterable[tuple[str, str]]]


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
    return FuzzyRelation(r.labels, _pivot_grid(r.grid, ia, ib))


def _pivot_steps(grid: np.ndarray, orient=lambda i, j: (i, j)):
    # The pivot loop on an order's grid, unchecked: at the row-major first
    # incomparable pair (i, j), pivot orient(i, j) and rescan.  Yields
    # (a, b, grid before, grid after) per pivot.
    n = len(grid)
    while True:
        zero = _incomparable(grid)
        if not zero.any():
            return
        ia, ib = orient(*divmod(int(zero.argmax()), n))
        new = _pivot_grid(grid, ia, ib)
        yield ia, ib, grid, new
        grid = new


def _linear_grid(grid: np.ndarray) -> np.ndarray:
    # The "low"-policy linear extension of an order's grid, unchecked, untraced.
    for _, _, _, grid in _pivot_steps(grid):
        pass
    return grid


def linearize(r: FuzzyRelation, policy: PivotPolicy = "low") -> LinearizationResult:
    """Extend an order to a linear one by repeated pivoting.

    Scans unordered pairs (i, j), i < j, in row-major order; at the first
    incomparable pair it pivots and rescans from the start (a pivot can make
    later pairs comparable as a side effect).  The orientation of each pivot
    is fixed by ``policy``:

    * ``"low"`` (default): the lower-indexed element goes on top.
    * ``"high"``: the higher-indexed element goes on top.
    * an iterable of ``(a_label, b_label)`` pairs: those pairs are oriented
      as given when encountered; unlisted pairs fall back to ``"low"``.

    Equal inputs produce identical traces and outputs.
    """
    labels = r.labels
    if not isinstance(policy, str):
        overrides = {(str(x), str(y)) for x, y in policy}
        orient = lambda i, j: (j, i) if (labels[j], labels[i]) in overrides else (i, j)
    elif policy == "high":
        orient = lambda i, j: (j, i)
    elif policy == "low":
        orient = lambda i, j: (i, j)
    else:
        raise ValueError(f"unknown pivot policy {policy!r}")

    if not _passes_order(r):
        raise PreconditionError("not-an-order", "linearize requires a valid fuzzy order")

    m = count_incomparable_entries(r)
    elems = r.elements
    trace: list[PivotStep] = []
    grid = r.grid  # stays the input when no pivot is needed
    for ia, ib, old, grid in _pivot_steps(r.grid, orient):
        raised = tuple(
            ((labels[x], labels[y]), float(old[x, y]), float(grid[x, y]))
            for x, y in np.argwhere(grid > old)
        )
        trace.append(PivotStep(elems[ia], elems[ib], len(trace) + 1, raised))
    return LinearizationResult(FuzzyRelation(labels, grid), tuple(trace), len(trace), m)


def count_incomparable_entries(r: FuzzyRelation) -> int:
    """Number of ordered pairs (x, y), x != y, with zero grade both ways.

    Always even; at most n(n-1).
    """
    return 2 * int(_incomparable(r.grid).sum())

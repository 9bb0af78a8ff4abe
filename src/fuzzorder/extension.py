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
after every pivot would.  The cursor moves in runs: consecutive pairs (a, j)
with the same a that all put a on top (or all below, which is the same run
on the transposed grid).  While a run puts a above its bottoms b_1, b_2, ...
in turn, no pivot changes column a or any bottom's row, since every bottom
b has r(b, a) = 0.  So the run as a whole is one update

    r'(x, y) = max(r(x, y), min(r(x, a), max_t r(b_t, y)))

and its pivots are the pairs still incomparable when reached: b is skipped
iff r(a, b) > 0 or r(b, a) > 0 when the run starts, or an earlier pivot's
bottom b' has r(b', b) > 0.  So the keep rule reads: of the bottoms left
free when the run starts, j is pivoted iff the first free bottom above j
(the first j' in the run with r(j', j) > 0) is j itself.  A single pivot is
the run of one bottom, and :func:`pivot_extend` applies it so.

Every run of any length costs one update of only the rows x with
r(x, a) > min_t r(x, b_t), each as a whole row: every grade of such a row
becomes the max of itself and min(r(x, a), max_t r(b_t, y)), so a grade that
cannot rise keeps its own value (max is exact).  By max-min transitivity no
other row rises: in any other row r(x, a) <= r(x, b_t) for every t, so for
every y

    r(x, y) >= min(r(x, b_t), r(b_t, y)) >= min(r(x, a), r(b_t, y))

for each t.

The trace keeps only the pivots.  Its steps share one slot, a list holding
the call that replays every pivot on a copy of the input grid, one at a time
and with the same update.  The first read of any step's ``entries_raised``
appends every step's tuple to it and drops the call (a caller who reads one
step's entries tends to read them all), which releases the input.  Reading
only k, m and the pivots never pays for them.  Steps may be read from
several threads at once.
"""

from __future__ import annotations

from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import repeat
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

POLICIES = ("low", "high")  # the named policies; see linearize
PivotPolicy = Union[str, Iterable[tuple[ElementLike, ElementLike]]]


@dataclass(frozen=True)
class PivotStep:
    """One application of the pivot formula inside a linearization run.

    ``entries_raised`` records every strictly increased entry as
    ``((x_label, y_label), old, new)``, in row-major order.  The pivot pair
    itself appears here as ``((a, b), 0.0, 1.0)``.  A step from
    :func:`linearize` builds them on first read (see the module docstring).
    """

    __slots__ = ("a", "b", "step_index", "entries_raised", "_replay")

    a: Element
    b: Element
    step_index: int
    entries_raised: tuple[tuple[tuple[str, str], float, float], ...]

    @classmethod
    def _replayed(cls, r, tops, bottoms) -> tuple["PivotStep", ...]:
        # The steps putting tops[t] above bottoms[t], t = 0, 1, ..., in a
        # linearization of r, without entries_raised and sharing one slot.
        # Each field is set on all steps by one map of its __slots__ setter.
        steps, elems = list(map(object.__new__, repeat(cls, len(tops)))), r.elements
        for name, values in (
            ("a", map(elems.__getitem__, tops)),
            ("b", map(elems.__getitem__, bottoms)),
            ("step_index", range(1, len(tops) + 1)),
            ("_replay", repeat([partial(_replay_steps, r, tops, bottoms)])),
        ):
            deque(map(getattr(cls, name).__set__, steps, values), maxlen=0)
        return tuple(steps)

    def __getattr__(self, name):
        # Reached only for a slot not yet set: the entries_raised of a step
        # made by _replayed.  The first reader of any step runs the slot's
        # call, appends its result and drops the call; concurrent first
        # readers may each append one, and every reader takes the first.
        # This step then keeps its own tuple and no slot.
        if name != "entries_raised":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        try:
            slot = self._replay
        except AttributeError:  # another reader has just read this step
            return object.__getattribute__(self, name)
        call = slot[0]  # before the length: once a result is appended, the call goes
        if len(slot) == 1:
            slot.append(call())
            slot[0] = None
        entries = slot[1][self.step_index - 1]
        object.__setattr__(self, name, entries)
        with suppress(AttributeError):
            object.__delattr__(self, "_replay")
        return entries

    def __getstate__(self):
        # The slots that are set: an unread step carries its trace's slot, a
        # read step only its own entries.
        state = {}
        for name in self.__slots__:
            with suppress(AttributeError):
                state[name] = object.__getattribute__(self, name)
        return state

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


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
    g = np.array(r.grid)
    _raise_block(g, ia, g[ib], g[:, ib])
    return FuzzyRelation._on_carrier_of(r.labels, g)


def _runs(g, pairs, flips=None):
    # The linearization loop described above, unchecked, in place on the
    # writable order grid g.  ``pairs`` = _incomparable(g).nonzero(): g's
    # incomparable pairs in row-major order, as index arrays of i and of j;
    # ``flips`` marks the pairs whose pivot puts j above i (None: none does).
    # Consecutive pairs (i, j) with the same i and flip form a run, which puts
    # a = i above each of its bottoms j in turn in h = g, or in h = g.T when
    # flipped.  Returns the pivots applied, in order, as (tops, lows): lists
    # of g's indices, each top put above its low.
    tops, lows = [], []
    first, second = pairs
    flips = np.zeros(len(first), dtype=bool) if flips is None else flips
    key = 2 * first + flips
    starts = [0, *((key[1:] != key[:-1]).nonzero()[0] + 1).tolist()] if len(key) else []
    heads, turns = first[starts].tolist(), flips[starts].tolist()
    for s, e, a, flipped in zip(starts, starts[1:] + [len(key)], heads, turns):
        h = g.T if flipped else g
        col = h[:, a]
        # Pair (a, j) is still incomparable iff both its grades are 0; an
        # order has at most one of them positive, so iff they are equal.
        bottoms = second[s:e]
        bottoms = bottoms[h[a, bottoms] == col[bottoms]]
        if not len(bottoms):
            continue
        below = h[bottoms]
        if len(bottoms) > 1:
            # Column a and the bottoms' rows stay as they are all run long,
            # so a pivot at j' makes every later j with h[j', j] > 0
            # comparable to a: j is pivoted iff no earlier free j' does so
            # (by transitivity, one that was skipped would pass it on).
            # h is an order grid and no pivot lowers an entry, so its
            # diagonal stays 1: column t's first positive row is at most t,
            # and it is t exactly when no earlier free bottom sits above
            # bottom t.  argmax on bools returns the first True.
            keep = (below[:, bottoms] > 0.0).argmax(axis=0) == np.arange(len(bottoms))
            bottoms, below = bottoms[keep], below[keep]
        if len(bottoms) == 1:
            top, floor = below[0], h[:, bottoms[0]]
        else:
            top, floor = np.maximum.reduce(below), h[:, bottoms].min(axis=1)
        _raise_block(h, a, top, floor)
        js, a_s = bottoms.tolist(), [a] * len(bottoms)
        tops += js if flipped else a_s
        lows += a_s if flipped else js
    return tops, lows


def _raise_block(h, a, top, floor):
    # The run update of the module docstring, in place on the order grid h:
    # h[x, y] = max(h[x, y], min(h[x, a], top[y])), written only on the rows
    # x with h[x, a] > floor[x] and on each of them whole.  top is the max of
    # the run's bottoms' rows and floor the min of their columns; for one
    # pivot of a above b, top = h[b] and floor = h[:, b].  Returns the rows
    # with their old and new grades.
    rows = (h[:, a] > floor).nonzero()[0]
    old = h[rows]
    new = np.minimum.outer(old[:, a], top)
    h[rows] = np.maximum(new, old, out=new)
    return rows, old, new


def _linear_grid(grid: np.ndarray) -> np.ndarray:
    # The "low"-policy linear extension of an order's grid, unchecked, untraced.
    g = np.array(grid)
    _runs(g, _incomparable(g).nonzero())
    return g


def _replay_steps(r: FuzzyRelation, tops, bottoms) -> list:
    # The entries_raised of each pivot tops[t] above bottoms[t] of a
    # linearization of r, one tuple per pivot, built from that pivot's raised
    # rows as the pivots are applied in turn to a copy of r's grid g.
    g = np.array(r.grid)
    names = np.array(r.labels, dtype=object)
    steps = []
    for a, b in zip(tops, bottoms):
        rows, old, new = _raise_block(g, a, g[b], g[:, b])
        xs, ys = (new > old).nonzero()
        xl, yl = names[[rows[xs], ys]].tolist()
        steps.append(tuple(zip(zip(xl, yl), old[xs, ys].tolist(), new[xs, ys].tolist())))
    return steps


def linearize(r: FuzzyRelation, policy: PivotPolicy = "low") -> LinearizationResult:
    """Extend an order to a linear one by repeated pivoting.

    Walks the input's incomparable unordered pairs (i, j), i < j, once in
    row-major order and pivots at each one that is still incomparable (a
    pivot can make later pairs comparable as a side effect); this is the
    pair a rescan from the start would find.  The orientation of each pivot
    is fixed by ``policy``:

    * ``"low"`` (default): the lower-indexed element goes on top.
    * ``"high"``: the higher-indexed element goes on top.
    * an iterable of ``(a, b)`` element references (Element, label or
      index, resolved as by :func:`pivot_extend`): those pairs are put a
      above b when encountered; unlisted pairs fall back to ``"low"``.  A
      list that orients a pair both ways, or pairs an element with itself,
      raises :class:`ValueError` naming the pair.

    The pairs are taken in runs: consecutive pairs (i, j) with the same i
    whose pivots all put i on top, or all put it below.  Each run is applied
    as one grid update (see the module docstring); grid, trace and k are
    those of pivoting one pair at a time.  The trace's ``entries_raised``
    are built on first read (see the module docstring).
    The order precondition reads a verdict that :func:`~fuzzorder.check_order`
    recorded on ``r`` instead of checking again.

    Equal inputs produce identical traces and outputs.
    """
    # above[x, y]: x goes above y when the pair {x, y} is pivoted.
    above = np.zeros((r.n, r.n), dtype=bool)
    if isinstance(policy, str):
        if policy not in POLICIES:
            raise ValueError(f"unknown pivot policy {policy!r}")
        if policy == "high":
            above = np.tri(r.n, k=-1, dtype=bool)
    else:
        for x, y in policy:
            above[r.index_of(x), r.index_of(y)] = True
        both = np.argwhere(np.triu(above & above.T))
        if len(both):
            x, y = (r.labels[i] for i in both[0])
            raise ValueError(f"the override list orients the pair ({x!r}, {y!r}) both ways")

    if not _passes_order(r):
        raise PreconditionError("not-an-order", "linearize requires a valid fuzzy order")

    grid = np.array(r.grid)
    pairs = _incomparable(grid).nonzero()
    tops, bottoms = _runs(grid, pairs, above[pairs[1], pairs[0]])
    relation = FuzzyRelation._on_carrier_of(r.labels, grid)
    trace = PivotStep._replayed(r, tops, bottoms)
    return LinearizationResult(relation, trace, len(tops), 2 * len(pairs[0]))


def count_incomparable_entries(r: FuzzyRelation) -> int:
    """Number of ordered pairs (x, y), x != y, with zero grade both ways.

    Always even; at most n(n-1).
    """
    return 2 * int(_incomparable(r.grid).sum())

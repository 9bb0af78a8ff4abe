"""Benchmark inputs: fuzzy orders of up to 192 elements, graded from the seed.

``GeneratorSpec`` caps a generated order at 12 elements, so larger orders are
assembled here from generated blocks of at most 12 elements:

* a *disjoint* sum places the blocks on the diagonal and leaves every pair
  from different blocks incomparable, so incomparable pairs grow as n**2;
* an *ordinal* sum also puts every element of an earlier block fully below
  every element of a later one (grade 1), so incomparable pairs, and the
  pivots that remove them, stay inside the blocks.

Both sums of orders are orders.  The blocks are drawn with generator seeds
that depend only on the workload and the operation's place in it.  The run
seed then replaces the grades strictly between 0 and 1 by distinct random
grades in the same order.  A strictly increasing regrading commutes with min
and max, so it keeps every axiom, every comparison, every pivot and every
family member's shape: each seed asks the program for exactly the same work
on different numbers, and seed-to-seed differences in a figure are the
machine's, not the input's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK = 12
GRADE_STEPS = 10**6  # regraded values are k / 10**6, which print in at most 8 characters


@dataclass(frozen=True)
class Shape:
    """How to assemble one order: ``kind`` is "block", "disjoint" or "ordinal"."""

    kind: str
    n: int
    density: float

    @property
    def blocks(self) -> list[int]:
        if self.kind == "block":
            return [self.n]
        count = max(2, -(-self.n // BLOCK))  # as few blocks as the cap allows, at least two
        size, extra = divmod(self.n, count)
        return [size + 1] * extra + [size] * (count - extra)

    def __str__(self) -> str:
        return f"{self.kind}-{self.n}-d{self.density}"


def assemble(blocks: list[np.ndarray], ordinal: bool) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    grid = np.zeros((n, n))
    start = 0
    for b in blocks:
        stop = start + b.shape[0]
        grid[start:stop, start:stop] = b
        if ordinal:
            grid[start:stop, stop:] = 1.0
        start = stop
    return grid


def regrade(grid: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Map the grades strictly between 0 and 1 through a random increasing map."""
    inner = (grid > 0.0) & (grid < 1.0)
    old = np.unique(grid[inner])
    new = np.sort(rng.choice(np.arange(1, GRADE_STEPS), size=len(old), replace=False)) / GRADE_STEPS
    out = grid.copy()
    out[inner] = new[np.searchsorted(old, grid[inner])]
    return out


class OrderSource:
    """The orders of one workload: fixed structure, grades from the run seed."""

    def __init__(self, oracle, stream: int, seed: int):
        self._oracle = oracle
        self._structure = np.random.default_rng(stream)
        self.rng = np.random.default_rng([seed, stream])

    def order(self, shape: Shape) -> tuple[list[str], np.ndarray]:
        blocks = [
            self._oracle.random_zadeh_order(self._oracle.GeneratorSpec(
                n=size, density=shape.density, seed=int(self._structure.integers(2**63))
            )).grid
            for size in shape.blocks
        ]
        grid = regrade(assemble(blocks, ordinal=shape.kind == "ordinal"), self.rng)
        return [f"e{i + 1}" for i in range(shape.n)], grid

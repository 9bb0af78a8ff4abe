"""Independent brute-force validation and seeded random order generation.

The checks here are deliberately written with plain Python loops over plain
lists, sharing no code with the vectorized predicates they cross-check.
The generator draws reproducible random orders for property suites: a random
DAG is sampled, its support transitively closed, grades assigned from a
finite pool, and the graded relation replaced by its max-min transitive
closure.

Randomness comes from numpy's PCG64 bit generator, so a given seed produces
the same relation on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relation import FuzzyRelation

__all__ = [
    "GeneratorSpec",
    "brute_check_order",
    "random_zadeh_order",
]

DEFAULT_VALUE_POOL = tuple((i + 1) / 10 for i in range(10))  # 0.1 .. 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one reproducible random order draw.

    ``density`` is the probability of including each forward edge of the
    underlying random DAG; ``value_pool`` is the finite set of positive
    grades assigned to related pairs.  Identical specs produce identical
    relations.
    """

    n: int
    density: float
    value_pool: tuple[float, ...] = DEFAULT_VALUE_POOL
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= 12:
            raise ValueError(f"carrier size must be an integer in 1..12, got {self.n!r}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {self.density!r}")
        pool = tuple(float(v) for v in self.value_pool)
        if not pool:
            raise ValueError("value pool must be nonempty")
        for v in pool:
            if not (0.0 < v <= 1.0) or not np.isfinite(v):
                raise ValueError(f"value pool entries must lie in (0, 1], got {v!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "value_pool", pool)


def brute_check_order(r: FuzzyRelation) -> bool:
    """Exhaustively re-check the three order axioms with plain loops."""
    g = r.tolists()
    n = len(g)
    for i in range(n):
        if g[i][i] != 1.0:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and g[i][j] > 0.0 and g[j][i] != 0.0:
                return False
    for x in range(n):
        row_x = g[x]
        for z in range(n):
            rxz = row_x[z]
            for y in range(n):
                t = row_x[y]
                if g[y][z] < t:
                    t = g[y][z]
                if rxz < t:
                    return False
    return True


def random_zadeh_order(spec: GeneratorSpec) -> FuzzyRelation:
    """Draw a random fuzzy order that always passes :func:`brute_check_order`.

    Construction: sample forward edges of a random permutation with the
    given density, transitively close that crisp support, assign each
    support entry a grade from the pool, then take the max-min transitive
    closure of the grades (Zadeh 1971).  The support is already transitive,
    so the closure only raises grades.  Diagonal is set to 1 last.
    """
    n = spec.n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perm = rng.permutation(n)
    coins = rng.random((n, n))

    support = np.zeros((n, n), dtype=bool)
    support[perm[:, None], perm] = np.triu(coins < spec.density, 1)
    for k in range(n):  # transitive closure of the crisp support
        support |= np.outer(support[:, k], support[k, :])

    grid = np.zeros((n, n))
    grid[support] = rng.choice(np.array(spec.value_pool), size=int(support.sum()))
    for k in range(n):  # max-min transitive closure of the grades
        grid = np.maximum(grid, np.minimum.outer(grid[:, k], grid[k, :]))

    np.fill_diagonal(grid, 1.0)
    labels = tuple(f"x{i + 1}" for i in range(n))
    return FuzzyRelation(labels, grid)

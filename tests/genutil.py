"""Deterministic corpora, corruption and family helpers shared by several suites."""

from __future__ import annotations

import numpy as np

from fuzzorder import (
    ExtensionFamily,
    FamilyMember,
    FuzzyRelation,
    GeneratorSpec,
    certifying_family,
    random_zadeh_order,
    verify_intersection,
)
from fuzzorder.extension import _linear_grid, _pivot_grid
from fuzzorder.relation import _incomparable

CORPUS_DENSITIES = (0.0, 0.3, 0.5, 0.7, 1.0)


def corpus_specs(count: int, max_n: int = 8, seed_base: int = 10_000) -> list[GeneratorSpec]:
    """A fixed, reproducible mix of carrier sizes and densities."""
    specs = []
    i = 0
    while len(specs) < count:
        n = 1 + (i % max_n)
        density = CORPUS_DENSITIES[(i // max_n) % len(CORPUS_DENSITIES)]
        specs.append(GeneratorSpec(n=n, density=density, seed=seed_base + i))
        i += 1
    return specs


def corpus(count: int, max_n: int = 8, seed_base: int = 10_000) -> list[FuzzyRelation]:
    return [random_zadeh_order(s) for s in corpus_specs(count, max_n, seed_base)]


def block_sum(blocks: list[FuzzyRelation], ordinal: bool = False) -> FuzzyRelation:
    """The disjoint (block-diagonal) or ordinal sum of orders, itself an order.

    A disjoint sum leaves every pair from different blocks incomparable; an
    ordinal sum puts every element of an earlier block fully below every
    element of a later one.  Elements are labelled e1, e2, ...
    """
    n = sum(b.n for b in blocks)
    grid = np.zeros((n, n))
    start = 0
    for b in blocks:
        stop = start + b.n
        grid[start:stop, start:stop] = b.grid
        if ordinal:
            grid[start:stop, stop:] = 1.0
        start = stop
    return FuzzyRelation(tuple(f"e{i + 1}" for i in range(n)), grid)


def rescan_linearization(grid: np.ndarray, labels=None, orient=lambda i, j: (i, j)):
    """Reference pivot loop: pivot on the whole grid, then rescan the whole mask.

    At the row-major first incomparable pair (i, j) it pivots orient(i, j) on
    the full grid and starts over.  Returns the final grid and, per pivot,
    ``(a, b, raised)``: raised lists every strictly increased entry as
    ``((labels[x], labels[y]), old, new)`` in row-major order (indices when
    ``labels`` is None).
    """
    names = labels or range(len(grid))
    grid = np.array(grid)
    steps = []
    while True:
        zero = np.triu((grid == 0.0) & (grid.T == 0.0), k=1)
        if not zero.any():
            return grid, steps
        a, b = orient(*divmod(int(zero.argmax()), len(grid)))
        new = np.maximum(grid, np.minimum.outer(grid[:, a], grid[b, :]))
        raised = tuple(
            ((names[x], names[y]), float(grid[x, y]), float(new[x, y]))
            for x, y in np.argwhere(new > grid)
        )
        steps.append((a, b, raised))
        grid = new


def reference_family(r: FuzzyRelation) -> ExtensionFamily:
    """Reference certifying family: build every member on its own, then merge.

    Per incomparable pair (i, j), row-major: pivot i above j on the whole
    grid and linearize the result, then the same for j above i.  Then one
    clamp per positive off-diagonal entry, on the one linearization of r.
    Relations equal bit for bit are merged in order of first occurrence.
    ``r`` must be an order.
    """
    labels = r.labels
    positives = [(i, j) for i, j in np.argwhere(r.grid > 0.0) if i != j]
    incomparables = np.argwhere(_incomparable(r.grid))
    if not len(incomparables):
        tags = tuple(f"preserves({labels[i]},{labels[j]})" for i, j in positives)
        return ExtensionFamily((FamilyMember(r, tags),))
    ordered = []
    for i, j in incomparables:
        for a, b in ((i, j), (j, i)):
            s = FuzzyRelation(labels, _linear_grid(_pivot_grid(r.grid, a, b)))
            ordered.append((s, f"orients({labels[a]},{labels[b]})"))
    base = _linear_grid(r.grid)
    for i, j in positives:
        beta = r.grid[i, j]
        s = base if base[i, j] == beta else np.where(r.grid > beta, base, np.minimum(beta, base))
        ordered.append((FuzzyRelation(labels, s), f"preserves({labels[i]},{labels[j]})"))
    merged: dict[FuzzyRelation, list[str]] = {}
    for rel, tag in ordered:
        merged.setdefault(rel, []).append(tag)
    return ExtensionFamily(tuple(FamilyMember(rel, tuple(tags)) for rel, tags in merged.items()))


def corrupt(r: FuzzyRelation, rng: np.random.Generator) -> FuzzyRelation:
    """Damage one entry of a valid order so some axiom may break.

    Picks one of: lowering a diagonal entry, raising the reverse of a
    positive pair, or raising an arbitrary off-diagonal zero (which can
    break transitivity or antisymmetry, or occasionally stay valid).
    """
    g = np.array(r.grid)
    n = r.n
    mode = int(rng.integers(0, 3))
    if mode == 0:
        i = int(rng.integers(0, n))
        g[i, i] = float(rng.choice([0.0, 0.25, 0.5, 0.99]))
    elif mode == 1 and n > 1:
        pos = [(i, j) for i in range(n) for j in range(n) if i != j and g[i, j] > 0]
        if pos:
            i, j = pos[int(rng.integers(0, len(pos)))]
            g[j, i] = float(rng.choice([0.1, 0.5, 1.0]))
        else:
            i, j = 0, 1
            g[i, j] = g[j, i] = 0.5
    elif n > 1:
        zeros = [(i, j) for i in range(n) for j in range(n) if i != j and g[i, j] == 0]
        if zeros:
            i, j = zeros[int(rng.integers(0, len(zeros)))]
            g[i, j] = float(rng.choice([0.2, 0.6, 1.0]))
    return FuzzyRelation(r.labels, g)


def drop_preserving_members(
    family: ExtensionFamily, a: str, b: str, value: float
) -> ExtensionFamily:
    """Remove every member whose grade at (a, b) equals ``value`` exactly.

    Used to demonstrate that the value-preserving members are necessary:
    without them the infimum at (a, b) rises strictly above the original
    grade, because every surviving extension exceeds it there.
    """
    return ExtensionFamily(
        tuple(m for m in family.members if m.relation.value(a, b) != value)
    )


def inf_reconstruction_probe(r: FuzzyRelation) -> bool:
    """End-to-end check that the certifying family's infimum rebuilds r.

    Runs the family construction and the packaged verification, then folds
    the entrywise minimum a second time with plain loops; passes only when
    both folds agree and equal r bit-exactly.
    """
    family = certifying_family(r)
    verdict = verify_intersection(r, family)

    mats = [member.relation.tolists() for member in family.members]
    n = r.n
    second = [
        [min(mat[i][j] for mat in mats) for j in range(n)]
        for i in range(n)
    ]
    return bool(verdict) and second == r.tolists()

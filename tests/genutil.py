"""Deterministic corpora, corruption and family helpers shared by several suites."""

from __future__ import annotations

import csv
import functools
import io
import json

import numpy as np

from fuzzorder import (
    ExtensionFamily,
    FamilyMember,
    FuzzyRelation,
    GeneratorSpec,
    Pair,
    ParseError,
    certifying_family,
    random_zadeh_order,
    verify_intersection,
)
from fuzzorder.extension import _linear_grid, _pivot_grid
from fuzzorder.matrixio import _read_json, detect_format
from fuzzorder.relation import _incomparable, _label_error

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


@functools.cache
def block_sum(
    sizes: tuple[int, ...],
    ordinal: bool = False,
    densities: tuple[float, ...] = (0.2, 0.45, 0.7),
    seed: int = 700,
) -> FuzzyRelation:
    """The disjoint (block-diagonal) or ordinal sum of generated orders.

    Block k is drawn with ``sizes[k]`` elements, density
    ``densities[k % len(densities)]`` and seed ``seed + k``.  A disjoint sum
    leaves every pair from different blocks incomparable; an ordinal sum puts
    every element of an earlier block fully below every element of a later
    one.  Either is an order.  Elements are labelled e1, e2, ...
    """
    n = sum(sizes)
    grid = np.zeros((n, n))
    start = 0
    for k, size in enumerate(sizes):
        spec = GeneratorSpec(n=size, density=densities[k % len(densities)], seed=seed + k)
        stop = start + size
        grid[start:stop, start:stop] = random_zadeh_order(spec).grid
        if ordinal:
            grid[start:stop, stop:] = 1.0
        start = stop
    return FuzzyRelation(tuple(f"e{i + 1}" for i in range(n)), grid)


def block_sums() -> list[FuzzyRelation]:
    """Disjoint and ordinal sums of generated blocks, from n = 12 up to n = 192."""
    sizes = [(5, 7), (12,) * 4, (12,) * 8, (12,) * 16]
    return [block_sum(s, ordinal) for s in sizes for ordinal in (False, True)]


def labeled_posets(n: int) -> np.ndarray:
    """Every partial order on n labeled points, as an array of n x n bool grids.

    Enumerates all 2^(n(n-1)) off-diagonal bit patterns at once, with a unit
    diagonal, and keeps the antisymmetric, transitive ones (s.s <= s, an
    integer matrix product).  There are 1, 3, 19, 219, 4231 of them for
    n = 1..5 (OEIS A001035).
    """
    off, k = ~np.eye(n, dtype=bool), n * (n - 1)
    bits = np.arange(2**k)[:, None] >> np.arange(k) & 1
    grids = np.broadcast_to(np.eye(n, dtype=bool), (len(bits), n, n)).copy()
    grids[:, off] = bits.astype(bool)
    grids = grids[~(grids & grids.transpose(0, 2, 1) & off).any(axis=(1, 2))]
    s = grids.astype(np.int64)
    return grids[~((s @ s > 0) & ~grids).any(axis=(1, 2))]


def poset_orders(max_n: int) -> list[FuzzyRelation]:
    """``labeled_posets(n)`` for n = 1..max_n as 0/1 orders, labelled p1, p2, ..."""
    return [
        FuzzyRelation(tuple(f"p{i + 1}" for i in range(n)), grid.astype(float))
        for n in range(1, max_n + 1)
        for grid in labeled_posets(n)
    ]


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


def closure_linearization(r: FuzzyRelation, policy="low"):
    """Reference linearization from r's 0/1 support and a max-min closure.

    A pair is incomparable iff both its grades are 0, and min and max of
    positive grades are positive, so which pairs get pivoted depends only on
    the support s = (r > 0), a crisp partial order.  A crisp rescan takes the
    row-major first incomparable pair {i, j}, i < j, orients it by
    ``policy`` ("low": i above j, "high": j above i, or a list of (a, b)
    element references put a above b, "low" for unlisted pairs) and closes
    the support under it, s |= outer(s[:, a], s[b, :]), until none is left.
    The grid is then the max-min transitive closure (Warshall, n steps) of r
    with every pivot (a, b) set to 1.  Returns the grid and the pivots as
    ``(a, b)`` index pairs.  It shares no update formula with the library's
    linearization loop or with ``rescan_linearization``.
    """
    if policy == "low":
        orient = lambda i, j: (i, j)
    elif policy == "high":
        orient = lambda i, j: (j, i)
    else:
        above = {(r.index_of(a), r.index_of(b)) for a, b in policy}
        orient = lambda i, j: (j, i) if (j, i) in above else (i, j)
    s, upper = r.grid > 0.0, np.triu(np.ones((r.n, r.n), dtype=bool), k=1)
    pivots = []
    while True:
        free = upper & ~(s | s.T)  # the incomparable pairs {i, j}, i < j
        first = int(free.argmax())
        if not free.flat[first]:
            break
        a, b = orient(*divmod(first, r.n))
        s |= np.outer(s[:, a], s[b, :])
        pivots.append((a, b))
    g = np.array(r.grid)
    for a, b in pivots:
        g[a, b] = 1.0
    for k in range(r.n):
        np.maximum(g, np.minimum.outer(g[:, k], g[k, :]), out=g)
    return g, pivots


@functools.cache
def low_rescan(r: FuzzyRelation):
    """``rescan_linearization(r.grid, r.labels)``, the "low" reference, once per relation."""
    return rescan_linearization(r.grid, r.labels)


def tight_regrade(r: FuzzyRelation, least: float | None = None) -> FuzzyRelation:
    """r with its distinct grades in (0, 1) mapped, in order, onto consecutive
    doubles: 0.5, nextafter(0.5, 1), and so on; 0 and 1 stay.  With ``least``
    given, r's least grade in (0, 1) goes to ``least`` instead and the others
    onto 0.5, nextafter(0.5, 1), and so on.

    The map is strictly increasing (for 0 < least < 0.5), so every comparison
    of grades, min and max that holds on r holds on the copy, whose grades sit
    one ulp apart.
    """
    g = np.array(r.grid)
    inner = (g > 0.0) & (g < 1.0)
    grades = np.unique(g[inner])
    tight = 0.5 + np.arange(len(grades)) * np.spacing(0.5)  # exact: 0.5 + k ulps
    if least is not None:
        tight = np.concatenate(([least], tight[:-1]))
    g[inner] = tight[np.searchsorted(grades, g[inner])]
    return FuzzyRelation(r.labels, g)


def subnormal_regrade(r: FuzzyRelation) -> FuzzyRelation:
    """``tight_regrade`` with r's least grade in (0, 1) mapped to 5e-324, the
    least subnormal: the one positive grade that an epsilon cannot tell from 0."""
    return tight_regrade(r, least=5e-324)


def alpha_cut_is_order(r: FuzzyRelation) -> bool:
    """The order verdict by the resolution identity: r is an order exactly when
    its diagonal is 1, no pair of distinct elements is positive both ways, and
    every cut C = {r >= alpha}, alpha over r's distinct positive grades, is
    crisp-transitive (C.C <= C, a bool matrix product).

    It shares no code with the max-min predicates of ``fuzzorder.relation``.
    """
    g = r.grid
    both = (g > 0.0) & (g.T > 0.0)
    if (np.diagonal(g) != 1.0).any() or np.triu(both, k=1).any():
        return False
    for alpha in np.unique(g[g > 0.0]):
        cut = g >= alpha
        if (cut @ cut > cut).any():
            return False
    return True


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
        s = reference_clamp(r.grid, base, i, j)
        ordered.append((FuzzyRelation(labels, s), f"preserves({labels[i]},{labels[j]})"))
    merged: dict[FuzzyRelation, list[str]] = {}
    for rel, tag in ordered:
        merged.setdefault(rel, []).append(tag)
    return ExtensionFamily(tuple(FamilyMember(rel, tuple(tags)) for rel, tags in merged.items()))


def reference_clamp(grid: np.ndarray, base: np.ndarray, i: int, j: int) -> np.ndarray:
    """The member preserving grid's grade beta at (i, j): ``base`` itself if it
    keeps beta there, else base capped at beta wherever grid is at most beta."""
    beta = grid[i, j]
    return base if base[i, j] == beta else np.where(grid > beta, base, np.minimum(beta, base))


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


# -------------------------------------------------------------------------
# per-cell references for the bulk file path
# -------------------------------------------------------------------------


def reference_incomparable_pairs(r: FuzzyRelation) -> list[Pair]:
    """Reference pair list: one Pair per ``argwhere`` row of the mask."""
    elems = r.elements
    mask = np.triu((r.grid == 0.0) & (r.grid.T == 0.0), k=1)
    return [Pair(elems[i], elems[j]) for i, j in np.argwhere(mask)]


def reference_value(v) -> object:
    """Reference grade formatter: an int when integral, else the float."""
    return int(v) if float(v).is_integer() else float(v)


def reference_emit_matrix(r: FuzzyRelation, fmt: str = "csv") -> str:
    """Reference emitter: one formatter call per cell."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([""] + list(r.labels))
        for label, row in zip(r.labels, r.grid):
            writer.writerow([label] + [repr(reference_value(v)) for v in row])
        return out.getvalue()
    doc = {
        "elements": list(r.labels),
        "matrix": [[reference_value(v) for v in row] for row in r.grid],
    }
    return json.dumps(doc) + "\n"


def _reference_grade(value: float, text: str, row: int, col: int) -> float:
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"value {text} outside [0, 1]", row, col)
    return value


def _reference_csv(text: str) -> FuzzyRelation:
    reader = csv.reader(io.StringIO(text))
    try:
        lines = list(reader)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
    while lines and lines[-1] == []:
        lines.pop()
    if not lines:
        raise ParseError("empty matrix document", 1, 1)
    header = [cell.strip() for cell in lines[0]]
    if not header:
        raise ParseError("empty header row", 1, 1)
    if header[0] != "":
        raise ParseError("first header cell must be empty", 1, 1)
    labels = header[1:]
    if not labels:
        raise ParseError("no element labels in header", 1, 2)
    error = _label_error(labels)
    if error is not None:
        raise ParseError(error[1], 1, error[0] + 2)
    n = len(labels)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} data rows for {n} labels, got {len(lines) - 1}", len(lines), 1)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line]
        if len(cells) != n + 1:
            raise ParseError(f"expected {n + 1} cells, got {len(cells)}", i, len(cells) + 1)
        if cells[0] != labels[i - 2]:
            raise ParseError(
                f"row label {cells[0]!r} does not match header label {labels[i - 2]!r}", i, 1
            )
        row = []
        for j, cell in enumerate(cells[1:], start=2):
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                value = float(cell)
            except ValueError:
                raise ParseError(f"malformed number {cell!r}", i, j) from None
            row.append(_reference_grade(value, cell, i, j))
        rows.append(row)
    return FuzzyRelation(tuple(labels), rows)


def _reference_json(text: str) -> FuzzyRelation:
    doc = _read_json(text)
    if not isinstance(doc, dict) or "elements" not in doc or "matrix" not in doc:
        raise ParseError('JSON document must be an object with "elements" and "matrix"')
    labels = doc["elements"]
    matrix = doc["matrix"]
    if not isinstance(labels, list) or not labels:
        raise ParseError('"elements" must be a nonempty array of strings')
    error = _label_error(labels)
    if error is not None:
        raise ParseError(f'"elements" entry {error[0] + 1}: {error[1]}')
    if not isinstance(matrix, list):
        raise ParseError('"matrix" must be an array of rows')
    n = len(labels)
    if len(matrix) != n:
        raise ParseError(f"expected {n} matrix rows, got {len(matrix)}")
    rows = []
    for i, row in enumerate(matrix, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"matrix row {i} must have {n} entries", i, 1)
        parsed = []
        for j, cell in enumerate(row, start=1):
            if not isinstance(cell, float):
                raise ParseError(f"malformed number {cell!r}", i, j)
            parsed.append(_reference_grade(cell, repr(cell), i, j))
        rows.append(parsed)
    return FuzzyRelation(tuple(labels), rows)


def reference_parse_matrix(text: str, fmt: str | None = None) -> FuzzyRelation:
    """Reference parser: every grade cell checked on its own, in row-major order,
    after the header or document shape, the labels and the row count, so the
    first error in the document is the one raised."""
    text = text.removeprefix("\ufeff")
    fmt = fmt or detect_format(text)
    return _reference_csv(text) if fmt == "csv" else _reference_json(text)

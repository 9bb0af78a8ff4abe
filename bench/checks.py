"""Correctness checks for benchmark outputs, written apart from the library.

Nothing here imports ``fuzzorder``: the axioms, linearity, dominance, the
family infimum and the matrix file formats are re-derived with plain numpy,
``csv`` and ``json``, so a fault in a library layer cannot hide itself by
also breaking the check.  Every check returns ``None`` when the output is
right and a short description of the first problem otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np


# -- axioms -----------------------------------------------------------------


def violation_counts(g: np.ndarray) -> dict[str, int]:
    """Count every violation of the three order axioms.

    Reflexivity counts diagonal entries other than 1, antisymmetry counts
    unordered pairs positive in both directions, and transitivity counts the
    triples (x, y, z) with min(g[x, y], g[y, z]) > g[x, z].
    """
    n = g.shape[0]
    positive = g > 0.0
    both = positive & positive.T
    transitivity = 0
    for x in range(n):
        through = np.minimum(g[x][:, None], g)  # [y, z] = min(g[x, y], g[y, z])
        transitivity += int(np.count_nonzero(through > g[x][None, :]))
    return {
        "reflexivity": int(np.count_nonzero(np.diagonal(g) != 1.0)),
        "antisymmetry": int(np.count_nonzero(np.triu(both, k=1))),
        "transitivity": transitivity,
    }


def incomparable_entries(g: np.ndarray) -> int:
    """Ordered pairs (x, y), x != y, with grade 0 in both directions."""
    zero = (g == 0.0) & (g.T == 0.0)
    return int(np.count_nonzero(zero)) - int(np.count_nonzero(np.diagonal(zero)))


def order_problem(g: np.ndarray) -> str | None:
    counts = violation_counts(g)
    bad = {axiom: c for axiom, c in counts.items() if c}
    return f"not an order: {bad}" if bad else None


# -- extensions and families ----------------------------------------------


def extension_problem(r: np.ndarray, s: np.ndarray, linear: bool) -> str | None:
    """``s`` must be an order that dominates ``r`` using only r's grades, 0 and 1."""
    if s.shape != r.shape:
        return f"shape {s.shape} differs from input shape {r.shape}"
    problem = order_problem(s)
    if problem:
        return problem
    if not (s >= r).all():
        return "output lowers an input grade"
    allowed = np.union1d(np.unique(r), [0.0, 1.0])
    if not np.isin(s, allowed).all():
        return "output holds a grade that is not an input grade, 0 or 1"
    if linear and incomparable_entries(s):
        return "output is not linear"
    return None


def linearization_problem(r: np.ndarray, s: np.ndarray, k: int, m: int) -> str | None:
    """A linearize result: a linear extension reached in k <= m/2 pivots."""
    problem = extension_problem(r, s, linear=True)
    if problem:
        return problem
    expected_m = incomparable_entries(r)
    if m != expected_m:
        return f"m={m}, but the input has {expected_m} incomparable entries"
    if not 0 <= 2 * k <= m:
        return f"k={k} breaks k <= m/2 with m={m}"
    return None


def certificate_problem(r: np.ndarray, labels: list[str], tags: list[list[str]]) -> str | None:
    """The tags must name each certificate of the paper's family exactly once:
    both orientations of every incomparable pair and one preserver of every
    positive off-diagonal grade."""
    n = len(labels)
    incomparable = (r == 0.0) & (r.T == 0.0)
    expected = Counter(
        f"{'orients' if incomparable[i, j] else 'preserves'}({labels[i]},{labels[j]})"
        for i in range(n) for j in range(n) if i != j and (incomparable[i, j] or r[i, j] > 0.0)
    )
    issued = Counter(tag for member_tags in tags for tag in member_tags)
    if issued != expected:
        return (f"certificates differ from the paper's family: {sum((expected - issued).values())} "
                f"missing, {sum((issued - expected).values())} unexpected")
    return None


def family_problem(
    r: np.ndarray, labels: list[str], members: list[np.ndarray], tags: list[list[str]]
) -> str | None:
    """Linear extensions whose minimum is r bit for bit, each keeping its tags,
    which are the paper's certificates (:func:`certificate_problem`)."""
    if not members:
        return "empty family"
    problem = certificate_problem(r, labels, tags)
    if problem:
        return problem
    index = {label: i for i, label in enumerate(labels)}
    for number, (s, member_tags) in enumerate(zip(members, tags)):
        problem = extension_problem(r, s, linear=True)
        if problem:
            return f"member {number}: {problem}"
        for tag in member_tags:
            kind, pair = tag[:-1].split("(")
            a, b = (index[label] for label in pair.split(","))
            if kind == "orients" and not (s[a, b] == 1.0 and s[b, a] == 0.0):
                return f"member {number}: {tag} but s(a,b)={s[a, b]}, s(b,a)={s[b, a]}"
            if kind == "preserves" and s[a, b] != r[a, b]:
                return f"member {number}: {tag} but s(a,b)={s[a, b]} != r(a,b)={r[a, b]}"
    floor = np.minimum.reduce(members)
    if not np.array_equal(floor, r):
        return f"family minimum differs from the input at {int((floor != r).sum())} entries"
    return None


# -- matrix files -----------------------------------------------------------


def read_matrix_text(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a CSV or JSON matrix document; raises ValueError when malformed."""
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        labels = doc["elements"]
        grid = np.array(doc["matrix"], dtype=np.float64)
    else:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if not rows or rows[0][0] != "":
            raise ValueError("CSV header must start with an empty cell")
        labels = rows[0][1:]
        if [row[0] for row in rows[1:]] != labels:
            raise ValueError("CSV row labels differ from the header")
        grid = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    n = len(labels)
    if grid.shape != (n, n):
        raise ValueError(f"grid shape {grid.shape} does not match {n} labels")
    return labels, grid


def read_matrix_file(path: Path) -> tuple[list[str], np.ndarray]:
    return read_matrix_text(Path(path).read_text(encoding="utf-8"))


def _grade(v: float) -> int | float:
    """Integral grades print without a fraction; ``repr`` of the rest reads back exactly."""
    return int(v) if float(v).is_integer() else float(v)


def matrix_text(labels: list[str], grid: np.ndarray, fmt: str) -> str:
    """Write a matrix document in the library's CSV or JSON layout."""
    if fmt == "json":
        rows = [[_grade(v) for v in row] for row in grid]
        return json.dumps({"elements": list(labels), "matrix": rows}) + "\n"
    lines = ["," + ",".join(labels)]
    lines += [label + "," + ",".join(repr(_grade(v)) for v in row) for label, row in zip(labels, grid)]
    return "\n".join(lines) + "\n"

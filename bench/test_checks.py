"""The benchmark's checker must accept right outputs and reject damaged ones.

Run with ``python3 -m pytest bench``.  A checker that passed everything would
make every benchmark run read as correct, so each check is shown rejecting a
relation damaged in the way it exists to catch.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from fuzzorder import FuzzyRelation, GeneratorSpec, random_zadeh_order  # noqa: E402
from fuzzorder import certifying_family, linearize  # noqa: E402
from inputs import OrderSource, Shape, assemble, regrade  # noqa: E402
import fuzzorder.oracle  # noqa: E402

ORDER = np.array([
    [1, 0, 0.4, 0.2],
    [0, 1, 0.3, 0],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
])
LABELS = ["a", "b", "c", "d"]


def loop_counts(g) -> dict[str, int]:
    n = len(g)
    return {
        "reflexivity": sum(g[i][i] != 1 for i in range(n)),
        "antisymmetry": sum(g[i][j] > 0 and g[j][i] > 0 for i in range(n) for j in range(i + 1, n)),
        "transitivity": sum(
            min(g[x][y], g[y][z]) > g[x][z] for x, y, z in itertools.product(range(n), repeat=3)
        ),
    }


def damaged(g, i, j, value):
    out = np.array(g, dtype=float)
    out[i, j] = value
    return out


@pytest.mark.parametrize("seed", range(30))
def test_violation_counts_match_plain_loops(seed):
    rng = np.random.default_rng(seed)
    g = random_zadeh_order(GeneratorSpec(n=6, density=0.5, seed=seed)).grid
    i, j = rng.integers(0, 6, size=2)
    g = damaged(g, i, j, rng.choice([0.0, 0.3, 1.0]))
    assert checks.violation_counts(g) == loop_counts(g.tolist())


@pytest.mark.parametrize("i, j, value, axiom", [
    (0, 0, 0.5, "reflexivity"),
    (2, 0, 0.1, "antisymmetry"),
    (0, 2, 0.1, "transitivity"),  # below min(r(a,b), r(b,c)) = 0.3
])
def test_order_problem_names_the_broken_axiom(i, j, value, axiom):
    g = damaged(ORDER, 0, 1, 0.5)
    assert checks.order_problem(g) is None
    problem = checks.order_problem(damaged(g, i, j, value))
    assert problem and axiom in problem


def test_extension_checks_reject_damaged_outputs():
    s = linearize(FuzzyRelation(tuple(LABELS), ORDER)).relation.grid
    assert checks.extension_problem(ORDER, s, linear=True) is None
    chain = np.array([[1, 0.4], [0, 1]])
    assert "lowers" in checks.extension_problem(chain, damaged(chain, 0, 1, 0.2), linear=True)
    assert "not linear" in checks.extension_problem(ORDER, ORDER, linear=True)
    assert checks.extension_problem(ORDER, ORDER, linear=False) is None
    assert "not an order" in checks.extension_problem(ORDER, damaged(s, 3, 0, 1.0), linear=True)
    antichain = np.eye(2)
    assert "not an input grade" in checks.extension_problem(
        antichain, damaged(antichain, 0, 1, 0.55), linear=True)


def test_linearization_problem_checks_the_step_bound():
    result = linearize(FuzzyRelation(tuple(LABELS), ORDER))
    s = result.relation.grid
    assert checks.linearization_problem(ORDER, s, result.k, result.m) is None
    assert "m=" in checks.linearization_problem(ORDER, s, result.k, result.m + 2)
    assert "k <= m/2" in checks.linearization_problem(ORDER, s, result.m, result.m)


def test_family_problem_rejects_damaged_families():
    family = certifying_family(FuzzyRelation(tuple(LABELS), ORDER))
    grids = [m.relation.grid for m in family.members]
    tags = [list(m.tags) for m in family.members]
    assert checks.family_problem(ORDER, LABELS, grids, tags) is None
    # one linear extension alone cannot rebuild a non-linear order
    assert "minimum differs" in checks.family_problem(ORDER, LABELS, grids[:1], tags)
    # swap the tags of the two members that orient one pair in opposite ways
    first = next(i for i, t in enumerate(tags) if t[0].startswith("orients"))
    a, b = tag_pair(tags[first][0])
    second = next(i for i, t in enumerate(tags) if f"orients({b},{a})" in t)
    swapped = [list(t) for t in tags]
    swapped[first][0] = f"orients({b},{a})"
    swapped[second][swapped[second].index(f"orients({b},{a})")] = f"orients({a},{b})"
    assert "orients" in checks.family_problem(ORDER, LABELS, grids, swapped)
    # a preserver that no longer keeps its grade
    keeper = next(i for i, t in enumerate(tags) if any(x.startswith("preserves") for x in t))
    x, y = (LABELS.index(v) for v in tag_pair(next(
        tag for tag in tags[keeper] if tag.startswith("preserves"))))
    raised = [g.copy() for g in grids]
    raised[keeper][x, y] = 1.0
    assert checks.family_problem(ORDER, LABELS, raised, tags)
    # a certificate dropped, or renamed to something the paper does not issue
    dropped = [t[1:] if i == keeper else t for i, t in enumerate(tags)]
    assert "1 missing" in checks.family_problem(ORDER, LABELS, grids, dropped)
    renamed = [["keeps(a,b)"] + t[1:] if i == 0 else t for i, t in enumerate(tags)]
    assert "1 unexpected" in checks.family_problem(ORDER, LABELS, grids, renamed)


def tag_pair(tag):
    return tag[tag.index("(") + 1:-1].split(",")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_matrix_text_reads_back_bit_for_bit(fmt):
    g = np.array([[1, 0.1, 1 / 3], [0, 1, 0.7], [0, 0, 1]])
    labels, back = checks.read_matrix_text(checks.matrix_text(["p", "q", "r"], g, fmt))
    assert labels == ["p", "q", "r"] and np.array_equal(back, g)


def test_read_matrix_text_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        checks.read_matrix_text(",a,b\na,1,0\nc,0,1\n")


@pytest.mark.parametrize("kind, n", [("disjoint", 20), ("ordinal", 30), ("block", 7)])
def test_block_sums_are_orders(kind, n):
    labels, g = OrderSource(fuzzorder.oracle, 0, 3).order(Shape(kind, n, 0.5))
    assert len(labels) == n and checks.order_problem(g) is None
    if kind == "disjoint":
        assert checks.incomparable_entries(g) >= n * n // 2 - n


def test_regrading_keeps_the_work_and_changes_the_grades():
    labels, g = OrderSource(fuzzorder.oracle, 0, 0).order(Shape("disjoint", 24, 0.5))
    regraded = regrade(g, np.random.default_rng(7))
    assert checks.order_problem(regraded) is None
    assert np.array_equal(g > 0, regraded > 0) and np.array_equal(g == 1, regraded == 1)
    assert not np.array_equal(g, regraded)
    first = linearize(FuzzyRelation(tuple(labels), g))
    second = linearize(FuzzyRelation(tuple(labels), regraded))
    assert [(p.a, p.b) for p in first.trace] == [(p.a, p.b) for p in second.trace]


def test_assemble_keeps_blocks_on_the_diagonal():
    g = assemble([np.eye(2), np.eye(1)], ordinal=True)
    assert g.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]

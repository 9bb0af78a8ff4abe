"""Shared golden matrices and fixtures for the test suite.

The grids below are the source of truth for the three worked samples; the
files under fixtures/ must parse to exactly these values (test_matrixio
checks that).  ORDER3 has one comparable pair and two incomparable ones,
ORDER4 resolves to a chain in two pivots, ORDER7 is the large sample whose
linearization is pinned entrywise in ORDER7_LINEAR.
"""

from pathlib import Path

import pytest

import criteria_log
from fuzzorder import FuzzyRelation
from fuzzorder import relation as relation_module


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criteria_log.lines:
        terminalreporter.section("acceptance criteria")
        for line in criteria_log.lines:
            terminalreporter.write_line(line)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ORDER3_LABELS = ("a", "b", "c")
ORDER3_GRID = [
    [1, 0, 0.4],
    [0, 1, 0],
    [0, 0, 1],
]
ORDER3_LINEAR_GRID = [
    [1, 1, 1],
    [0, 1, 1],
    [0, 0, 1],
]

ORDER4_LABELS = ("a", "b", "c", "d")
ORDER4_GRID = [
    [1, 0, 0.3, 0.2],
    [0, 1, 0.4, 0.1],
    [0, 0, 1, 0],
    [0, 0, 0, 1],
]
ORDER4_LINEAR_GRID = [
    [1, 1, 0.4, 0.4],
    [0, 1, 0.4, 0.4],
    [0, 0, 1, 1],
    [0, 0, 0, 1],
]

ORDER7_LABELS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7")
ORDER7_GRID = [
    [1, 0, 0, 0.55, 0.40, 0.45, 0.60],
    [0, 1, 0, 0.60, 0.50, 0.35, 0.75],
    [0.15, 0, 1, 0.30, 0.70, 0.80, 0.90],
    [0, 0, 0, 1, 0, 0.15, 0],
    [0, 0, 0, 0, 1, 0.30, 0.25],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0.20, 1],
]
ORDER7_LINEAR_GRID = [
    [1, 1, 0, 0.60, 0.60, 0.45, 0.75],
    [0, 1, 0, 0.60, 0.60, 0.35, 0.75],
    [0.15, 0.15, 1, 0.30, 0.70, 0.80, 0.90],
    [0, 0, 0, 1, 1, 0.30, 0.25],
    [0, 0, 0, 0, 1, 0.30, 0.25],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0.20, 1],
]

# Each golden grid with its labels, by fixture name.
GOLDEN_GRIDS = {
    "order3": (ORDER3_LABELS, ORDER3_GRID), "order3_linear": (ORDER3_LABELS, ORDER3_LINEAR_GRID),
    "order4": (ORDER4_LABELS, ORDER4_GRID), "order4_linear": (ORDER4_LABELS, ORDER4_LINEAR_GRID),
    "order7": (ORDER7_LABELS, ORDER7_GRID), "order7_linear": (ORDER7_LABELS, ORDER7_LINEAR_GRID),
}


def identity_relation(n, labels=None):
    labels = labels or tuple(f"x{i + 1}" for i in range(n))
    return FuzzyRelation(labels, [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)])


@pytest.fixture
def order3():
    return FuzzyRelation(ORDER3_LABELS, ORDER3_GRID)


@pytest.fixture
def order3_linear():
    return FuzzyRelation(ORDER3_LABELS, ORDER3_LINEAR_GRID)


@pytest.fixture
def order4():
    return FuzzyRelation(ORDER4_LABELS, ORDER4_GRID)


@pytest.fixture
def order7():
    return FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)


@pytest.fixture
def order7_linear():
    return FuzzyRelation(ORDER7_LABELS, ORDER7_LINEAR_GRID)


@pytest.fixture
def axiom_calls(monkeypatch):
    """The axiom passes the verdict-only order check starts, by name, in call order."""
    calls = []

    def counted(axiom):
        def call(r):
            calls.append(axiom.__name__)
            return axiom(r)
        return call

    monkeypatch.setattr(
        relation_module, "_AXIOMS", tuple(counted(axiom) for axiom in relation_module._AXIOMS)
    )
    return calls

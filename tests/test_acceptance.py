"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py``; the PASS/FAIL lines appear in
the "acceptance criteria" section of the terminal summary.  Criteria 4-7
share one deterministic corpus of 1000 generated orders (n <= 8, mixed
densities).  All equality checks are bit-exact; the only tolerances are the
stated wall-clock bounds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import criteria_log

from fuzzorder import (
    FuzzyRelation,
    brute_check_order,
    certifying_family,
    check_order,
    clamp_extend,
    emit_matrix,
    extends,
    is_linear,
    linearize,
    parse_matrix,
    pivot_extend,
    verify_intersection,
)

from conftest import (
    FIXTURES,
    ORDER3_GRID,
    ORDER3_LABELS,
    ORDER3_LINEAR_GRID,
    ORDER4_GRID,
    ORDER4_LABELS,
    ORDER4_LINEAR_GRID,
    ORDER7_GRID,
    ORDER7_LABELS,
    ORDER7_LINEAR_GRID,
)
from genutil import corpus, corrupt, drop_preserving_members, inf_reconstruction_probe

CORPUS_SIZE = 1000


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        criteria_log.lines.append(f"[FAIL] criterion {number}: {title}")
        raise
    criteria_log.lines.append(f"[PASS] criterion {number}: {title}")


@pytest.fixture(scope="module")
def shared_corpus():
    return corpus(CORPUS_SIZE, max_n=8, seed_base=20_000)


def best_time(fn, repeats=5):
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_golden_3_element_linearization():
    with criterion(1, "3-element golden linearization, bit-exact, < 1 ms"):
        r = FuzzyRelation(ORDER3_LABELS, ORDER3_GRID)
        result = linearize(r)
        first = result.trace[0]
        intermediate = pivot_extend(r, first.a, first.b)
        assert intermediate.value("a", "b") == 1.0
        assert intermediate.tolists() == [[1, 1, 0.4], [0, 1, 0], [0, 0, 1]]
        assert result.relation.tolists() == ORDER3_LINEAR_GRID
        assert result.k == 2
        assert best_time(lambda: linearize(r)) < 1e-3


def test_criterion_2_golden_4_element_linearization():
    with criterion(2, "4-element golden linearization, bit-exact"):
        r = FuzzyRelation(ORDER4_LABELS, ORDER4_GRID)
        result = linearize(r)
        assert result.relation.tolists() == ORDER4_LINEAR_GRID
        assert result.relation.value("a", "d") == max(0.2, 0.1, 0.3, 0.4) == 0.4
        assert result.relation.value("b", "d") == max(0.1, 0.4) == 0.4
        assert result.relation.value("c", "d") == 1.0
        assert result.k == 2


def test_criterion_3_golden_7_element_linearization():
    with criterion(3, "7-element golden linearization, trace and counts, < 1 ms"):
        r = FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)
        result = linearize(r)
        assert result.relation == FuzzyRelation(ORDER7_LABELS, ORDER7_LINEAR_GRID)
        assert [(s.a.label, s.b.label) for s in result.trace] == [("x1", "x2"), ("x4", "x5")]
        assert result.k == 2
        assert result.m == 8
        assert result.k <= result.m / 2
        assert best_time(lambda: linearize(r)) < 1e-3


def test_criterion_4_pivot_property_suite(shared_corpus):
    with criterion(4, "pivot suite over 1000 orders, every legal pivot"):
        assert len(shared_corpus) >= 1000
        pivots_run = 0
        for r in shared_corpus:
            g = r.grid
            for a in range(r.n):
                for b in range(r.n):
                    if a != b and g[b, a] == 0.0:
                        out = pivot_extend(r, a, b)
                        assert brute_check_order(out)
                        assert extends(r, out)
                        assert out.grid[a, b] == 1.0
                        assert out.grid[b, a] == 0.0
                        pivots_run += 1
        assert pivots_run > CORPUS_SIZE  # the corpus exercises many pivots


def test_criterion_5_linearize_property_suite(shared_corpus):
    with criterion(5, "linearize suite over 1000 orders"):
        for r in shared_corpus:
            result = linearize(r)
            assert brute_check_order(result.relation)
            assert is_linear(result.relation)
            assert extends(r, result.relation)
            assert result.k <= result.m / 2 <= r.n * (r.n - 1) / 2


def test_criterion_6_clamp_property_suite(shared_corpus):
    with criterion(6, "clamp suite over 1000 orders, every positive pair"):
        for r in shared_corpus:
            g = r.grid
            for a in range(r.n):
                for b in range(r.n):
                    if a != b and g[a, b] > 0.0:
                        s = clamp_extend(r, a, b).relation
                        assert brute_check_order(s)
                        assert is_linear(s)
                        assert extends(r, s)
                        assert s.grid[a, b] == g[a, b]


def test_criterion_7_reconstruction_suite(shared_corpus):
    with criterion(7, "infimum reconstruction over 1000 orders + goldens, <= 60 s"):
        started = time.perf_counter()
        for grid, labels in (
            (ORDER3_GRID, ORDER3_LABELS),
            (ORDER4_GRID, ORDER4_LABELS),
            (ORDER7_GRID, ORDER7_LABELS),
        ):
            assert inf_reconstruction_probe(FuzzyRelation(labels, grid))
        for r in shared_corpus:
            assert inf_reconstruction_probe(r)
        assert time.perf_counter() - started <= 60.0


def test_criterion_8_necessity_of_value_preservers():
    with criterion(8, "dropping the (x1,x4) value-preservers breaks reconstruction"):
        r = FuzzyRelation(ORDER7_LABELS, ORDER7_GRID)
        target = r.value("x1", "x4")
        assert target == 0.55
        family = certifying_family(r)
        reduced = drop_preserving_members(family, "x1", "x4", target)
        assert any("preserves(x1,x4)" in m.tags for m in family.members)
        assert all("preserves(x1,x4)" not in m.tags for m in reduced.members)
        for member in reduced.members:
            assert member.relation.value("x1", "x4") > target
        verdict = verify_intersection(r, reduced)
        assert not verdict
        by_pair = {pair: inf for pair, inf, _ in verdict.witnesses}
        assert ("x1", "x4") in by_pair
        assert by_pair[("x1", "x4")] == 0.60 > target


def test_criterion_9_oracle_agreement():
    with criterion(9, "check_order and brute oracle agree on 10000 matrices"):
        rng = np.random.default_rng(99)
        base = corpus(2500, max_n=8, seed_base=50_000)
        matrices = []
        for r in base:
            matrices.append(r)
            damaged = corrupt(r, rng)
            matrices.append(damaged)
            matrices.append(corrupt(damaged, rng))
            n = int(rng.integers(1, 9))
            matrices.append(
                FuzzyRelation(tuple(f"x{i + 1}" for i in range(n)), rng.random((n, n)))
            )
        assert len(matrices) == 10_000
        disagreements = sum(
            1 for m in matrices if check_order(m).is_order != brute_check_order(m)
        )
        assert disagreements == 0


def test_criterion_10_roundtrip_fidelity(shared_corpus):
    with criterion(10, "parse/emit round-trip on fixtures + 1000 generated, both formats"):
        fixture_texts = [
            (FIXTURES / name).read_text(encoding="utf-8")
            for name in (
                "order3.csv",
                "order4.csv",
                "order7.csv",
                "order7_linear.csv",
                "order3.json",
            )
        ]
        for text in fixture_texts:
            once = parse_matrix(text)
            for fmt in ("csv", "json"):
                assert parse_matrix(emit_matrix(once, fmt), fmt) == once
        for r in shared_corpus:
            for fmt in ("csv", "json"):
                assert parse_matrix(emit_matrix(r, fmt), fmt) == r

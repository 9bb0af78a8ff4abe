"""Pivot extension and linearization tests against the frozen goldens."""

import numpy as np
import pytest

from fuzzorder import (
    FuzzyRelation,
    GeneratorSpec,
    PreconditionError,
    check_order,
    count_incomparable_entries,
    extends,
    is_linear,
    linearize,
    pivot_extend,
    random_zadeh_order,
)

from fuzzorder.extension import _linear_grid, _pivot_grid
from fuzzorder.relation import _incomparable

from conftest import (
    ORDER3_GRID,
    ORDER3_LABELS,
    ORDER3_LINEAR_GRID,
    ORDER4_GRID,
    ORDER4_LABELS,
    ORDER4_LINEAR_GRID,
    ORDER7_GRID,
    ORDER7_LABELS,
    ORDER7_LINEAR_GRID,
    identity_relation,
)
from genutil import block_sum, corpus, rescan_linearization


# ---------------------------------------------------------------- pivot


def test_pivot_order3_first_step(order3):
    """Putting a above b can only raise row a here; (a,c) stays at 0.4."""
    r1 = pivot_extend(order3, "a", "b")
    assert r1.tolists() == [[1, 1, 0.4], [0, 1, 0], [0, 0, 1]]


def test_pivot_on_two_point_identity():
    r = identity_relation(2, ("a", "b"))
    assert pivot_extend(r, "a", "b").tolists() == [[1, 1], [0, 1]]


def test_pivot_order7_changed_entries(order7):
    """Frozen from an entrywise evaluation of the pivot formula."""
    r1 = pivot_extend(order7, "x1", "x2")
    changed = {
        (order7.labels[i], order7.labels[j]): (order7.tolists()[i][j], r1.tolists()[i][j])
        for i, j in np.argwhere(r1.grid != order7.grid)
    }
    assert changed == {
        ("x1", "x2"): (0.0, 1.0),
        ("x1", "x4"): (0.55, 0.60),
        ("x1", "x5"): (0.40, 0.50),
        ("x1", "x7"): (0.60, 0.75),
        ("x3", "x2"): (0.0, 0.15),
    }


def test_pivot_forces_endpoints(order7):
    r1 = pivot_extend(order7, "x4", "x7")
    assert r1.value("x4", "x7") == 1.0
    assert r1.value("x7", "x4") == 0.0


def test_pivot_preserves_axioms_and_extends(order7):
    r1 = pivot_extend(order7, "x2", "x3")
    assert check_order(r1).is_order
    assert extends(order7, r1)


def test_pivot_precondition_not_an_order():
    bad = FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]])
    with pytest.raises(PreconditionError) as exc:
        pivot_extend(bad, "a", "b")
    assert exc.value.reason == "not-an-order"


def test_pivot_precondition_equal_pivots(order3):
    with pytest.raises(PreconditionError) as exc:
        pivot_extend(order3, "a", "a")
    assert exc.value.reason == "equal-pivots"


def test_pivot_precondition_reverse_positive(order3):
    # r(c,a) = 0 but r(a,c) = 0.4, so pivoting c above a is illegal
    with pytest.raises(PreconditionError) as exc:
        pivot_extend(order3, "c", "a")
    assert exc.value.reason == "r(b,a)>0"


def test_pivot_accepts_elements_and_indices(order3):
    by_label = pivot_extend(order3, "a", "b")
    by_index = pivot_extend(order3, 0, 1)
    by_element = pivot_extend(order3, order3.element("a"), order3.element("b"))
    assert by_label == by_index == by_element


# ---------------------------------------------------------------- linearize


def test_linearize_order3(order3):
    result = linearize(order3)
    assert result.relation.tolists() == ORDER3_LINEAR_GRID
    assert [(s.a.label, s.b.label) for s in result.trace] == [("a", "b"), ("b", "c")]
    assert result.k == 2
    assert result.m == 4


def test_linearize_order4(order4):
    result = linearize(order4)
    assert result.relation.tolists() == ORDER4_LINEAR_GRID
    assert [(s.a.label, s.b.label) for s in result.trace] == [("a", "b"), ("c", "d")]
    assert result.k == 2


def test_linearize_order7_matches_golden(order7):
    result = linearize(order7)
    assert result.relation == FuzzyRelation(ORDER7_LABELS, ORDER7_LINEAR_GRID)
    assert [(s.a.label, s.b.label) for s in result.trace] == [("x1", "x2"), ("x4", "x5")]
    assert result.k == 2
    assert result.m == 8
    assert result.k <= result.m / 2


def test_linearize_fixed_point_on_linear_input(order7_linear):
    result = linearize(order7_linear)
    assert result.relation == order7_linear
    assert result.trace == ()
    assert result.k == 0


def test_linearize_propagates_not_an_order():
    bad = FuzzyRelation(("a", "b"), [[1, 0.3], [0.2, 1]])
    with pytest.raises(PreconditionError) as exc:
        linearize(bad)
    assert exc.value.reason == "not-an-order"


def test_linearize_is_deterministic(order7):
    first = linearize(order7)
    second = linearize(order7)
    assert first.relation == second.relation
    assert first.trace == second.trace


def test_trace_replay_reproduces_output(order7):
    result = linearize(order7)
    replayed = order7
    for step in result.trace:
        replayed = pivot_extend(replayed, step.a, step.b)
    assert replayed == result.relation


def test_trace_records_only_raised_entries(order7):
    result = linearize(order7)
    for step in result.trace:
        assert step.step_index >= 1
        for (_, _), old, new in step.entries_raised:
            assert new > old


def test_high_policy_order3(order3):
    """Frozen golden: one pivot (b above a) already settles both pairs."""
    result = linearize(order3, policy="high")
    assert result.relation.tolists() == [[1, 0, 0.4], [1, 1, 0.4], [0, 0, 1]]
    assert [(s.a.label, s.b.label) for s in result.trace] == [("b", "a")]
    assert result.k == 1
    assert check_order(result.relation).is_order
    assert is_linear(result.relation)


def test_explicit_policy_overrides_orientation(order3):
    result = linearize(order3, policy=[("b", "a")])
    assert result.relation.value("b", "a") > 0
    assert result.relation.value("a", "b") == 0
    assert check_order(result.relation).is_order and is_linear(result.relation)


def test_override_policy_resolves_element_references(order3):
    """Override pairs resolve like pivot_extend's arguments: labels, indices or Elements."""
    by_label = linearize(order3, policy=[("b", "a")])
    assert by_label.relation != linearize(order3).relation
    b, a = order3.element("b"), order3.element("a")
    for policy in ([(1, 0)], [(b, a)], [("b", 0)], [(np.int64(1), a)]):
        result = linearize(order3, policy=policy)
        assert result.relation == by_label.relation
        assert result.trace == by_label.trace


def test_override_policy_rejects_unknown_references(order3):
    with pytest.raises(KeyError, match="zz"):
        linearize(order3, policy=[("a", "zz")])
    with pytest.raises(IndexError):
        linearize(order3, policy=[(0, 3)])


def test_unknown_policy_rejected(order3):
    with pytest.raises(ValueError, match="policy"):
        linearize(order3, policy="sideways")


def test_every_pivot_reduces_incomparable_pairs(order7):
    result = linearize(order7)
    current = order7
    remaining = count_incomparable_entries(current)
    for step in result.trace:
        current = pivot_extend(current, step.a, step.b)
        now = count_incomparable_entries(current)
        assert now <= remaining - 2
        remaining = now
    assert remaining == 0


# ------------------------------------------- cursor loop against the rescan


def _policies(r):
    # "low", "high", and an override list reversing every other "low" pivot
    overrides = [(step.b.label, step.a.label) for step in linearize(r).trace[::2]]
    flipped = set(overrides)
    return [
        ("low", lambda i, j: (i, j)),
        ("high", lambda i, j: (j, i)),
        (overrides, lambda i, j: (j, i) if (r.labels[j], r.labels[i]) in flipped else (i, j)),
    ]


def _assert_matches_rescan(r):
    for policy, orient in _policies(r):
        result = linearize(r, policy)
        grid, steps = rescan_linearization(r.grid, r.labels, orient)
        assert result.relation.grid.tobytes() == grid.tobytes()
        assert [(s.a.index, s.b.index, s.entries_raised) for s in result.trace] == steps
        assert [s.step_index for s in result.trace] == list(range(1, len(steps) + 1))
        assert result.k == len(steps)
        assert result.m == int(((r.grid == 0.0) & (r.grid.T == 0.0)).sum())  # unit diagonal


GOLDENS = [(ORDER3_LABELS, ORDER3_GRID), (ORDER4_LABELS, ORDER4_GRID), (ORDER7_LABELS, ORDER7_GRID)]


@pytest.mark.parametrize("labels, grid", GOLDENS)
def test_linearize_matches_rescan_on_goldens(labels, grid):
    _assert_matches_rescan(FuzzyRelation(labels, grid))


def test_linearize_matches_rescan_on_corpus():
    for r in corpus(300, max_n=12):
        _assert_matches_rescan(r)


@pytest.mark.parametrize("ordinal", [False, True])
@pytest.mark.parametrize("sizes", [(5, 7), (12, 12, 12, 12), (12,) * 8])
def test_linearize_matches_rescan_on_block_sums(sizes, ordinal):
    densities = (0.2, 0.45, 0.7)
    blocks = [
        random_zadeh_order(GeneratorSpec(n=n, density=densities[k % 3], seed=500 + k))
        for k, n in enumerate(sizes)
    ]
    _assert_matches_rescan(block_sum(blocks, ordinal))


def test_linear_grid_matches_rescan_on_order7_orienting_grids(order7):
    for i, j in np.argwhere(_incomparable(order7.grid)):
        for a, b in ((i, j), (j, i)):
            pre = _pivot_grid(order7.grid, a, b)
            assert _linear_grid(pre).tobytes() == rescan_linearization(pre)[0].tobytes()


# ---------------------------------------------------------------- counting


def test_count_incomparable_entries(order3, order4, order7, order7_linear):
    assert count_incomparable_entries(order7) == 8
    assert count_incomparable_entries(order3) == 4
    assert count_incomparable_entries(order4) == 4
    assert count_incomparable_entries(order7_linear) == 0


def test_step_count_bound_holds(order3):
    result = linearize(order3)
    assert result.m == 4
    assert result.k == 2
    assert result.k <= result.m / 2 <= order3.n * (order3.n - 1) / 2


def test_pivot_values_come_from_input(order7):
    r1 = pivot_extend(order7, "x1", "x2")
    inputs = set(float(v) for v in order7.grid.flat)
    assert set(float(v) for v in r1.grid.flat) <= inputs | {0.0, 1.0}
